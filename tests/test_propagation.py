"""Memlet propagation through (tiled) map scopes — the §4.1 machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sdfg import (
    Map,
    Memlet,
    NonAffineError,
    Range,
    Symbol,
    neighbor_indirection_hook,
    propagate_memlet,
    propagate_through_maps,
    symbols,
)


class TestAffinePropagation:
    def test_identity_param(self):
        m = Map("m", ["i"], Range([(0, 9)]))
        out = propagate_memlet(Memlet.parse("A[i]"), m)
        assert out.subset.evaluate({}) == ((0, 9, 1),)

    def test_accesses_multiply_by_iterations(self):
        m = Map("m", ["i"], Range([(0, 9)]))
        out = propagate_memlet(Memlet.parse("A[i]"), m)
        assert out.accesses.evaluate({}) == 10

    def test_negative_coefficient_flips_endpoints(self):
        m = Map("m", ["i"], Range([(0, 9)]))
        out = propagate_memlet(Memlet.parse("A[20 - i]"), m)
        assert out.subset.evaluate({}) == ((11, 20, 1),)

    def test_difference_of_params(self):
        m = Map("m", ["kz", "qz"], Range([(0, 6), (0, 2)]))
        out = propagate_memlet(Memlet.parse("G[kz - qz]"), m)
        assert out.subset.evaluate({}) == ((-2, 6, 1),)

    def test_clamp_to_array(self):
        Nkz = Symbol("Nkz")
        m = Map("m", ["kz", "qz"], Range([(0, Nkz - 1), (0, 2)]))
        out = propagate_memlet(Memlet.parse("G[kz - qz]"), m, array_shape=(Nkz,))
        assert out.subset.evaluate(dict(Nkz=7)) == ((0, 6, 1),)

    def test_unused_dim_unchanged(self):
        m = Map("m", ["i"], Range([(0, 3)]))
        out = propagate_memlet(Memlet.parse("A[5, i]"), m)
        assert out.subset.evaluate({})[0] == (5, 5, 1)
        assert out.subset.evaluate({})[1] == (0, 3, 1)

    def test_paper_fig7_range(self):
        """The propagated kz-qz tile range of Fig. 7 (right)."""
        tkz, tqz, skz, sqz = symbols("tkz tqz skz sqz")
        m = Map(
            "t",
            ["kz", "qz"],
            Range([
                (tkz * skz, (tkz + 1) * skz - 1),
                (tqz * sqz, (tqz + 1) * sqz - 1),
            ]),
        )
        out = propagate_memlet(Memlet.parse("G[kz - qz]"), m)
        env = dict(tkz=2, skz=4, tqz=1, sqz=3)
        b, e, _ = out.subset.evaluate(env)[0]
        # [tkz skz − (tqz+1)sqz + 1, (tkz+1)skz − tqz sqz − 1]
        assert b == 2 * 4 - (1 + 1) * 3 + 1
        assert e == (2 + 1) * 4 - 1 * 3 - 1
        # skz + sqz - 1 unique elements
        assert e - b + 1 == 4 + 3 - 1

    def test_symbolic_coefficient_assumed_positive(self):
        m = Map("m", ["i"], Range([(0, 3)]))
        out = propagate_memlet(Memlet.parse("A[i*s]"), m)
        b, e, _ = out.subset.dims[0]
        assert b.evaluate(dict(s=2)) == 0
        assert e.evaluate(dict(s=2)) == 6


class TestIndirection:
    def test_hook_applied(self):
        NA, NB = symbols("NA NB")
        ta, sa = symbols("ta sa")
        m = Map(
            "m", ["a", "b"],
            Range([(ta * sa, (ta + 1) * sa - 1), (0, NB - 1)]),
        )
        hook = neighbor_indirection_hook(NA, NB)
        out = propagate_memlet(Memlet.parse("G[__neigh__[a, b]]"), m, hooks=[hook])
        env = dict(NA=100, NB=4, ta=2, sa=10)
        bnd = out.subset.evaluate(env)[0]
        assert bnd == (max(0, 20 - 2), min(99, 30 + 2 - 1), 1)

    def test_missing_hook_raises(self):
        m = Map("m", ["a", "b"], Range([(0, 9), (0, 3)]))
        with pytest.raises(NonAffineError):
            propagate_memlet(Memlet.parse("G[__neigh__[a, b]]"), m)

    def test_hook_without_atom_param_overapproximates(self):
        NA, NB = symbols("NA NB")
        m = Map("m", ["b"], Range([(0, NB - 1)]))
        hook = neighbor_indirection_hook(NA, NB)
        out = propagate_memlet(Memlet.parse("G[__neigh__[a, b]]"), m, hooks=[hook])
        assert out.subset.evaluate(dict(NA=50, NB=4))[0] == (0, 49, 1)


class TestMultiMap:
    def test_through_nested_maps(self):
        tkz, skz, Nkz = symbols("tkz skz Nkz")
        inner = Map("in", ["kz"], Range([(tkz * skz, (tkz + 1) * skz - 1)]))
        outer = Map("out", ["tkz"], Range([(0, Nkz // skz - 1)]))
        out = propagate_through_maps(
            Memlet.parse("G[kz]"), [inner, outer], array_shape=(Nkz,)
        )
        assert out.subset.evaluate(dict(Nkz=12, skz=3)) == ((0, 11, 1),)
        assert out.accesses.evaluate(dict(Nkz=12, skz=3)) == 12


# -- property-based: propagation bounds are exact for affine accesses --------
@given(
    c1=st.integers(-3, 3).filter(lambda v: v != 0),
    c2=st.integers(-3, 3),
    off=st.integers(-5, 5),
    n1=st.integers(1, 6),
    n2=st.integers(1, 6),
)
@settings(max_examples=80, deadline=None)
def test_propagation_matches_bruteforce(c1, c2, off, n1, n2):
    m = Map("m", ["i", "j"], Range([(0, n1 - 1), (0, n2 - 1)]))
    out = propagate_memlet(Memlet.parse(f"A[{c1}*i + {c2}*j + {off}]"), m)
    values = [
        c1 * ii + c2 * jj + off for ii in range(n1) for jj in range(n2)
    ]
    b, e, _ = out.subset.evaluate({})[0]
    assert b == min(values)
    assert e == max(values)
