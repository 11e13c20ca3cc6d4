"""Unit tests for symbolic ranges and memlets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sdfg import Indices, Memlet, Range, symbols
from repro.sdfg.symbolic import (
    Add,
    FloorDiv,
    IndirectAccess,
    Integer,
    Max,
    Min,
    Mod,
    Mul,
    Symbol,
)


class TestRangeConstruction:
    def test_from_shape(self):
        M, N = symbols("M N")
        r = Range.from_shape((M, N))
        assert r.dims[0] == (Integer(0), M - 1, Integer(1))

    def test_from_indices_is_point(self):
        r = Range.from_indices((Symbol("i"), 3))
        assert r.is_point()

    def test_indices_helper(self):
        r = Indices("i", "j")
        assert isinstance(r, Range) and len(r) == 2

    def test_scalar_dim_becomes_point(self):
        r = Range([5])
        assert r.dims[0] == (Integer(5), Integer(5), Integer(1))

    def test_two_tuple_default_step(self):
        r = Range([(0, 9)])
        assert r.dims[0][2] == Integer(1)

    def test_bad_tuple_raises(self):
        with pytest.raises(ValueError):
            Range([(1, 2, 3, 4)])

    def test_equality_and_hash(self):
        a, b = Range([(0, 5)]), Range([(0, 5)])
        assert a == b and hash(a) == hash(b)


class TestRangeQueries:
    def test_dim_length(self):
        N = Symbol("N")
        r = Range([(0, N - 1)])
        assert r.dim_length(0) == N

    def test_dim_length_strided(self):
        r = Range([(0, 9, 2)])
        assert r.dim_length(0).evaluate({}) == 5

    def test_num_elements(self):
        M, N = symbols("M N")
        r = Range.from_shape((M, N))
        assert r.num_elements().evaluate(dict(M=3, N=4)) == 12

    def test_free_symbols(self):
        r = Range([(Symbol("a"), Symbol("b"))])
        assert r.free_symbols == {"a", "b"}


class TestRangeAlgebra:
    def test_subs(self):
        i = Symbol("i")
        r = Range([(i, i + 2)]).subs({"i": 4})
        assert r.evaluate({}) == ((4, 6, 1),)

    def test_offset_by(self):
        r = Range([(0, 5)]).offset_by([3])
        assert r.evaluate({}) == ((3, 8, 1),)

    def test_offset_rank_mismatch(self):
        with pytest.raises(ValueError):
            Range([(0, 5)]).offset_by([1, 2])

    def test_cover_union(self):
        a = Range([(0, 5)])
        b = Range([(3, 9)])
        u = a.cover_union(b)
        assert u.evaluate({}) == ((0, 9, 1),)

    def test_cover_union_symbolic(self):
        x = Symbol("x")
        u = Range([(x, x + 1)]).cover_union(Range([(0, 5)]))
        assert u.evaluate(dict(x=3)) == ((0, 5, 1),)

    def test_clamp_to_shape(self):
        r = Range([(-3, 100)]).clamp_to_shape([10])
        assert r.evaluate({}) == ((0, 9, 1),)

    def test_clamp_rank_mismatch(self):
        with pytest.raises(ValueError):
            Range([(0, 5)]).clamp_to_shape([4, 4])


class TestSlices:
    def test_to_slices_basic(self):
        r = Range([(1, 3), (0, 0)])
        assert r.to_slices({}) == (slice(1, 4, 1), slice(0, 1, 1))

    def test_negative_point_wraps(self):
        # index -1 must select the last element, not an empty slice
        r = Range([(-1, -1)])
        arr = np.arange(5)
        assert arr[r.to_slices({})][0] == 4

    def test_negative_point_minus_two(self):
        r = Range([(-2, -2)])
        arr = np.arange(5)
        assert arr[r.to_slices({})][0] == 3

    def test_slice_selects_expected_block(self):
        i = Symbol("i")
        r = Range([(i, i + 1), (0, 2)])
        arr = np.arange(20).reshape(4, 5)
        block = arr[r.to_slices(dict(i=1))]
        assert block.shape == (2, 3)
        assert block[0, 0] == 5


class TestMemlet:
    def test_default_accesses_is_volume(self):
        m = Memlet("A", Range([(0, 3), (0, 1)]))
        assert m.accesses.evaluate({}) == 8

    def test_simple_constructor(self):
        m = Memlet.simple("A", "i", "j")
        assert m.subset.is_point()

    def test_full_constructor(self):
        N = Symbol("N")
        m = Memlet.full("A", (N,))
        assert m.subset.dim_length(0) == N

    def test_bad_wcr_raises(self):
        with pytest.raises(ValueError):
            Memlet("A", Range([(0, 1)]), wcr="xor")

    def test_wcr_function_sum(self):
        m = Memlet("A", Range([(0, 1)]), wcr="sum")
        assert m.wcr_function()(2, 3) == 5

    def test_subs(self):
        m = Memlet.simple("A", Symbol("i")).subs({"i": 7})
        assert m.subset.evaluate({}) == ((7, 7, 1),)

    def test_volume_bytes(self):
        m = Memlet("A", Range([(0, 9)]))
        assert m.volume_bytes({}, 16) == 160

    def test_repr_mentions_wcr(self):
        m = Memlet("A", Range([(0, 1)]), wcr="sum")
        assert "Sum" in repr(m)


# -- property-based -----------------------------------------------------------
@given(
    b=st.integers(0, 20),
    n=st.integers(1, 20),
    s=st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_dim_length_matches_slice_size(b, n, s):
    e = b + n - 1
    r = Range([(b, e, s)])
    arr = np.zeros(100)
    assert len(arr[r.to_slices({})]) == r.dim_length(0).evaluate({})


@given(
    lo1=st.integers(-10, 10), n1=st.integers(1, 10),
    lo2=st.integers(-10, 10), n2=st.integers(1, 10),
)
@settings(max_examples=60, deadline=None)
def test_cover_union_contains_both(lo1, n1, lo2, n2):
    a = Range([(lo1, lo1 + n1)])
    b = Range([(lo2, lo2 + n2)])
    u = a.cover_union(b)
    (ub, ue, _), = u.evaluate({})
    assert ub <= lo1 and ub <= lo2
    assert ue >= lo1 + n1 and ue >= lo2 + n2


# -- the compiled evaluator ----------------------------------------------------

_SYMS = ("x", "y", "z")
_TABLE = np.array([3, -1, 0, 7, -4, 2, 5])


def _pair(f):
    return lambda ab: f(*ab)


def _exprs():
    """Every ``Expr`` kind, canonical (``make``) and raw (constructor)
    forms; raw ``FloorDiv``/``Mod`` may divide by zero and table reads
    may fall outside the table, so errors are generated too."""
    leaves = st.one_of(
        st.integers(-3, 3).map(Integer), st.sampled_from(_SYMS).map(Symbol)
    )

    def grow(sub):
        ab = st.tuples(sub, sub)
        return st.one_of(
            ab.map(_pair(Add.make)), ab.map(Add), ab.map(_pair(Mul.make)),
            ab.map(Mul), ab.map(_pair(FloorDiv)), ab.map(_pair(Mod)),
            ab.map(_pair(Min.make)), ab.map(Max), ab.map(_pair(Max.make)),
            ab.map(Min), sub.map(lambda i: IndirectAccess("T", (i,))),
            sub.map(lambda i: IndirectAccess("T", (Mod.make(i, _TABLE.size),))),
        )

    return st.recursive(leaves, grow, max_leaves=8)


def _outcome(f, env):
    try:
        return "ok", f(env)
    except Exception as exc:  # the same error, or the property fails
        return "error", type(exc), str(exc)


@given(
    dims=st.lists(st.tuples(_exprs(), _exprs(), _exprs()), max_size=3),
    env=st.fixed_dictionaries({s: st.integers(-3, 3) for s in _SYMS}),
    unbound=st.sampled_from((None,) * 4 + _SYMS + ("__tables__",)),
)
@settings(max_examples=300, deadline=None)
def test_evaluator_equals_evaluate(dims, env, unbound):
    """``Range.evaluator()`` returns ``Range.evaluate``'s triples (or its
    error: unbound symbols/tables, division by zero, an index outside the
    table), and ``to_slices`` is those triples end-exclusive, a ``-1``
    end open (``None``)."""
    env["__tables__"] = {"T": _TABLE}
    env.pop(unbound, None)
    r = Range(dims)
    expected = _outcome(r.evaluate, env)
    assert _outcome(r.evaluator(), env) == expected
    if expected[0] == "ok":
        assert r.to_slices(env) == tuple(
            slice(b, None if e == -1 else e + 1, s) for b, e, s in expected[1]
        )


@given(k=st.integers(-4, 4))
@settings(max_examples=20, deadline=None)
def test_point_slices_wrap_periodically(k):
    """A point index ``k - 1`` selects ``arr[k - 1]``: negative values
    wrap, and ``-1`` (end ``None``) is the last element, not an empty slice."""
    r = Range([(Symbol("k") - 1, Symbol("k") - 1)])
    arr = np.arange(10)
    sl = r.to_slices({"k": k})
    assert arr[sl].tolist() == [arr[k - 1]]
    assert (sl[0].stop is None) == (k == 0)
