"""Unit tests for the symbolic expression engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sdfg.symbolic import (
    Add,
    FloorDiv,
    IndirectAccess,
    Integer,
    Max,
    Min,
    Mod,
    Mul,
    NonAffineError,
    Symbol,
    affine_coefficients,
    symbols,
    sympify,
)


class TestConstruction:
    def test_sympify_int(self):
        assert sympify(5) == Integer(5)

    def test_sympify_str(self):
        assert sympify("x") == Symbol("x")

    def test_sympify_passthrough(self):
        x = Symbol("x")
        assert sympify(x) is x

    def test_sympify_rejects_float(self):
        with pytest.raises(TypeError):
            sympify(2.5)

    def test_symbols_helper(self):
        a, b = symbols("a b")
        assert a == Symbol("a") and b == Symbol("b")

    def test_symbols_with_commas(self):
        a, b = symbols("a, b")
        assert b.name == "b"

    def test_invalid_symbol_name(self):
        with pytest.raises(ValueError):
            Symbol("")

    def test_immutability(self):
        x = Symbol("x")
        with pytest.raises(AttributeError):
            x.name = "y"


class TestCanonicalization:
    def test_constant_folding_add(self):
        assert Symbol("x") + 2 + 3 == Symbol("x") + 5

    def test_constant_folding_mul(self):
        assert (2 * Symbol("x")) * 3 == 6 * Symbol("x")

    def test_like_terms_collect(self):
        x = Symbol("x")
        assert x + x == 2 * x

    def test_like_terms_cancel(self):
        x = Symbol("x")
        assert x - x == Integer(0)

    def test_mul_by_zero(self):
        assert 0 * Symbol("x") == Integer(0)

    def test_mul_by_one(self):
        x = Symbol("x")
        assert 1 * x == x

    def test_add_zero(self):
        x = Symbol("x")
        assert x + 0 == x

    def test_commutativity_via_canonical_form(self):
        x, y = symbols("x y")
        assert x * y == y * x
        assert x + y == y + x

    def test_nested_flattening(self):
        x, y, z = symbols("x y z")
        assert (x + (y + z)) == ((x + y) + z)

    def test_neg(self):
        x = Symbol("x")
        assert -x == -1 * x

    def test_rsub(self):
        x = Symbol("x")
        assert (5 - x).evaluate({"x": 2}) == 3


class TestEvaluation:
    def test_affine_eval(self):
        x, y = symbols("x y")
        e = 3 * x - 2 * y + 7
        assert e.evaluate(dict(x=4, y=5)) == 9

    def test_floordiv_eval(self):
        e = Symbol("n") // 4
        assert e.evaluate(dict(n=11)) == 2

    def test_floordiv_folds_constants(self):
        assert FloorDiv.make(Integer(17), Integer(5)) == Integer(3)

    def test_floordiv_by_one(self):
        x = Symbol("x")
        assert x // 1 == x

    def test_floordiv_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            FloorDiv.make(Symbol("x"), Integer(0))

    def test_mod_eval(self):
        e = Symbol("n") % 5
        assert e.evaluate(dict(n=13)) == 3

    def test_mod_negative_python_semantics(self):
        e = Symbol("n") % 5
        assert e.evaluate(dict(n=-3)) == 2

    def test_unbound_symbol_raises(self):
        with pytest.raises(KeyError):
            Symbol("x").evaluate({})

    def test_min_max_eval(self):
        x = Symbol("x")
        assert Min.make(x, 3).evaluate(dict(x=7)) == 3
        assert Max.make(x, 3).evaluate(dict(x=7)) == 7

    def test_min_dedup(self):
        x = Symbol("x")
        assert Min.make(x, x) == x

    def test_min_constant_fold(self):
        assert Min.make(3, 5, 1) == Integer(1)

    def test_free_symbols(self):
        x, y = symbols("x y")
        assert (x * y + 3).free_symbols == {"x", "y"}


class TestSubstitution:
    def test_subs_symbol(self):
        x, y = symbols("x y")
        assert (x + y).subs({"x": 3}) == y + 3

    def test_subs_with_expr(self):
        x, y, z = symbols("x y z")
        assert (x * 2).subs({"x": y + z}) == 2 * y + 2 * z or (x * 2).subs(
            {"x": y + z}
        ).expand() == (2 * y + 2 * z)

    def test_subs_in_min(self):
        x = Symbol("x")
        assert Min.make(x, 10).subs({"x": 3}) == Integer(3)

    def test_subs_chain(self):
        x, y = symbols("x y")
        e = (x - y).subs({"x": 5}).subs({"y": 2})
        assert e == Integer(3)


class TestExpand:
    def test_distributes(self):
        x, y, z = symbols("x y z")
        e = (x * (y + z)).expand()
        assert e == x * y + x * z

    def test_nested_distribution(self):
        x, y = symbols("x y")
        e = ((x + 1) * (y + 2)).expand()
        assert e.evaluate(dict(x=3, y=4)) == 4 * 6


class TestAffineCoefficients:
    def test_simple(self):
        x, y = symbols("x y")
        coeffs, const = affine_coefficients(3 * x - y + 7, ["x", "y"])
        assert coeffs["x"] == Integer(3)
        assert coeffs["y"] == Integer(-1)
        assert const == Integer(7)

    def test_symbolic_coefficient(self):
        tkz, skz = symbols("tkz skz")
        coeffs, const = affine_coefficients(tkz * skz + 1, ["tkz"])
        assert coeffs["tkz"] == skz
        assert const == Integer(1)

    def test_param_absent(self):
        x = Symbol("x")
        coeffs, const = affine_coefficients(x + 5, ["y"])
        assert coeffs == {}
        assert const == x + 5

    def test_nonlinear_raises(self):
        x = Symbol("x")
        with pytest.raises(NonAffineError):
            affine_coefficients(x * x, ["x"])

    def test_mixed_params_raise(self):
        x, y = symbols("x y")
        with pytest.raises(NonAffineError):
            affine_coefficients(x * y, ["x", "y"])

    def test_paper_expression(self):
        # tkz*skz - (tqz+1)*sqz + 1, over the tile symbols
        tkz, tqz, skz, sqz = symbols("tkz tqz skz sqz")
        e = tkz * skz - (tqz + 1) * sqz + 1
        coeffs, const = affine_coefficients(e, ["tkz", "tqz"])
        assert coeffs["tkz"] == skz
        assert coeffs["tqz"] == -1 * sqz
        assert const == 1 - sqz


class TestPrintedText:
    """Equality and hashing compare the printed text, so two different
    expressions must never print alike."""

    def test_nested_floordiv_stays_apart(self):
        a, b, c = symbols("a b c")
        left = FloorDiv.make(FloorDiv.make(a, b), c)
        right = FloorDiv.make(a, FloorDiv.make(b, c))
        assert left != right
        assert (right - left).evaluate(dict(a=7, b=5, c=2)) == 3

    def test_nested_mod_denominator_stays_apart(self):
        a, b, c = symbols("a b c")
        assert Mod.make(Mod.make(a, b), c) != Mod.make(a, Mod.make(b, c))

    def test_quotient_factor_in_product(self):
        a, b, c = symbols("a b c")
        product = a * FloorDiv.make(b, c)
        assert product != FloorDiv.make(a * b, c)
        assert repr(product) == "a*(b//c)"
        assert repr(-FloorDiv.make(a, b)) == "-(a//b)"

    def test_negative_numerator_reads_back(self):
        # unwrapped, ``... -3//x`` would read as ``... - (3//x)``
        a, b, c, x = symbols("a b c x")
        e = FloorDiv.make(a + b, c) + FloorDiv.make(-3, x)
        env = dict(a=1, b=2, c=2, x=2)
        assert eval(repr(e), {}, dict(env)) == e.evaluate(env) == -1


class TestIndirectAccess:
    def test_evaluate_via_table(self):
        import numpy as np

        f = IndirectAccess("t", (Symbol("a"), Symbol("b")))
        env = {"a": 1, "b": 2, "__tables__": {"t": np.arange(12).reshape(3, 4)}}
        assert f.evaluate(env) == 6

    def test_missing_table_raises(self):
        f = IndirectAccess("t", (Integer(0),))
        with pytest.raises(KeyError):
            f.evaluate({"__tables__": {}})

    def test_subs_into_indices(self):
        f = IndirectAccess("t", (Symbol("a"),))
        g = f.subs({"a": 3})
        assert g.indices[0] == Integer(3)

    def test_free_symbols(self):
        f = IndirectAccess("t", (Symbol("a"), Symbol("b") + 1))
        assert f.free_symbols == {"a", "b"}


# -- property-based ----------------------------------------------------------
_small_ints = st.integers(min_value=-20, max_value=20)


@given(a=_small_ints, b=_small_ints, c=_small_ints, x=_small_ints, y=_small_ints)
@settings(max_examples=60, deadline=None)
def test_affine_expression_evaluates_like_python(a, b, c, x, y):
    X, Y = symbols("X Y")
    expr = a * X + b * Y + c
    assert expr.evaluate(dict(X=x, Y=y)) == a * x + b * y + c


@given(a=_small_ints, b=_small_ints, x=_small_ints)
@settings(max_examples=60, deadline=None)
def test_expand_preserves_value(a, b, x):
    X = Symbol("X")
    expr = (X + a) * (X + b)
    assert expr.expand().evaluate(dict(X=x)) == (x + a) * (x + b)


@given(
    coeffs=st.lists(_small_ints, min_size=1, max_size=4),
    vals=st.lists(_small_ints, min_size=4, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_affine_extraction_roundtrip(coeffs, vals):
    names = ["p0", "p1", "p2", "p3"][: len(coeffs)]
    expr = sympify(7)
    for c, n in zip(coeffs, names):
        expr = expr + c * Symbol(n)
    extracted, const = affine_coefficients(expr, names)
    env = dict(zip(names, vals))
    reconstructed = const.evaluate(env) + sum(
        extracted.get(n, Integer(0)).evaluate(env) * env[n] for n in names
    )
    assert reconstructed == expr.evaluate(env)
