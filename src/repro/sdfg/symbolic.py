"""Symbolic integer expressions for SDFG memlets and array shapes.

A small, self-contained computer-algebra layer: enough to express memlet
subsets such as ``tkz*skz - (tqz+1)*sqz + 1`` and array shapes such as
``NA*Norb``, to substitute and evaluate them, and to extract affine
coefficients for memlet propagation (see :mod:`repro.sdfg.propagation`).

Expressions are immutable and hashable.  Construction performs light
canonicalization (constant folding, flattening of nested sums/products,
collection of like terms), which keeps propagated expressions readable
without implementing a full CAS.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Tuple, Union

__all__ = [
    "Expr",
    "Integer",
    "Symbol",
    "Add",
    "Mul",
    "FloorDiv",
    "Mod",
    "Min",
    "Max",
    "IndirectAccess",
    "NonAffineError",
    "compile_rows",
    "sympify",
    "symbols",
    "affine_coefficients",
]

ExprLike = Union["Expr", int, str]


class NonAffineError(ValueError):
    """Raised when affine coefficient extraction meets a non-affine term."""


def sympify(value: ExprLike) -> "Expr":
    """Coerce an int, symbol name, or expression into an :class:`Expr`."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int,)):
        return Integer(int(value))
    if isinstance(value, str):
        return Symbol(value)
    raise TypeError(f"cannot sympify {value!r} of type {type(value).__name__}")


def symbols(names: str) -> Tuple["Symbol", ...]:
    """Create several symbols at once: ``Nkz, NE = symbols("Nkz NE")``."""
    return tuple(Symbol(n) for n in names.replace(",", " ").split())


class Expr:
    """Base class for symbolic integer expressions."""

    __slots__ = ()

    # Expressions are immutable: copying can share them.
    def __copy__(self) -> "Expr":
        return self

    def __deepcopy__(self, memo) -> "Expr":
        return self

    # -- interface -------------------------------------------------------
    @property
    def free_symbols(self) -> frozenset:
        raise NotImplementedError

    def subs(self, mapping: Mapping[str, ExprLike]) -> "Expr":
        """Substitute symbols by name; values are sympified."""
        raise NotImplementedError

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate to an integer given bindings for all free symbols."""
        raise NotImplementedError

    def sort_key(self) -> str:
        return repr(self)

    # -- python protocol -------------------------------------------------
    def __add__(self, other: ExprLike) -> "Expr":
        return Add.make(self, sympify(other))

    def __radd__(self, other: ExprLike) -> "Expr":
        return Add.make(sympify(other), self)

    def __sub__(self, other: ExprLike) -> "Expr":
        return Add.make(self, Mul.make(Integer(-1), sympify(other)))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return Add.make(sympify(other), Mul.make(Integer(-1), self))

    def __mul__(self, other: ExprLike) -> "Expr":
        return Mul.make(self, sympify(other))

    def __rmul__(self, other: ExprLike) -> "Expr":
        return Mul.make(sympify(other), self)

    def __floordiv__(self, other: ExprLike) -> "Expr":
        return FloorDiv.make(self, sympify(other))

    def __rfloordiv__(self, other: ExprLike) -> "Expr":
        return FloorDiv.make(sympify(other), self)

    def __mod__(self, other: ExprLike) -> "Expr":
        return Mod.make(self, sympify(other))

    def __neg__(self) -> "Expr":
        return Mul.make(Integer(-1), self)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, str)):
            other = sympify(other)
        if not isinstance(other, Expr):
            return NotImplemented
        return repr(self) == repr(other)

    def __hash__(self) -> int:
        return hash(repr(self))

    # -- helpers ---------------------------------------------------------
    def maybe_int(self):
        """Return the integer value if constant, else ``None``."""
        if isinstance(self, Integer):
            return self.value
        return None

    def expand(self) -> "Expr":
        """Distribute products over sums (used for affine analysis)."""
        return self


class Integer(Expr):
    """A literal integer."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        object.__setattr__(self, "value", int(value))

    def __setattr__(self, *a):  # immutability
        raise AttributeError("Integer is immutable")

    @property
    def free_symbols(self) -> frozenset:
        return frozenset()

    def subs(self, mapping) -> Expr:
        return self

    def evaluate(self, env) -> int:
        return self.value

    def __repr__(self) -> str:
        return str(self.value)


ZERO = Integer(0)
ONE = Integer(1)


class Symbol(Expr):
    """A named integer symbol (e.g. ``Nkz`` or a map parameter ``kz``)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise ValueError(f"invalid symbol name: {name!r}")
        object.__setattr__(self, "name", name)

    def __setattr__(self, *a):
        raise AttributeError("Symbol is immutable")

    @property
    def free_symbols(self) -> frozenset:
        return frozenset({self.name})

    def subs(self, mapping) -> Expr:
        if self.name in mapping:
            return sympify(mapping[self.name])
        return self

    def evaluate(self, env) -> int:
        try:
            return int(env[self.name])
        except KeyError:
            raise KeyError(f"unbound symbol {self.name!r}") from None

    def __repr__(self) -> str:
        return self.name


def _flatten(cls, args: Iterable[Expr]):
    out = []
    for a in args:
        if isinstance(a, cls):
            out.extend(a.args)
        else:
            out.append(a)
    return out


class Add(Expr):
    """Canonicalized sum of terms."""

    __slots__ = ("args",)

    def __init__(self, args: Tuple[Expr, ...]):
        object.__setattr__(self, "args", tuple(args))

    def __setattr__(self, *a):
        raise AttributeError("Add is immutable")

    @staticmethod
    def make(*args: Expr) -> Expr:
        terms = _flatten(Add, [sympify(a) for a in args])
        # Collect like terms: key = canonical non-constant part.
        const = 0
        coeffs: Dict[str, Tuple[int, Expr]] = {}
        for t in terms:
            if isinstance(t, Integer):
                const += t.value
                continue
            c, base = _split_coefficient(t)
            key = repr(base)
            if key in coeffs:
                coeffs[key] = (coeffs[key][0] + c, base)
            else:
                coeffs[key] = (c, base)
        new_terms = []
        for _, (c, base) in sorted(coeffs.items()):
            if c == 0:
                continue
            if c == 1:
                new_terms.append(base)
            else:
                new_terms.append(Mul.make(Integer(c), base))
        if const != 0:
            new_terms.append(Integer(const))
        if not new_terms:
            return ZERO
        if len(new_terms) == 1:
            return new_terms[0]
        return Add(tuple(new_terms))

    @property
    def free_symbols(self) -> frozenset:
        out: frozenset = frozenset()
        for a in self.args:
            out |= a.free_symbols
        return out

    def subs(self, mapping) -> Expr:
        return Add.make(*(a.subs(mapping) for a in self.args))

    def evaluate(self, env) -> int:
        return sum(a.evaluate(env) for a in self.args)

    def expand(self) -> Expr:
        return Add.make(*(a.expand() for a in self.args))

    def __repr__(self) -> str:
        parts = []
        for i, a in enumerate(self.args):
            s = repr(a)
            if i > 0 and not s.startswith("-"):
                parts.append("+")
            parts.append(s)
        return " ".join(parts).replace("+ -", "- ")


def _split_coefficient(expr: Expr) -> Tuple[int, Expr]:
    """Split ``expr`` into (integer coefficient, remaining factor)."""
    if isinstance(expr, Mul):
        const = 1
        rest = []
        for f in expr.args:
            if isinstance(f, Integer):
                const *= f.value
            else:
                rest.append(f)
        if not rest:
            return const, ONE
        if len(rest) == 1:
            return const, rest[0]
        return const, Mul(tuple(rest))
    return 1, expr


class Mul(Expr):
    """Canonicalized product of factors."""

    __slots__ = ("args",)

    def __init__(self, args: Tuple[Expr, ...]):
        object.__setattr__(self, "args", tuple(args))

    def __setattr__(self, *a):
        raise AttributeError("Mul is immutable")

    @staticmethod
    def make(*args: Expr) -> Expr:
        factors = _flatten(Mul, [sympify(a) for a in args])
        const = 1
        rest = []
        for f in factors:
            if isinstance(f, Integer):
                const *= f.value
            else:
                rest.append(f)
        if const == 0:
            return ZERO
        rest.sort(key=lambda e: e.sort_key())
        if not rest:
            return Integer(const)
        if const != 1:
            rest = [Integer(const)] + rest
        if len(rest) == 1:
            return rest[0]
        return Mul(tuple(rest))

    @property
    def free_symbols(self) -> frozenset:
        out: frozenset = frozenset()
        for a in self.args:
            out |= a.free_symbols
        return out

    def subs(self, mapping) -> Expr:
        return Mul.make(*(a.subs(mapping) for a in self.args))

    def evaluate(self, env) -> int:
        out = 1
        for a in self.args:
            out *= a.evaluate(env)
        return out

    def expand(self) -> Expr:
        factors = [a.expand() for a in self.args]
        # Distribute over the first Add found, recursively.
        for i, f in enumerate(factors):
            if isinstance(f, Add):
                others = factors[:i] + factors[i + 1 :]
                return Add.make(
                    *(Mul.make(t, *others).expand() for t in f.args)
                )
        return Mul.make(*factors)

    def __repr__(self) -> str:
        # a quotient factor is wrapped: ``a*b//c`` would read as ``(a*b)//c``
        parts = [_wrap(a, (Add, FloorDiv, Mod)) for a in self.args]
        # "-1*x" prints as "-x"
        if parts and parts[0] == "-1":
            rest = "*".join(parts[1:])
            return f"-{rest}"
        return "*".join(parts)


def _wrap(e: Expr, kinds) -> str:
    s = repr(e)
    return f"({s})" if isinstance(e, kinds) else s


def _quotient_repr(e: Expr, op: str) -> str:
    """``num op den``, parenthesized so the text reads back as ``e`` and no
    two expressions print alike: Python reads ``a//b//c`` as ``(a//b)//c``
    and ``x -3//y`` as ``x - (3//y)``, so a quotient denominator and a
    negative numerator are wrapped (``a//(b//c)``, ``(-3)//y``)."""
    num = _wrap(e.num, (Add, Mul))
    num = f"({num})" if num.startswith("-") else num
    return f"{num}{op}{_wrap(e.den, (Add, Mul, FloorDiv, Mod))}"


class FloorDiv(Expr):
    """Integer (floor) division."""

    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("FloorDiv is immutable")

    @staticmethod
    def make(num: Expr, den: Expr) -> Expr:
        num, den = sympify(num), sympify(den)
        if isinstance(den, Integer):
            if den.value == 0:
                raise ZeroDivisionError("symbolic division by zero")
            if den.value == 1:
                return num
            if isinstance(num, Integer):
                return Integer(num.value // den.value)
        return FloorDiv(num, den)

    @property
    def free_symbols(self) -> frozenset:
        return self.num.free_symbols | self.den.free_symbols

    def subs(self, mapping) -> Expr:
        return FloorDiv.make(self.num.subs(mapping), self.den.subs(mapping))

    def evaluate(self, env) -> int:
        return self.num.evaluate(env) // self.den.evaluate(env)

    def __repr__(self) -> str:
        return _quotient_repr(self, "//")


class Mod(Expr):
    """Modulo (Python semantics: result has the sign of the divisor)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("Mod is immutable")

    @staticmethod
    def make(num: Expr, den: Expr) -> Expr:
        num, den = sympify(num), sympify(den)
        if isinstance(den, Integer):
            if den.value == 0:
                raise ZeroDivisionError("symbolic modulo by zero")
            if isinstance(num, Integer):
                return Integer(num.value % den.value)
        return Mod(num, den)

    @property
    def free_symbols(self) -> frozenset:
        return self.num.free_symbols | self.den.free_symbols

    def subs(self, mapping) -> Expr:
        return Mod.make(self.num.subs(mapping), self.den.subs(mapping))

    def evaluate(self, env) -> int:
        return self.num.evaluate(env) % self.den.evaluate(env)

    def __repr__(self) -> str:
        return _quotient_repr(self, "%")


class _MinMax(Expr):
    __slots__ = ("args",)
    _fold = None
    _name = ""

    def __init__(self, args: Tuple[Expr, ...]):
        object.__setattr__(self, "args", tuple(args))

    def __setattr__(self, *a):
        raise AttributeError(f"{self._name} is immutable")

    @classmethod
    def make(cls, *args: ExprLike) -> Expr:
        exprs = _flatten(cls, [sympify(a) for a in args])
        # Deduplicate and fold constants.
        fold = cls._fold
        const = None
        seen = {}
        for e in exprs:
            if isinstance(e, Integer):
                const = e.value if const is None else fold(const, e.value)
            else:
                seen.setdefault(repr(e), e)
        rest = [seen[k] for k in sorted(seen)]
        if const is not None:
            rest.append(Integer(const))
        if len(rest) == 1:
            return rest[0]
        return cls(tuple(rest))

    @property
    def free_symbols(self) -> frozenset:
        out: frozenset = frozenset()
        for a in self.args:
            out |= a.free_symbols
        return out

    def subs(self, mapping) -> Expr:
        return type(self).make(*(a.subs(mapping) for a in self.args))

    def evaluate(self, env) -> int:
        fold = type(self)._fold
        return fold(a.evaluate(env) for a in self.args)

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self._name}({inner})"


class Min(_MinMax):
    __slots__ = ()
    _fold = staticmethod(min)
    _name = "Min"


class Max(_MinMax):
    __slots__ = ()
    _fold = staticmethod(max)
    _name = "Max"


class IndirectAccess(Expr):
    """An index obtained through a lookup table, e.g. ``f = neigh_idx[a, b]``.

    The paper (§4.1) notes that DaCe cannot propagate such indices
    automatically; a performance engineer supplies an approximation.  We
    model the indirection explicitly: evaluation reads the table from the
    environment (``env["__tables__"][table]``), while propagation consults a
    user-provided hook (see :mod:`repro.sdfg.propagation`).
    """

    __slots__ = ("table", "indices")

    def __init__(self, table: str, indices: Tuple[Expr, ...]):
        object.__setattr__(self, "table", table)
        object.__setattr__(
            self, "indices", tuple(sympify(i) for i in indices)
        )

    def __setattr__(self, *a):
        raise AttributeError("IndirectAccess is immutable")

    @property
    def free_symbols(self) -> frozenset:
        out = frozenset()
        for i in self.indices:
            out |= i.free_symbols
        return out

    def subs(self, mapping) -> Expr:
        return IndirectAccess(
            self.table, tuple(i.subs(mapping) for i in self.indices)
        )

    def evaluate(self, env) -> int:
        tables = env.get("__tables__", {})
        if self.table not in tables:
            raise KeyError(f"indirection table {self.table!r} not bound")
        idx = tuple(i.evaluate(env) for i in self.indices)
        return int(tables[self.table][idx])

    def __repr__(self) -> str:
        inner = ", ".join(repr(i) for i in self.indices)
        return f"{self.table}[{inner}]"


def _pycode(e: Expr) -> str:
    """``e`` as a Python expression over ``env`` and the tables ``T``."""
    if isinstance(e, Integer):
        return f"({e.value})"
    if isinstance(e, Symbol):
        return f"int(env[{e.name!r}])"
    if isinstance(e, IndirectAccess):
        return f"int(T[{e.table!r}][({''.join(_pycode(i) + ', ' for i in e.indices)})])"
    if isinstance(e, (FloorDiv, Mod)):
        op = "//" if isinstance(e, FloorDiv) else "%"
        return f"({_pycode(e.num)} {op} {_pycode(e.den)})"
    if not isinstance(e, (Add, Mul, _MinMax)):
        raise TypeError(f"cannot compile {type(e).__name__}")
    fold = {Add: "sum", Mul: "prod"}.get(type(e)) or e._name.lower()
    return f"{fold}(({''.join(_pycode(a) + ', ' for a in e.args)}))"


def compile_rows(rows: Tuple[Tuple[Expr, ...], ...]):
    """One function ``f(env)`` returning ``rows`` evaluated, as a tuple of
    tuples: :meth:`Expr.evaluate`'s integer arithmetic, compiled once
    instead of walking each tree per call.  If the compiled form raises
    (an unbound symbol or table, say), the tree walk runs and raises its
    own error."""
    body = "".join(f"({''.join(_pycode(e) + ', ' for e in row)}), " for row in rows)
    scope = {"rows": rows, "prod": math.prod}
    exec(
        "def f(env):\n"
        "    try:\n"
        "        T = env.get('__tables__', {})\n"
        f"        return ({body})\n"
        "    except Exception:\n"
        "        return tuple(tuple(e.evaluate(env) for e in row) for row in rows)\n",
        scope,
    )
    return scope["f"]


def affine_coefficients(
    expr: ExprLike, params: Iterable[str]
) -> Tuple[Dict[str, Expr], Expr]:
    """Decompose ``expr`` as ``sum(coeff[p] * p) + const`` over ``params``.

    Raises :class:`NonAffineError` if any param appears nonlinearly, inside
    a floor division / modulo / min / max, or through an indirection.
    """
    expr = sympify(expr).expand()
    params = set(params)
    coeffs: Dict[str, Expr] = {}
    const_terms = []

    terms = expr.args if isinstance(expr, Add) else (expr,)
    for term in terms:
        hit = term.free_symbols & params
        if not hit:
            const_terms.append(term)
            continue
        if len(hit) > 1:
            raise NonAffineError(f"term {term!r} mixes parameters {hit}")
        (p,) = hit
        # term must be coeff * p with coeff free of params
        if isinstance(term, Symbol):
            coeff: Expr = ONE
        elif isinstance(term, Mul):
            coeff_factors = []
            p_count = 0
            for f in term.args:
                if isinstance(f, Symbol) and f.name == p:
                    p_count += 1
                elif p in f.free_symbols:
                    raise NonAffineError(f"nonlinear use of {p} in {term!r}")
                else:
                    coeff_factors.append(f)
            if p_count != 1:
                raise NonAffineError(f"nonlinear use of {p} in {term!r}")
            coeff = Mul.make(*coeff_factors) if coeff_factors else ONE
        else:
            raise NonAffineError(f"non-affine term {term!r}")
        coeffs[p] = Add.make(coeffs.get(p, ZERO), coeff)
        if p in coeffs and coeffs[p] == ZERO:
            del coeffs[p]
    const = Add.make(*const_terms) if const_terms else ZERO
    return coeffs, const
