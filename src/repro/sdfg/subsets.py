"""Multi-dimensional symbolic index subsets (DaCe-style ``Range``).

A :class:`Range` is a list of per-dimension ``(begin, end, step)`` triples
with *inclusive* ends, mirroring DaCe's convention: ``A[0:M, k, 0:K]`` is
``Range([(0, M-1, 1), (k, k, 1), (0, K-1, 1)])``.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Mapping, Sequence, Tuple, Union

from .symbolic import Expr, ExprLike, Integer, Max, Min, Mul, compile_rows, sympify

__all__ = ["Range", "Indices"]

DimLike = Union[ExprLike, Tuple[ExprLike, ExprLike], Tuple[ExprLike, ExprLike, ExprLike]]


class Range:
    """An axis-aligned symbolic box with per-dimension strides.

    Ranges are immutable (transformations replace a range, they never
    edit one), so copies share them and the element count and text are
    computed once per range, as are its compiled evaluator and point axes.
    """

    __slots__ = ("dims", "_num_elements", "_repr", "_evaluator", "_points")

    def __init__(self, dims: Iterable[DimLike]):
        norm: List[Tuple[Expr, Expr, Expr]] = []
        for d in dims:
            if isinstance(d, tuple):
                if len(d) == 2:
                    b, e = d
                    s: ExprLike = 1
                elif len(d) == 3:
                    b, e, s = d
                else:
                    raise ValueError(f"range dimension must have 2-3 entries: {d!r}")
            else:
                b = e = d
                s = 1
            norm.append((sympify(b), sympify(e), sympify(s)))
        self.dims = tuple(norm)
        self._num_elements = None
        self._repr = None
        self._evaluator = None
        self._points = None

    def __deepcopy__(self, memo) -> "Range":
        return self

    # -- constructors ----------------------------------------------------
    @staticmethod
    def from_shape(shape: Sequence[ExprLike]) -> "Range":
        """Full range covering an array of the given shape."""
        return Range([(0, sympify(s) - 1, 1) for s in shape])

    @staticmethod
    def from_indices(indices: Sequence[ExprLike]) -> "Range":
        """Degenerate (single-point) range at the given indices."""
        return Range([(i, i, 1) for i in (sympify(x) for x in indices)])

    # -- basic queries ----------------------------------------------------
    def __len__(self) -> int:
        return len(self.dims)

    def __iter__(self):
        return iter(self.dims)

    def __getitem__(self, i: int) -> Tuple[Expr, Expr, Expr]:
        return self.dims[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Range):
            return NotImplemented
        return self.dims == other.dims

    def __hash__(self) -> int:
        return hash(self.dims)

    def dim_length(self, i: int) -> Expr:
        """Symbolic number of elements along dimension ``i``.

        The difference is expanded so tile expressions cancel:
        ``(tkz+1)*skz - tkz*skz`` simplifies to ``skz``.
        """
        b, e, s = self.dims[i]
        if s == Integer(1):
            return (e - b + 1).expand()
        return ((e - b).expand()) // s + 1

    def num_elements(self) -> Expr:
        """Symbolic total number of elements."""
        if self._num_elements is None:
            out: Expr = Integer(1)
            for i in range(len(self.dims)):
                out = Mul.make(out, self.dim_length(i))
            self._num_elements = out
        return self._num_elements

    @property
    def point_axes(self) -> Tuple[int, ...]:
        """Symbolically degenerate (``begin == end``) axes, squeezed on tasklet I/O."""
        if self._points is None:
            self._points = tuple(i for i, (b, e, _) in enumerate(self.dims) if b == e)
        return self._points

    def is_point(self) -> bool:
        return len(self.point_axes) == len(self.dims)

    @property
    def free_symbols(self) -> frozenset:
        out: frozenset = frozenset()
        for b, e, s in self.dims:
            out |= b.free_symbols | e.free_symbols | s.free_symbols
        return out

    # -- algebra -----------------------------------------------------------
    def subs(self, mapping: Mapping[str, ExprLike]) -> "Range":
        return Range(
            [
                (b.subs(mapping), e.subs(mapping), s.subs(mapping))
                for b, e, s in self.dims
            ]
        )

    def offset_by(self, offsets: Sequence[ExprLike]) -> "Range":
        """Shift every dimension: used when pushing subsets into views."""
        if len(offsets) != len(self.dims):
            raise ValueError("offset rank mismatch")
        return Range(
            [
                (b + sympify(o), e + sympify(o), s)
                for (b, e, s), o in zip(self.dims, offsets)
            ]
        )

    def cover_union(self, other: "Range") -> "Range":
        """Bounding box of two ranges (per-dimension min/max)."""
        if len(other) != len(self):
            raise ValueError("rank mismatch in cover_union")
        dims = []
        for (b1, e1, s1), (b2, e2, s2) in zip(self.dims, other.dims):
            step = s1 if s1 == s2 else Integer(1)
            dims.append((Min.make(b1, b2), Max.make(e1, e2), step))
        return Range(dims)

    def clamp_to_shape(self, shape: Sequence[ExprLike]) -> "Range":
        """Intersect with ``[0, shape)`` per dimension (symbolic min/max)."""
        if len(shape) != len(self.dims):
            raise ValueError("rank mismatch in clamp_to_shape")
        dims = []
        for (b, e, s), n in zip(self.dims, shape):
            n = sympify(n)
            dims.append((Max.make(b, 0), Min.make(e, n - 1), s))
        return Range(dims)

    def evaluate(self, env: Mapping[str, int]) -> Tuple[Tuple[int, int, int], ...]:
        """Concretize to integer triples (walks each expression)."""
        return tuple(
            (b.evaluate(env), e.evaluate(env), s.evaluate(env))
            for b, e, s in self.dims
        )

    def evaluator(self) -> Callable[[Mapping[str, int]], Tuple[Tuple[int, ...], ...]]:
        """:meth:`evaluate` compiled once per range: same triples, same errors."""
        if self._evaluator is None:
            self._evaluator = compile_rows(self.dims)
        return self._evaluator

    def to_slices(self, env: Mapping[str, int]) -> Tuple[slice, ...]:
        """Concretize to numpy slices (see :func:`as_slices`)."""
        return as_slices(self.evaluator()(env))

    def __repr__(self) -> str:
        if self._repr is None:
            parts = []
            for b, e, s in self.dims:
                if b == e:
                    parts.append(repr(b))
                elif s == Integer(1):
                    parts.append(f"{b!r}:{(e + 1)!r}")
                else:
                    parts.append(f"{b!r}:{(e + 1)!r}:{s!r}")
            self._repr = "[" + ", ".join(parts) + "]"
        return self._repr


def as_slices(triples: Iterable[Tuple[int, int, int]]) -> Tuple[slice, ...]:
    """End-inclusive triples as numpy slices.  Negative point indices wrap
    periodically (momentum axes), so a ``-1`` end maps to ``None``."""
    return tuple([slice(b, e + 1 if e != -1 else None, s) for b, e, s in triples])


class Indices:
    """Convenience constructor: ``Indices(i, j)`` == point range ``[i, j]``."""

    def __new__(cls, *indices: ExprLike) -> Range:  # type: ignore[misc]
        return Range.from_indices(indices)
