"""Memlets: explicit units of data movement between SDFG nodes.

A memlet names the data container it moves, the subset of that container,
the (symbolic) number of accesses it performs, and an optional
write-conflict resolution (``wcr``) such as ``"sum"`` for the ``CR: Sum``
accumulations in the paper's figures.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .subsets import Range, _parse_subscript
from .symbolic import Expr, ExprLike, sympify

__all__ = ["Memlet"]

_WCR_FUNCS = {
    "sum": lambda old, new: old + new,
    "max": lambda old, new: __import__("numpy").maximum(old, new),
    "min": lambda old, new: __import__("numpy").minimum(old, new),
}
#: ``repr`` spelling (``(CR: Sum)``) -> wcr name
_WCR_NAMES = {name.capitalize(): name for name in _WCR_FUNCS}


class Memlet:
    """Data movement descriptor attached to an SDFG edge.

    Parameters
    ----------
    data:
        Name of the array container being accessed.
    subset:
        The accessed :class:`~repro.sdfg.subsets.Range` of that container.
    accesses:
        Symbolic number of elements moved.  Defaults to the subset volume;
        propagation may set it to a larger value than the number of *unique*
        elements (e.g. ``skz + sqz - 1`` accesses over a ``Min(Nkz, ...)``
        long range, §4.1).
    wcr:
        Optional write-conflict resolution: ``"sum"``, ``"min"`` or
        ``"max"``.  Writes through a wcr memlet combine with existing data.

    Memlets are immutable (transformations replace an edge's memlet,
    they never edit one), so copies share them.
    """

    __slots__ = ("data", "subset", "accesses", "wcr")

    def __init__(
        self,
        data: str,
        subset: Range,
        accesses: Optional[ExprLike] = None,
        wcr: Optional[str] = None,
    ):
        if not isinstance(subset, Range):
            subset = Range(subset)
        if wcr is not None and wcr not in _WCR_FUNCS:
            raise ValueError(f"unknown write-conflict resolution {wcr!r}")
        self.data = data
        self.subset = subset
        self.accesses: Expr = (
            subset.num_elements() if accesses is None else sympify(accesses)
        )
        self.wcr = wcr

    def __deepcopy__(self, memo) -> "Memlet":
        return self

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def parse(text: str) -> "Memlet":
        """The inverse of ``repr``, in the paper's edge-label notation:
        ``Memlet.parse("Sigma[kz, E, a, 0:Norb, 0:Norb] (CR: Sum)")``.

        Indices are integer expressions over ``+ - * // %``, unary minus,
        ``Min``/``Max`` and table lookups (``__neigh__[a, b]``, an
        :class:`~repro.sdfg.symbolic.IndirectAccess`); ``lo:hi[:step]`` is
        the inclusive ``(lo, hi - 1, step)``; ``(CR: Sum)`` sets ``wcr``.
        Malformed text raises ``ValueError`` naming it.
        """
        subscript, cr, name = text.partition(" (CR: ")
        wcr = _WCR_NAMES.get(name[:-1]) if name.endswith(")") else None
        if cr and wcr is None:
            raise ValueError(f"unknown write-conflict resolution in {text!r}")
        return Memlet(*_parse_subscript(text, subscript), wcr=wcr)

    @staticmethod
    def full(data: str, shape: Sequence[ExprLike], wcr: Optional[str] = None) -> "Memlet":
        """Memlet covering an entire array of the given shape."""
        return Memlet(data, Range.from_shape(shape), wcr=wcr)

    def subs(self, mapping: Mapping[str, ExprLike]) -> "Memlet":
        return Memlet(
            self.data,
            self.subset.subs(mapping),
            accesses=self.accesses.subs(mapping),
            wcr=self.wcr,
        )

    def wcr_function(self):
        return _WCR_FUNCS[self.wcr] if self.wcr else None

    @property
    def free_symbols(self) -> frozenset:
        return self.subset.free_symbols | self.accesses.free_symbols

    def volume_bytes(self, env: Mapping[str, int], itemsize: int) -> int:
        """Concrete moved-data volume in bytes under symbol bindings."""
        return self.accesses.evaluate(env) * itemsize

    def __repr__(self) -> str:
        wcr = f" (CR: {self.wcr.capitalize()})" if self.wcr else ""
        return f"{self.data}{self.subset!r}{wcr}"
