"""Transient-array shrinking (paper §4.2, final step of Fig. 12).

After Map Fusion, the transient tensors ``∇HG≷`` and ``∇HD≷`` are produced
and consumed entirely within one iteration of the fused ``(a, b)`` map, so
their ``(a, b)`` dimensions are dead storage.  This transformation removes
dimensions that every memlet indexes with exactly the fused map parameters,
"reducing the size of the transient arrays to only three dimensions, which
are accessed for each iteration (a, b)".
"""

from __future__ import annotations

from typing import List, Sequence

from ..graph import SDFG, ArrayDesc, ScopeIndex, SDFGState
from ..memlet import Memlet
from ..nodes import MapEntry
from ..subsets import Range
from ..symbolic import Symbol
from .base import Site, Transformation, TransformationError

__all__ = ["ArrayShrink"]


class ArrayShrink(Transformation):
    """Drop dimensions of a transient indexed only by scope parameters.

    Parameters
    ----------
    array:
        The transient tensor to shrink.
    drop_dims:
        Dimension positions to remove.
    params:
        The enclosing map parameters each dropped dimension must be
        indexed by (one per dropped dimension, in order).
    """

    name = "ArrayShrink"

    def __init__(self, array: str, drop_dims: Sequence[int], params: Sequence[str]):
        if len(drop_dims) != len(params):
            raise ValueError("drop_dims and params must align")
        self.array = array
        self.drop_dims = list(drop_dims)
        self.params = list(params)

    @classmethod
    def match(cls, sdfg: SDFG, state: SDFGState) -> List[Site]:
        """Transient dimensions indexed by one shared scope parameter.

        A dimension is shrinkable only when every memlet on the array
        indexes it with the *same* plain parameter ``p`` **and** ``p`` is
        bound by one common enclosing map for all of those memlets (the
        array then lives entirely within a single iteration of that map).
        A parameter bound by different inner scopes at the producer and
        the consumer — e.g. the ``i`` dimension of ``∇HG≷`` after fusion,
        written by one inner map and re-read in full by another — must
        stay materialized.
        """
        sites: List[Site] = []
        scopes = state.scope_index()
        for name in sorted(sdfg.transients()):
            desc = sdfg.arrays[name]
            edges = [
                (u, v, d["memlet"])
                for u, v, d in state.edges()
                if d.get("memlet") is not None and d["memlet"].data == name
            ]
            if not edges:
                continue
            drop: List[int] = []
            params: List[str] = []
            for pos in range(desc.rank):
                symbols = set()
                point = True
                for _, _, mem in edges:
                    b, e, _ = mem.subset.dims[pos]
                    if b != e or not isinstance(b, Symbol):
                        point = False
                        break
                    symbols.add(b.name)
                if not point or len(symbols) != 1:
                    continue
                p = symbols.pop()
                if cls._common_binding(scopes, edges, p):
                    drop.append(pos)
                    params.append(p)
            if drop:
                sites.append(
                    Site(
                        transformation=cls.__name__,
                        state=state.label,
                        arrays=(name,),
                        params=tuple(params),
                        dims=tuple(drop),
                    )
                )
        return sites

    @staticmethod
    def _common_binding(scopes: ScopeIndex, edges, param: str) -> bool:
        """True when one map binds ``param`` for every given edge."""
        binding: List[MapEntry] = []
        for u, v, _ in edges:
            # The edge executes within the deeper endpoint's scope.
            cu, cv = scopes.scope_chain(u), scopes.scope_chain(v)
            chain = cu if len(cu) >= len(cv) else cv
            inner = next(
                (e for e in chain if param in e.map.params), None
            )
            if inner is None:
                return False
            binding.append(inner)
        return all(b is binding[0] for b in binding)

    def check(self, sdfg: SDFG, state: SDFGState) -> None:
        if self.array not in sdfg.arrays:
            raise TransformationError(f"unknown array {self.array!r}")
        desc = sdfg.arrays[self.array]
        if not desc.transient:
            raise TransformationError(f"{self.array!r} is not transient")
        for pos, p in zip(self.drop_dims, self.params):
            if pos >= desc.rank:
                raise TransformationError(f"dimension {pos} out of range")
        for st in sdfg.states:
            for _, _, d in st.edges():
                mem = d.get("memlet")
                if mem is None or mem.data != self.array:
                    continue
                for pos, p in zip(self.drop_dims, self.params):
                    b, e, _ = mem.subset.dims[pos]
                    if b != e or b != Symbol(p):
                        raise TransformationError(
                            f"memlet {mem!r} dim {pos} is not the point index {p!r}"
                        )

    def apply(self, sdfg: SDFG, state: SDFGState) -> None:
        desc = sdfg.arrays[self.array]
        keep = [i for i in range(desc.rank) if i not in set(self.drop_dims)]
        sdfg.arrays[self.array] = ArrayDesc(
            self.array,
            tuple(desc.shape[i] for i in keep),
            desc.dtype,
            transient=True,
        )
        for st in sdfg.states:
            for _, _, d in st.edges():
                mem = d.get("memlet")
                if mem is None or mem.data != self.array:
                    continue
                dims = [mem.subset.dims[i] for i in keep]
                d["memlet"] = Memlet(self.array, Range(dims), wcr=mem.wcr)
