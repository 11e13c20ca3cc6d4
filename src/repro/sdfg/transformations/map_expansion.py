"""Map expansion (paper Fig. 11b and §4.2 footprint reduction).

Splits an N-dimensional map into an outer map over the selected parameters
and a nested inner map over the rest.  Used twice by the recipe: to isolate
the ``ω`` accumulation before GEMM substitution, and to hoist ``(a, b)``
outermost in each SSE sub-map so that Map Fusion can merge the scopes and
shrink the transient tensors (Fig. 12).
"""

from __future__ import annotations

from typing import List, Optional

from ..graph import SDFG, SDFGState
from ..nodes import Map, MapEntry, MapExit
from ..subsets import Range
from .base import Site, Transformation, TransformationError

__all__ = ["MapExpansion"]


class MapExpansion(Transformation):
    """Hoist ``outer_params`` into an enclosing map scope."""

    name = "MapExpansion"

    def __init__(self, map_entry: MapEntry, outer_params: List[str]):
        self.map_entry = map_entry
        self.outer_params = list(outer_params)
        self.inner_entry: Optional[MapEntry] = None

    @classmethod
    def match(cls, sdfg: SDFG, state: SDFGState) -> List[Site]:
        """Any map with >= 2 parameters can hoist a proper subset."""
        return [
            Site(
                transformation=cls.__name__,
                state=state.label,
                scope=n.map.label,
                params=tuple(n.map.params),
                nodes=(n,),
            )
            for n in state.nodes
            if isinstance(n, MapEntry) and len(n.map.params) >= 2
        ]

    def check(self, sdfg: SDFG, state: SDFGState) -> None:
        if self.map_entry not in state:
            raise TransformationError("map entry not in state")
        m = self.map_entry.map
        for p in self.outer_params:
            if p not in m.params:
                raise TransformationError(f"{p!r} not a parameter of the map")
        if len(self.outer_params) >= len(m.params):
            raise TransformationError("expansion must leave a non-empty inner map")

    def apply(self, sdfg: SDFG, state: SDFGState) -> None:
        entry = self.map_entry
        exit_node = next(
            n for n in state.nodes if isinstance(n, MapExit) and n.map is entry.map
        )
        m = entry.map

        inner_params = [p for p in m.params if p not in self.outer_params]
        inner_rng = Range([m.range[m.param_index(p)] for p in inner_params])
        outer_rng = Range([m.range[m.param_index(p)] for p in self.outer_params])

        inner = Map(f"{m.label}_inner", inner_params, inner_rng)
        ientry, iexit = MapEntry(inner), MapExit(inner)
        self.inner_entry = ientry

        # The original map becomes the outer scope.
        m.params = list(self.outer_params)
        m.range = outer_rng

        for _, v, d in list(state.out_edges(entry)):
            state.remove_edge(entry, v)
            state.add_edge(ientry, v, d.get("memlet"), d.get("src_conn"), d.get("dst_conn"))
            state.add_edge(entry, ientry, d.get("memlet"))
        for u, _, d in list(state.in_edges(exit_node)):
            state.remove_edge(u, exit_node)
            state.add_edge(u, iexit, d.get("memlet"), d.get("src_conn"), d.get("dst_conn"))
            state.add_edge(iexit, exit_node, d.get("memlet"))

