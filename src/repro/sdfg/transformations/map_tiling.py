"""Map tiling (paper Fig. 7, left).

Splits a map into an outer map over tile indices and an inner map over the
elements of each tile: parameter ``kz`` with range ``[0, Nkz)`` and tile
size ``skz`` becomes ``tkz in [0, Nkz//skz)`` outside and
``kz in [tkz*skz, (tkz+1)*skz)`` inside.  The subsequent memlet propagation
through the tiled scope yields the per-tile data footprints that drive the
communication-avoiding distribution (§4.1).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..graph import SDFG, SDFGState
from ..nodes import Map, MapEntry, MapExit
from ..subsets import Range
from ..symbolic import ExprLike, Min, sympify
from .base import Site, Transformation, TransformationError

__all__ = ["MapTiling"]


class MapTiling(Transformation):
    """Tile the given parameters of a map scope.

    Parameters
    ----------
    map_entry:
        Scope to tile.
    tile_sizes:
        ``{param: tile_size}``; parameters not listed stay untiled.
    divides_evenly:
        When True (default), tile ranges are exact (`Nkz % skz == 0`
        assumed, as in the paper's decompositions); otherwise inner ranges
        are clamped with a symbolic ``Min``.
    prefix:
        Naming prefix for tile parameters (``tkz`` for ``kz``).
    """

    name = "MapTiling"

    def __init__(
        self,
        map_entry: MapEntry,
        tile_sizes: Dict[str, ExprLike],
        divides_evenly: bool = True,
        prefix: str = "t",
    ):
        self.map_entry = map_entry
        self.tile_sizes = {k: sympify(v) for k, v in tile_sizes.items()}
        self.divides_evenly = divides_evenly
        self.prefix = prefix
        self.outer_map: Optional[Map] = None

    @classmethod
    def match(cls, sdfg: SDFG, state: SDFGState):
        """Every map scope is tileable; ``params`` lists the candidates
        (those whose ``t``-prefixed tile name is still free)."""
        sites = []
        for n in state.nodes:
            if not isinstance(n, MapEntry):
                continue
            candidates = tuple(
                p for p in n.map.params if f"t{p}" not in n.map.params
            )
            if candidates:
                sites.append(
                    Site(
                        transformation=cls.__name__,
                        state=state.label,
                        scope=n.map.label,
                        params=candidates,
                        nodes=(n,),
                    )
                )
        return sites

    def check(self, sdfg: SDFG, state: SDFGState) -> None:
        if self.map_entry not in state:
            raise TransformationError("map entry not in state")
        m = self.map_entry.map
        for p in self.tile_sizes:
            if p not in m.params:
                raise TransformationError(f"unknown map parameter {p!r}")
            if f"{self.prefix}{p}" in m.params:
                raise TransformationError(f"tile name {self.prefix}{p} collides")

    def apply(self, sdfg: SDFG, state: SDFGState) -> None:
        entry = self.map_entry
        exit_node = state.scope_index().exits[entry]
        m = entry.map

        outer_params = []
        outer_dims = []
        new_inner_dims = list(m.range.dims)
        for i, p in enumerate(m.params):
            if p not in self.tile_sizes:
                continue
            s = self.tile_sizes[p]
            b, e, st = m.range[i]
            length = e - b + 1
            tp = f"{self.prefix}{p}"
            outer_params.append(tp)
            outer_dims.append((0, length // s - 1, 1))
            t = sympify(tp)
            inner_b = b + t * s
            inner_e = b + (t + 1) * s - 1
            if not self.divides_evenly:
                inner_e = Min.make(inner_e, e)
            new_inner_dims[i] = (inner_b, inner_e, st)

        m.range = Range(new_inner_dims)

        outer = Map(f"{m.label}_tiles", outer_params, Range(outer_dims))
        oentry, oexit = MapEntry(outer), MapExit(outer)
        self.outer_map = outer

        # Re-route incoming edges through the outer scope.
        for u, _, d in list(state.in_edges(entry)):
            state.remove_edge(u, entry)
            state.add_edge(u, oentry, d.get("memlet"), d.get("src_conn"), d.get("dst_conn"))
            state.add_edge(oentry, entry, d.get("memlet"))
        for _, v, d in list(state.out_edges(exit_node)):
            state.remove_edge(exit_node, v)
            state.add_edge(oexit, v, d.get("memlet"), d.get("src_conn"), d.get("dst_conn"))
            state.add_edge(exit_node, oexit, d.get("memlet"))
        # Keep the scope connected even without data edges.
        if not list(state.in_edges(entry)):
            state.add_edge(oentry, entry, None)
        if not list(state.out_edges(exit_node)):
            state.add_edge(exit_node, oexit, None)

