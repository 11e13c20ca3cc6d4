"""Map fusion (paper Fig. 12, §4.2 memory-footprint reduction).

Merges several top-level map scopes with *identical* parameters and ranges
into a single scope whose body executes the original bodies in sequence.
Intermediate tensors flowing between the scopes become interior access
nodes: after :class:`~repro.sdfg.transformations.array_shrink.ArrayShrink`
removes the fused dimensions, they shrink from 7-D/5-D tensors to the
3-D per-(a, b) blocks shown in Fig. 12.

Intermediates written through ``CR: Sum`` are re-zeroed at every fused
iteration by an automatically inserted initialization tasklet (DaCe
allocates such transients per scope iteration; our interpreter allocates
globally, so the initialization must be explicit in the graph).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..graph import SDFG, SDFGState
from ..memlet import Memlet
from ..nodes import AccessNode, Map, MapEntry, MapExit, Node, Tasklet
from ..subsets import Range
from ..symbolic import Symbol
from .base import Site, Transformation, TransformationError

__all__ = ["MapFusion"]


class MapFusion(Transformation):
    """Fuse top-level scopes (in the given order) into one map."""

    name = "MapFusion"

    def __init__(self, map_entries: List[MapEntry], label: str = "fused"):
        self.map_entries = list(map_entries)
        self.label = label
        self.fused_entry: Optional[MapEntry] = None

    @classmethod
    def match(cls, sdfg: SDFG, state: SDFGState) -> List[Site]:
        """Groups of >= 2 top-level scopes with identical parameters and
        ranges.  One site per group; ``nodes`` is ordered topologically
        (writers before readers), the order fusion applies them in —
        the order the scope index lists top-level maps in."""
        groups: Dict[tuple, List[MapEntry]] = {}
        for entry in state.scope_index().top_level_maps():
            key = (tuple(entry.map.params), entry.map.range)
            groups.setdefault(key, []).append(entry)
        sites: List[Site] = []
        for (params, _), entries in groups.items():
            if len(entries) < 2:
                continue
            sites.append(
                Site(
                    transformation=cls.__name__,
                    state=state.label,
                    scope=" + ".join(e.map.label for e in entries),
                    params=params,
                    nodes=tuple(entries),
                )
            )
        return sites

    def check(self, sdfg: SDFG, state: SDFGState) -> None:
        if len(self.map_entries) < 2:
            raise TransformationError("fusion needs at least two scopes")
        ref = self.map_entries[0].map
        for me in self.map_entries:
            if me not in state:
                raise TransformationError("map entry not in state")
            if me.map.params != ref.params or me.map.range != ref.range:
                raise TransformationError(
                    f"scope {me.label!r} differs in params/range from {ref.label!r}"
                )
        top = set(state.scope_index().top_level_maps())
        for me in self.map_entries:
            if me not in top:
                raise TransformationError(f"{me.label!r} is not a top-level scope")

    def apply(self, sdfg: SDFG, state: SDFGState) -> None:
        entries = self.map_entries
        scopes = state.scope_index()
        exits = [scopes.exits[e] for e in entries]
        ref = entries[0].map

        fused = Map(self.label, list(ref.params), ref.range)
        fentry, fexit = MapEntry(fused), MapExit(fused)
        self.fused_entry = fentry
        state.add_node(fentry)
        state.add_node(fexit)

        # Arrays written by one scope and read by a later one.
        written: Dict[str, int] = {}
        read: Dict[str, List[int]] = {}
        writer_mem: Dict[str, Memlet] = {}
        writer_node: Dict[str, Node] = {}
        for i, (en, ex) in enumerate(zip(entries, exits)):
            for u, _, d in state.in_edges(ex):
                mem = d.get("memlet")
                if mem is not None:
                    written[mem.data] = i
                    writer_mem[mem.data] = mem
                    writer_node[mem.data] = u
            for _, v, d in state.out_edges(en):
                mem = d.get("memlet")
                if mem is not None:
                    read.setdefault(mem.data, []).append(i)
        intermediates = {
            a
            for a, i in written.items()
            if any(j > i for j in read.get(a, []))
        }

        an_current: Dict[str, AccessNode] = {}
        for i, (en, ex) in enumerate(zip(entries, exits)):
            # Writer side first would be wrong: readers in this scope consume
            # the *previous* scope's AN, so handle inputs before outputs.
            for _, v, d in list(state.out_edges(en)):
                state.remove_edge(en, v)
                mem = d.get("memlet")
                if mem is not None and mem.data in intermediates:
                    src = an_current.get(mem.data)
                    if src is None:
                        raise TransformationError(
                            f"reader of {mem.data!r} precedes its writer"
                        )
                    state.add_edge(src, v, mem, d.get("src_conn"), d.get("dst_conn"))
                elif mem is not None:
                    state.add_edge(fentry, v, mem, d.get("src_conn"), d.get("dst_conn"))
            for u, _, d in list(state.in_edges(en)):
                state.remove_edge(u, en)
                mem = d.get("memlet")
                if (
                    isinstance(u, AccessNode)
                    and mem is not None
                    and mem.data not in intermediates
                ):
                    state.add_edge(u, fentry, mem, d.get("src_conn"), d.get("dst_conn"))
            for u, _, d in list(state.in_edges(ex)):
                state.remove_edge(u, ex)
                mem = d.get("memlet")
                if mem is not None and mem.data in intermediates:
                    an = AccessNode(mem.data)
                    state.add_node(an)
                    state.add_edge(u, an, mem, d.get("src_conn"), d.get("dst_conn"))
                    an_current[mem.data] = an
                    writer_node[mem.data] = u
                elif mem is not None:
                    state.add_edge(u, fexit, mem, d.get("src_conn"), d.get("dst_conn"))
            for _, v, d in list(state.out_edges(ex)):
                state.remove_edge(ex, v)
                mem = d.get("memlet")
                if mem is not None and mem.data in intermediates:
                    if state.degree(v) == 0:
                        state.remove_node(v)
                elif mem is not None:
                    state.add_edge(fexit, v, mem, d.get("src_conn"), d.get("dst_conn"))

        # Drop the old scope delimiters and orphaned intermediate nodes.
        for en, ex in zip(entries, exits):
            state.remove_node(en)
            state.remove_node(ex)
        for n in state.nodes:
            if (
                isinstance(n, AccessNode)
                and n.data in intermediates
                and state.degree(n) == 0
            ):
                state.remove_node(n)

        # Zero-initialize WCR'd intermediates at each fused iteration.
        for a in sorted(intermediates):
            mem = writer_mem[a]
            if mem.wcr is None:
                continue
            init_mem = _init_memlet(sdfg, a, mem, fused.params)
            t = Tasklet(f"init_{a}", [], ["out"], lambda: {"out": 0}, op="zero")
            an_pre = AccessNode(a)
            state.add_node(t)
            state.add_node(an_pre)
            state.add_edge(fentry, t, None)
            state.add_edge(t, an_pre, init_mem, src_conn="out")
            # Anchor before the *entry* of the writer's nested scope so the
            # zeroing precedes the accumulation in topological order.
            anchor = writer_node[a]
            if isinstance(anchor, MapExit):
                anchor = scopes.parent[anchor]
            state.add_edge(an_pre, anchor, None)


def _init_memlet(sdfg: SDFG, array: str, writer: Memlet, fused_params) -> Memlet:
    """Full-range memlet except on dimensions indexed by fused parameters."""
    desc = sdfg.arrays[array]
    pset = set(fused_params)
    dims = []
    for (b, e, s), n in zip(writer.subset.dims, desc.shape):
        if (b.free_symbols | e.free_symbols) & pset:
            dims.append((b, e, s))
        else:
            dims.append((0, n - 1, 1))
    return Memlet(array, Range(dims))
