"""Batched-operation substitution (paper Figs. 10d and 11c).

Removes parameters from a map and replaces its tasklet with one that
processes the whole removed subspace at once — e.g. fusing ``Nkz*NE``
``Norb x Norb x Norb`` multiplications into a single
``Norb x Norb x Nkz*NE*Norb`` GEMM, or substituting the nested ``ω``
accumulation map with one ``Norb x Norb*Nω x Norb`` GEMM.

The replacement tasklet and its memlets are supplied explicitly by the
performance engineer (the recipe), because the rewrite relies on the
algebraic identity being substituted (batching / sum-of-products as GEMM),
which is beyond structural graph analysis.
"""

from __future__ import annotations

from typing import Dict, List

from ..graph import SDFG, SDFGState
from ..memlet import Memlet
from ..nodes import MapEntry, Tasklet
from ..subsets import Range
from .base import Site, Transformation, TransformationError

__all__ = ["BatchedOperationSubstitution"]


class BatchedOperationSubstitution(Transformation):
    """Shrink a single-tasklet map and swap in a batched tasklet.

    Parameters
    ----------
    map_entry:
        Single-tasklet scope to rewrite.
    batch_params:
        Map parameters to remove (the batched subspace).
    new_tasklet:
        Replacement tasklet.
    in_memlets / out_memlets:
        ``{connector: Memlet}`` for the replacement tasklet.
    """

    name = "BatchedOperationSubstitution"

    def __init__(
        self,
        map_entry: MapEntry,
        batch_params: List[str],
        new_tasklet: Tasklet,
        in_memlets: Dict[str, Memlet],
        out_memlets: Dict[str, Memlet],
    ):
        self.map_entry = map_entry
        self.batch_params = list(batch_params)
        self.new_tasklet = new_tasklet
        self.in_memlets = dict(in_memlets)
        self.out_memlets = dict(out_memlets)

    @classmethod
    def match(cls, sdfg: SDFG, state: SDFGState) -> List[Site]:
        """Single-tasklet scopes with >= 2 parameters.

        ``arrays`` lists the arrays the scope's tasklet *writes* — the
        natural selection key for a move ("batch the producer of X"); the
        replacement tasklet and memlets come from the move's template,
        since the rewrite encodes an algebraic identity.
        """
        sites: List[Site] = []
        scopes = state.scope_index()
        for entry in state.nodes:
            if not isinstance(entry, MapEntry):
                continue
            if len(entry.map.params) < 2:
                continue
            tasklets = [
                n
                for n in scopes.scope_children(entry)
                if isinstance(n, Tasklet)
            ]
            if len(tasklets) != 1:
                continue
            written = {
                d["memlet"].data
                for _, _, d in state.out_edges(tasklets[0])
                if d.get("memlet") is not None
            }
            sites.append(
                Site(
                    transformation=cls.__name__,
                    state=state.label,
                    scope=entry.map.label,
                    arrays=tuple(sorted(written)),
                    params=tuple(entry.map.params),
                    nodes=(entry,),
                )
            )
        return sites

    def check(self, sdfg: SDFG, state: SDFGState) -> None:
        if self.map_entry not in state:
            raise TransformationError("map entry not in state")
        m = self.map_entry.map
        for p in self.batch_params:
            if p not in m.params:
                raise TransformationError(f"{p!r} not a parameter of the map")
        tasklets = [
            n
            for n in state.scope_index().scope_children(self.map_entry)
            if isinstance(n, Tasklet)
        ]
        if len(tasklets) != 1:
            raise TransformationError("pattern requires a single-tasklet scope")
        remaining = set(m.params) - set(self.batch_params)
        for conn, mem in {**self.in_memlets, **self.out_memlets}.items():
            for p in self.batch_params:
                if p in mem.free_symbols:
                    raise TransformationError(
                        f"memlet for {conn!r} still references batched param {p!r}"
                    )
        for conn in self.new_tasklet.inputs:
            if conn not in self.in_memlets:
                raise TransformationError(f"no memlet for input {conn!r}")
        for conn in self.new_tasklet.outputs:
            if conn not in self.out_memlets:
                raise TransformationError(f"no memlet for output {conn!r}")

    def apply(self, sdfg: SDFG, state: SDFGState) -> None:
        entry = self.map_entry
        scopes = state.scope_index()
        exit_node = scopes.exits[entry]
        m = entry.map
        old = [
            n for n in scopes.scope_children(entry) if isinstance(n, Tasklet)
        ][0]

        keep = [i for i, p in enumerate(m.params) if p not in self.batch_params]
        m.range = Range([m.range[i] for i in keep])
        m.params = [m.params[i] for i in keep]

        state.remove_node(old)
        t = self.new_tasklet
        for conn, mem in self.in_memlets.items():
            state.add_edge(entry, t, mem, dst_conn=conn)
        for conn, mem in self.out_memlets.items():
            state.add_edge(t, exit_node, mem, src_conn=conn)
