"""Map fission / distribution (paper Fig. 9).

Splits a multi-tasklet map into one map per tasklet.  Each resulting map
iterates only over the parameters its tasklet actually uses (the paper:
"it automatically detects that the top-left and bottom maps are independent
of the j symbol, and removes it from them"), and in-scope per-iteration
temporaries are expanded into multi-dimensional transient tensors indexed
by those parameters.

Parameters listed in ``reduce`` for an intermediate are summed away during
production (write-conflict resolution ``sum``) instead of becoming a tensor
dimension — the rewrite the paper applies to ``∇HD≷``, valid because the
consumer is linear in the intermediate and the final output accumulates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..graph import SDFG, ArrayDesc, SDFGState
from ..memlet import Memlet
from ..nodes import AccessNode, Map, MapEntry, MapExit, Tasklet
from ..subsets import Range
from ..symbolic import Symbol
from .base import Site, Transformation, TransformationError

__all__ = ["MapFission"]


class MapFission(Transformation):
    """Distribute a map over its member tasklets.

    Parameters
    ----------
    map_entry:
        The scope to fission.  Its body must be a DAG of tasklets whose
        intermediate values flow through in-scope transient access nodes.
    reduce:
        ``{intermediate_array: [params]}`` to sum away during production.
    """

    name = "MapFission"

    def __init__(self, map_entry: MapEntry, reduce: Optional[Dict[str, Sequence[str]]] = None):
        self.map_entry = map_entry
        self.reduce = {k: list(v) for k, v in (reduce or {}).items()}
        self.new_entries: List[MapEntry] = []

    # -- pattern ------------------------------------------------------------
    @classmethod
    def match(cls, sdfg: SDFG, state: SDFGState) -> List[Site]:
        """Fissionable scopes: top-level, >= 2 tasklets, no nested maps,
        transient intermediates only.  ``arrays`` lists the intermediates
        that will be expanded into tensors.  Nested scopes are excluded:
        the rewrite rebuilds the split maps at state top level, which
        would hoist the body out of any enclosing map's bindings."""
        sites: List[Site] = []
        scopes = state.scope_index()
        for entry in state.nodes:
            if not isinstance(entry, MapEntry):
                continue
            if scopes.scope_chain(entry):
                continue
            children = scopes.scope_children(entry)
            if any(isinstance(n, (MapEntry, MapExit)) for n in children):
                continue
            accesses = [n for n in children if isinstance(n, AccessNode)]
            if any(not sdfg.arrays[n.data].transient for n in accesses):
                continue
            tasklets = [n for n in children if isinstance(n, Tasklet)]
            if len(tasklets) < 2:
                continue
            sites.append(
                Site(
                    transformation=cls.__name__,
                    state=state.label,
                    scope=entry.map.label,
                    arrays=tuple(sorted({n.data for n in accesses})),
                    params=tuple(entry.map.params),
                    nodes=(entry,),
                )
            )
        return sites

    def check(self, sdfg: SDFG, state: SDFGState) -> None:
        if self.map_entry not in state:
            raise TransformationError("map entry not in state")
        scopes = state.scope_index()
        if scopes.scope_chain(self.map_entry):
            raise TransformationError(
                "fission of nested scopes not supported: the split maps "
                "are rebuilt at state top level"
            )
        children = scopes.scope_children(self.map_entry)
        for n in children:
            if isinstance(n, (MapEntry, MapExit)):
                raise TransformationError("nested maps not supported by fission")
            if isinstance(n, AccessNode):
                if not sdfg.arrays[n.data].transient:
                    raise TransformationError(
                        f"in-scope access node {n.data!r} must be transient"
                    )
        tasklets = [n for n in children if isinstance(n, Tasklet)]
        if len(tasklets) < 2:
            raise TransformationError("fission requires at least two tasklets")

    # -- rewrite --------------------------------------------------------------
    def apply(self, sdfg: SDFG, state: SDFGState) -> None:
        entry = self.map_entry
        scopes = state.scope_index()
        exit_node = scopes.exits[entry]
        m = entry.map
        children = scopes.scope_children(entry)
        tasklets = [n for n in children if isinstance(n, Tasklet)]
        inner_accesses = [n for n in children if isinstance(n, AccessNode)]
        intermediates = {n.data for n in inner_accesses}

        # Producer/consumer structure of intermediates.
        producer: Dict[str, Tasklet] = {}
        consumers: Dict[str, List[Tasklet]] = {v: [] for v in intermediates}
        for an in inner_accesses:
            for u, _, d in state.in_edges(an):
                if isinstance(u, Tasklet):
                    if an.data in producer and producer[an.data] is not u:
                        raise TransformationError(
                            f"intermediate {an.data!r} has multiple producers"
                        )
                    producer[an.data] = u
            for _, v, d in state.out_edges(an):
                if isinstance(v, Tasklet):
                    consumers[an.data].append(v)

        # Record original tasklet connectivity before we cut edges.
        direct_in: Dict[Tasklet, list] = {t: [] for t in tasklets}
        direct_out: Dict[Tasklet, list] = {t: [] for t in tasklets}
        inter_in: Dict[Tasklet, list] = {t: [] for t in tasklets}
        inter_out: Dict[Tasklet, list] = {t: [] for t in tasklets}
        for t in tasklets:
            for u, _, d in state.in_edges(t):
                if u is entry:
                    direct_in[t].append(d)
                elif isinstance(u, AccessNode) and u.data in intermediates:
                    inter_in[t].append((u.data, d))
            for _, v, d in state.out_edges(t):
                if v is exit_node:
                    direct_out[t].append(d)
                elif isinstance(v, AccessNode) and v.data in intermediates:
                    inter_out[t].append((v.data, d))

        # Parameters used directly by each tasklet's external memlets.
        pset = set(m.params)

        def used_params(edges) -> set:
            out = set()
            for d in edges:
                mem: Memlet = d["memlet"] if isinstance(d, dict) else d[1]["memlet"]
                out |= mem.free_symbols & pset
            return out

        direct_params = {
            t: used_params(direct_in[t]) | used_params(direct_out[t])
            for t in tasklets
        }

        # Tensor dimensions of each expanded intermediate.
        dims_of: Dict[str, List[str]] = {}
        for v, p in producer.items():
            red = set(self.reduce.get(v, []))
            dims_of[v] = [q for q in m.params if q in direct_params[p] and q not in red]

        # Full parameter set of each new map.
        map_params: Dict[Tasklet, List[str]] = {}
        for t in tasklets:
            need = set(direct_params[t])
            for v, _ in inter_in[t]:
                need |= set(dims_of[v])
            for v, _ in inter_out[t]:
                need |= set(dims_of[v]) | set(self.reduce.get(v, []))
            map_params[t] = [q for q in m.params if q in need]

        # Expand intermediate array descriptors.
        for v, dims in dims_of.items():
            old = sdfg.arrays[v]
            ext = [
                m.range.dim_length(m.param_index(q)) for q in dims
            ]
            sdfg.arrays[v] = ArrayDesc(
                v, tuple(ext) + old.shape, old.dtype, transient=True
            )

        # Tear down the old scope.
        old_nodes = [entry, exit_node] + children
        for n in old_nodes:
            if isinstance(n, Tasklet):
                for u, _, _ in list(state.in_edges(n)):
                    state.remove_edge(u, n)
                for _, v, _ in list(state.out_edges(n)):
                    state.remove_edge(n, v)
        for n in old_nodes:
            if not isinstance(n, Tasklet):
                state.remove_node(n)

        # Build one scope per tasklet.
        inter_node: Dict[str, AccessNode] = {}
        self.new_entries = []
        for t in tasklets:
            params = map_params[t]
            rng = Range([m.range[m.param_index(q)] for q in params])
            nm = Map(f"{m.label}_{t.label}", params, rng)
            ne, nx = MapEntry(nm), MapExit(nm)
            self.new_entries.append(ne)

            for d in direct_in[t]:
                mem: Memlet = d["memlet"]
                src = state.add_access(mem.data)
                state.add_edge(src, ne, Memlet.full(mem.data, sdfg.arrays[mem.data].shape))
                state.add_edge(ne, t, mem, dst_conn=d.get("dst_conn"))
            for v, d in inter_in[t]:
                mem = _expanded_memlet(sdfg, v, dims_of[v], wcr=None)
                an = inter_node[v]
                state.add_edge(an, ne, Memlet.full(v, sdfg.arrays[v].shape))
                state.add_edge(ne, t, mem, dst_conn=d.get("dst_conn"))
            for d in direct_out[t]:
                mem = d["memlet"]
                dst = state.add_access(mem.data)
                state.add_edge(t, nx, mem, src_conn=d.get("src_conn"))
                state.add_edge(
                    nx, dst, Memlet.full(mem.data, sdfg.arrays[mem.data].shape, wcr=mem.wcr)
                )
            for v, d in inter_out[t]:
                wcr = "sum" if self.reduce.get(v) else None
                mem = _expanded_memlet(sdfg, v, dims_of[v], wcr=wcr)
                an = state.add_access(v)
                inter_node[v] = an
                state.add_edge(t, nx, mem, src_conn=d.get("src_conn"))
                state.add_edge(nx, an, Memlet.full(v, sdfg.arrays[v].shape, wcr=wcr))


def _expanded_memlet(sdfg: SDFG, v: str, dims: List[str], wcr: Optional[str]) -> Memlet:
    desc = sdfg.arrays[v]
    block_rank = desc.rank - len(dims)
    idx = [(Symbol(q), Symbol(q), 1) for q in dims]
    block = [(0, s - 1, 1) for s in desc.shape[len(dims):]]
    return Memlet(v, Range(idx + block), wcr=wcr)
