"""Test-side references for the SDFG scope index.

* The node-by-node walks the state's scope queries used before the scope
  index existed — a stack walk from each map entry and a containment
  sort of every map's scope set — kept as an oracle for
  :class:`repro.sdfg.graph.ScopeIndex`.
* A memlet lint written over the index: every access node's memlet paths
  are followed through the scopes they cross and checked at concrete
  dims.
* ``networkx`` as an ordering oracle for the state's own multigraph: a
  ``MultiDiGraph`` rebuilt from the state must sort and list edges the
  same way.
"""

from __future__ import annotations

from typing import List, Mapping

import networkx as nx

from repro.sdfg import neighbor_indirection_hook, symbols
from repro.sdfg.nodes import AccessNode, MapEntry, MapExit
from repro.sdfg.propagation import propagate_through_maps


# -- oracle: the walks before the scope index ---------------------------------


def _exit_of(state, entry):
    return next(
        n
        for n in state.nodes
        if isinstance(n, MapExit) and n.map is entry.map
    )


def bfs_scope_children(state, entry) -> List:
    """Nodes reachable from ``entry`` without passing its exit."""
    exit_node = _exit_of(state, entry)
    inside, seen = [], {entry, exit_node}
    frontier = [v for _, v, _ in state.out_edges(entry)]
    while frontier:
        n = frontier.pop()
        if n in seen:
            continue
        seen.add(n)
        inside.append(n)
        frontier.extend(v for _, v, _ in state.out_edges(n))
    return inside


def sorted_scope_chain(state, node) -> List:
    """Entries whose scope set holds ``node``, sorted deepest first by
    how many of the chain's other scopes contain each entry."""
    entries = [n for n in state.nodes if isinstance(n, MapEntry)]
    sets = {
        e: set(bfs_scope_children(state, e)) | {_exit_of(state, e)}
        for e in entries
    }
    chain = [e for e in entries if e is not node and node in sets[e]]
    members = tuple(chain)
    chain.sort(
        key=lambda e: sum(1 for o in members if o is not e and e in sets[o]),
        reverse=True,
    )
    return chain


def nested_top_level_maps(state) -> List:
    entries = [n for n in state.nodes if isinstance(n, MapEntry)]
    nested = {
        c
        for e in entries
        for c in bfs_scope_children(state, e)
        if isinstance(c, MapEntry)
    }
    return [e for e in entries if e not in nested]


def assert_index_matches_walks(state) -> int:
    """The scope index equals the old walks on every node of ``state``;
    returns the number of nodes compared."""
    scopes = state.scope_index()
    for n in state.nodes:
        assert scopes.scope_chain(n) == sorted_scope_chain(state, n), n
        if isinstance(n, MapEntry):
            assert set(scopes.scope_children(n)) == set(
                bfs_scope_children(state, n)
            ), n
            assert scopes.exits[n] is _exit_of(state, n)
    assert set(scopes.top_level_maps()) == set(nested_top_level_maps(state))
    return len(state.nodes)


# -- oracle: networkx's ordering of the same multigraph ------------------------


def _edge_keys(edges) -> List:
    return [
        (u, v, id(d["memlet"]), d["src_conn"], d["dst_conn"]) for u, v, d in edges
    ]


def assert_orders_match_networkx(state) -> int:
    """``topological_nodes``, ``in_edges`` and ``out_edges`` of ``state``
    equal those of a ``MultiDiGraph`` rebuilt from its nodes and edges;
    returns the number of nodes compared."""
    g = nx.MultiDiGraph()
    g.add_nodes_from(state.nodes)
    for u, v, d in state.edges():
        g.add_edge(u, v, **d)
    assert state.topological_nodes() == list(nx.topological_sort(g))
    for n in state.nodes:
        assert _edge_keys(state.in_edges(n)) == _edge_keys(g.in_edges(n, data=True)), n
        assert _edge_keys(state.out_edges(n)) == _edge_keys(g.out_edges(n, data=True)), n
        assert state.degree(n) == g.degree(n), n
    return len(state.nodes)


# -- memlet lint over the index -----------------------------------------------


def _edge_chain(scopes, u, v) -> List:
    """Map entries whose parameters an edge's memlet may use, innermost
    first: the deeper scope its endpoints touch (a map entry or exit
    touches its own map, any other node its enclosing one)."""
    touched = [x if isinstance(x, MapEntry) else scopes.parent[x] for x in (u, v)]
    chains = [[] if t is None else [t] + scopes.scope_chain(t) for t in touched]
    return max(chains, key=len)


def _memlet_paths(state, an):
    """Edges of every memlet path through access node ``an``: reads
    descend through map entries, writes climb back through map exits."""
    todo = [(e, True) for e in state.out_edges(an)]
    todo += [(e, False) for e in state.in_edges(an)]
    while todo:
        (u, v, d), reading = todo.pop()
        mem = d.get("memlet")
        if mem is None or mem.data != an.data:
            continue
        yield reading, (u, v), d
        if reading and isinstance(v, MapEntry):
            todo += [(e, True) for e in state.out_edges(v)]
        if not reading and isinstance(u, MapExit):
            todo += [(e, False) for e in state.in_edges(u)]


def memlet_lint(sdfg, dims: Mapping[str, int]) -> List[str]:
    """Findings on ``sdfg`` at concrete ``dims``:

    * *bounds*: a memlet subset, propagated outward through the scopes
      its edge crosses (unclamped; the neighbor table by the paper's
      hook), leaves its array's addressable index range ``[-n, n)`` —
      negative point indices wrap periodically (``Range.to_slices``);
    * *unwritten*: a transient read on some memlet path that no path
      writes.
    """
    hook = neighbor_indirection_hook(*symbols("NA NB"))
    findings: List[str] = []
    read, written = set(), set()
    for st in sdfg.states:
        scopes = st.scope_index()
        checked = set()  # paths from two access nodes of one array meet
        for an in scopes.order:
            if not isinstance(an, AccessNode):
                continue
            for reading, edge, d in _memlet_paths(st, an):
                mem = d["memlet"]
                (read if reading else written).add(mem.data)
                if id(d) in checked:
                    continue
                checked.add(id(d))
                maps = [e.map for e in _edge_chain(scopes, *edge)]
                outer = propagate_through_maps(mem, maps, hooks=[hook])
                shape = sdfg.arrays[mem.data].evaluate_shape(dims)
                for axis, ((b, e, _), n) in enumerate(
                    zip(outer.subset.evaluate(dims), shape)
                ):
                    if b < -n or e > n - 1:
                        findings.append(
                            f"bounds: {mem!r} in state {st.label!r} spans "
                            f"[{b}, {e}] on axis {axis} of extent {n}"
                        )
    for name in sorted(read - written):
        if sdfg.arrays[name].transient:
            findings.append(f"unwritten: transient {name!r} is read, never written")
    return findings
