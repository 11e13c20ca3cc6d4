"""The Stateful Dataflow multiGraph (SDFG) and its states.

An :class:`SDFG` holds named array descriptors, free symbols, a set of
:class:`SDFGState` dataflow graphs and control-flow edges between them
(conditions + assignments), mirroring the intermediate representation of
Ben-Nun et al. that the paper builds on.

A state is its own insertion-ordered directed multigraph of
:class:`~repro.sdfg.nodes.Node` objects: ``_succ[u][v]`` (the same list
as ``_pred[v][u]``) holds one data dict per ``u -> v`` edge with its
:class:`~repro.sdfg.memlet.Memlet` and connectors.  Edges iterate in
insertion order and :meth:`SDFGState.topological_nodes` is a
generation-wise Kahn sort, so signatures and generated source are
deterministic.  The order and the :class:`ScopeIndex` that scope queries
read are built on first use and dropped by every node or edge insertion
or removal (a memlet rewrite keeps them).  A state holds its SDFG's
``arrays`` dict, not the SDFG: no reference cycle, so a dropped copy is
freed by reference counting.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .memlet import Memlet
from .nodes import AccessNode, MapEntry, MapExit, Node, Tasklet
from .symbolic import Expr, ExprLike, sympify

__all__ = ["ArrayDesc", "SDFGState", "InterstateEdge", "SDFG", "InvalidSDFGError"]


class InvalidSDFGError(ValueError):
    """Raised by :meth:`SDFG.validate` on structural errors."""


class ArrayDesc:
    """Descriptor of a data container: symbolic shape, dtype, transient flag."""

    __slots__ = ("name", "shape", "dtype", "transient")

    def __init__(
        self,
        name: str,
        shape: Sequence[ExprLike],
        dtype=np.complex128,
        transient: bool = False,
    ):
        self.name = name
        self.shape: Tuple[Expr, ...] = tuple(sympify(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.transient = transient

    def __deepcopy__(self, memo) -> "ArrayDesc":  # shape and dtype are immutable
        memo[id(self)] = new = ArrayDesc(self.name, self.shape, self.dtype, self.transient)
        return new

    @property
    def rank(self) -> int:
        return len(self.shape)

    def evaluate_shape(self, env) -> Tuple[int, ...]:
        return tuple(s.evaluate(env) for s in self.shape)

    def total_size(self) -> Expr:
        out: Expr = sympify(1)
        for s in self.shape:
            out = out * s
        return out

    def __repr__(self) -> str:
        dims = ", ".join(repr(s) for s in self.shape)
        t = ", transient" if self.transient else ""
        return f"{self.name}[{dims}] ({self.dtype}{t})"


class ScopeIndex:
    """One state's map scopes from one topological pass: ``parent[n]`` is
    the innermost :class:`MapEntry` enclosing ``n`` (``None`` at top level;
    a :class:`MapExit` maps to its own entry), ``exits[e]`` is entry
    ``e``'s exit and ``order`` the topological node order."""

    def __init__(self, state: "SDFGState"):
        self.order: List[Node] = state.topological_nodes()
        entries = {n.map: n for n in self.order if isinstance(n, MapEntry)}
        self.parent: Dict[Node, Optional[MapEntry]] = {}
        self.exits: Dict[MapEntry, MapExit] = {}
        for n in self.order:
            if isinstance(n, MapExit):
                e = entries.get(n.map)
                if e is None or e in self.exits:
                    what = "has no MapEntry" if e is None else "is its map's 2nd exit"
                    raise InvalidSDFGError(f"{n!r} {what} in state {state.label!r}")
                self.exits[e], self.parent[n] = n, e
                continue
            scope = None  # the deepest scope a predecessor hands on
            for p in state.predecessors(n):
                s = p if isinstance(p, MapEntry) else self.parent[p]
                if isinstance(p, MapExit):
                    s = self.parent[s]
                if s is not None and (scope is None or scope in self.scope_chain(s)):
                    scope = s
            self.parent[n] = scope

    def scope_chain(self, node: Node) -> List[MapEntry]:
        """Map entries enclosing ``node``, innermost first.

        A map entry's own chain starts with its *parent* scope (a map is
        not inside itself); every other node's chain starts with the map
        whose scope immediately contains it.  Used by memlet propagation
        (innermost-to-outermost) and by shrink/movement analyses.
        """
        chain, e = [], self.parent[node]
        while e is not None:
            chain.append(e)
            e = self.parent[e]
        return chain

    def scope_children(self, entry: MapEntry) -> List[Node]:
        """Nodes strictly inside the scope of ``entry`` (its own exit
        excluded, nested exits included), in topological order."""
        return [
            n for n in self.order
            if entry in self.scope_chain(n) and n is not self.exits.get(entry)
        ]

    def immediate_children(self, entry: Optional[MapEntry]) -> List[Node]:
        """Nodes whose innermost scope is ``entry`` (``None``: top level),
        in topological order; nested scopes appear as their entry only."""
        return [
            n for n in self.order
            if self.parent[n] is entry and not isinstance(n, MapExit)
        ]

    def top_level_maps(self) -> List[MapEntry]:
        """Map entries not nested inside any other map, in topological order."""
        return [n for n in self.immediate_children(None) if isinstance(n, MapEntry)]


class SDFGState:
    """A single dataflow state: an acyclic multigraph of nodes and memlets.

    Each edge is one data dict (``memlet``, ``src_conn``, ``dst_conn``)
    shared by its two endpoints' adjacency, so transformations rewrite
    ``d["memlet"]`` in place."""

    def __init__(self, label: str, arrays: Dict[str, ArrayDesc]):
        self.label = label
        self.arrays = arrays
        self._succ: Dict[Node, Dict[Node, List[dict]]] = {}
        self._pred: Dict[Node, Dict[Node, List[dict]]] = {}
        self._scopes = self._order = None  # built on demand, dropped by edits

    def __deepcopy__(self, memo) -> "SDFGState":
        """Nodes and ``arrays`` go through ``memo``; every edge gets a fresh
        data dict holding the same (immutable) memlet."""
        new = memo[id(self)] = SDFGState(self.label, copy.deepcopy(self.arrays, memo))
        node = {n: copy.deepcopy(n, memo) for n in self._succ}
        for u, nbrs in self._succ.items():
            new._succ[node[u]] = {node[v]: [dict(d) for d in ds] for v, ds in nbrs.items()}
        for v, nbrs in self._pred.items():
            new._pred[node[v]] = {node[u]: new._succ[node[u]][node[v]] for u in nbrs}
        return new

    # -- construction ------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        if node not in self._succ:
            self._succ[node], self._pred[node] = {}, {}
            self._scopes = self._order = None
        return node

    def add_access(self, data: str) -> AccessNode:
        if data not in self.arrays:
            raise KeyError(f"unknown array {data!r} in state {self.label!r}")
        return self.add_node(AccessNode(data))

    def add_edge(
        self,
        src: Node,
        dst: Node,
        memlet: Optional[Memlet],
        src_conn: Optional[str] = None,
        dst_conn: Optional[str] = None,
    ):
        self.add_node(src)
        self.add_node(dst)
        ds = self._succ[src].get(dst)
        if ds is None:
            ds = self._succ[src][dst] = self._pred[dst][src] = []
        ds.append({"memlet": memlet, "src_conn": src_conn, "dst_conn": dst_conn})
        self._scopes = self._order = None

    def remove_edge(self, u: Node, v: Node):
        """Remove the most recently added ``u -> v`` edge."""
        ds = self._succ[u][v]
        ds.pop()
        if not ds:
            del self._succ[u][v], self._pred[v][u]
        self._scopes = self._order = None

    def remove_node(self, node: Node):
        for v in self._succ.pop(node):
            del self._pred[v][node]
        for u in self._pred.pop(node):
            del self._succ[u][node]
        self._scopes = self._order = None

    # -- queries -----------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    @property
    def nodes(self) -> List[Node]:
        return list(self._succ)

    def edges(self) -> List[Tuple[Node, Node, dict]]:
        return [
            (u, v, d)
            for u, nbrs in self._succ.items()
            for v, ds in nbrs.items()
            for d in ds
        ]

    def in_edges(self, node: Node) -> List[Tuple[Node, Node, dict]]:
        return [(u, node, d) for u, ds in self._pred[node].items() for d in ds]

    def out_edges(self, node: Node) -> List[Tuple[Node, Node, dict]]:
        return [(node, v, d) for v, ds in self._succ[node].items() for d in ds]

    def predecessors(self, node: Node) -> List[Node]:
        return list(self._pred[node])

    def degree(self, node: Node) -> int:
        """In- plus out-edges of ``node``, parallel edges counted."""
        return sum(map(len, self._succ[node].values())) + sum(
            map(len, self._pred[node].values())
        )

    def topological_nodes(self) -> List[Node]:
        """Kahn order by generations: the sources in insertion order, then
        the nodes each releases in turn (a copy).  Raises on a cycle."""
        if self._order is not None:
            return list(self._order)
        indeg = {v: sum(map(len, ps.values())) for v, ps in self._pred.items()}
        order = [v for v, d in indeg.items() if not d]
        for u in order:  # grows while it is walked: one generation after another
            for v, ds in self._succ[u].items():
                indeg[v] -= len(ds)
                if not indeg[v]:
                    order.append(v)
        if len(order) != len(indeg):
            raise InvalidSDFGError(f"state {self.label!r} contains a cycle")
        self._order = order
        return list(order)

    def tasklets(self) -> List[Tasklet]:
        return [n for n in self._succ if isinstance(n, Tasklet)]

    def scope_index(self) -> ScopeIndex:
        """The scope structure of the graph as it is now (read-only)."""
        if self._scopes is None:
            self._scopes = ScopeIndex(self)
        return self._scopes

    # -- validation ----------------------------------------------------------
    def validate(self):
        scopes = self.scope_index()  # raises on a cycle, orphan or second exit
        for u, v, d in self.edges():
            mem: Optional[Memlet] = d.get("memlet")
            if mem is None:
                continue
            if mem.data not in self.arrays:
                raise InvalidSDFGError(
                    f"memlet references unknown array {mem.data!r}"
                )
            desc = self.arrays[mem.data]
            if len(mem.subset) != desc.rank:
                raise InvalidSDFGError(
                    f"memlet {mem!r} rank {len(mem.subset)} != array rank {desc.rank}"
                )
        for n in self._succ:
            if isinstance(n, Tasklet):
                in_conns = {d.get("dst_conn") for _, _, d in self.in_edges(n)}
                for conn in n.inputs:
                    if conn not in in_conns:
                        raise InvalidSDFGError(
                            f"tasklet {n.label!r}: input connector {conn!r} unconnected"
                        )
                out_conns = {d.get("src_conn") for _, _, d in self.out_edges(n)}
                for conn in n.outputs:
                    if conn not in out_conns:
                        raise InvalidSDFGError(
                            f"tasklet {n.label!r}: output connector {conn!r} unconnected"
                        )
            if isinstance(n, MapEntry) and n not in scopes.exits:
                raise InvalidSDFGError(f"no MapExit for {n!r} in state {self.label!r}")

    def __repr__(self) -> str:
        return f"SDFGState({self.label}, {len(self._succ)} nodes)"


class InterstateEdge:
    """Control-flow edge: optional condition + symbol assignments."""

    __slots__ = ("condition", "assignments")

    def __init__(
        self,
        condition: Optional[Callable[[dict], bool]] = None,
        assignments: Optional[Dict[str, Callable[[dict], int]]] = None,
    ):
        self.condition = condition
        self.assignments = dict(assignments or {})

    def taken(self, ctx: dict) -> bool:
        return True if self.condition is None else bool(self.condition(ctx))


class SDFG:
    """A stateful dataflow multigraph: arrays + symbols + states + control flow."""

    def __init__(self, name: str):
        self.name = name
        self.arrays: Dict[str, ArrayDesc] = {}
        self.symbols: Dict[str, None] = {}
        self.states: List[SDFGState] = []
        self._istate_edges: List[Tuple[SDFGState, SDFGState, InterstateEdge]] = []
        self.start_state: Optional[SDFGState] = None

    # -- construction --------------------------------------------------------
    def add_symbol(self, name: str):
        self.symbols[name] = None
        return sympify(name)

    def add_array(
        self,
        name: str,
        shape: Sequence[ExprLike],
        dtype=np.complex128,
        transient: bool = False,
    ) -> ArrayDesc:
        if name in self.arrays:
            raise ValueError(f"array {name!r} already exists")
        desc = ArrayDesc(name, shape, dtype, transient)
        self.arrays[name] = desc
        return desc

    def add_transient(self, name: str, shape, dtype=np.complex128) -> ArrayDesc:
        return self.add_array(name, shape, dtype, transient=True)

    def add_state(self, label: str, is_start: bool = False) -> SDFGState:
        st = SDFGState(label, self.arrays)
        self.states.append(st)
        if is_start or self.start_state is None:
            self.start_state = st
        return st

    def add_interstate_edge(
        self, src: SDFGState, dst: SDFGState, edge: Optional[InterstateEdge] = None
    ):
        self._istate_edges.append((src, dst, edge or InterstateEdge()))

    def out_edges_of(self, state: SDFGState):
        return [(d, e) for s, d, e in self._istate_edges if s is state]

    # -- queries --------------------------------------------------------------
    def state(self, label: str) -> SDFGState:
        for st in self.states:
            if st.label == label:
                return st
        raise KeyError(f"no state {label!r}")

    def transients(self) -> List[str]:
        return [n for n, d in self.arrays.items() if d.transient]

    def validate(self):
        if not self.states:
            raise InvalidSDFGError("SDFG has no states")
        for st in self.states:
            st.validate()

    def __repr__(self) -> str:
        return f"SDFG({self.name}, {len(self.states)} states, {len(self.arrays)} arrays)"
