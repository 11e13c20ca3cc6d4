"""The Stateful Dataflow multiGraph (SDFG) and its states.

An :class:`SDFG` holds named array descriptors, free symbols, a set of
:class:`SDFGState` dataflow graphs and control-flow edges between them
(conditions + assignments), mirroring the intermediate representation of
Ben-Nun et al. that the paper builds on.

States are `networkx.MultiDiGraph`s whose nodes are
:class:`~repro.sdfg.nodes.Node` objects and whose edges carry
:class:`~repro.sdfg.memlet.Memlet` annotations.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from .memlet import Memlet
from .nodes import AccessNode, MapEntry, MapExit, NestedSDFG, Node, Tasklet
from .subsets import Range
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


class SDFGState:
    """A single dataflow state: an acyclic multigraph of nodes and memlets."""

    def __init__(self, label: str, sdfg: "SDFG"):
        self.label = label
        self.sdfg = sdfg
        self.graph = nx.MultiDiGraph()

    # -- construction ------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        self.graph.add_node(node)
        return node

    def add_access(self, data: str) -> AccessNode:
        if data not in self.sdfg.arrays:
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
        self.graph.add_node(src)
        self.graph.add_node(dst)
        self.graph.add_edge(
            src, dst, memlet=memlet, src_conn=src_conn, dst_conn=dst_conn
        )

    def remove_node(self, node: Node):
        self.graph.remove_node(node)

    # -- queries -----------------------------------------------------------
    @property
    def nodes(self) -> List[Node]:
        return list(self.graph.nodes)

    def edges(self) -> List[Tuple[Node, Node, dict]]:
        return [(u, v, d) for u, v, d in self.graph.edges(data=True)]

    def in_edges(self, node: Node) -> List[Tuple[Node, Node, dict]]:
        return [(u, v, d) for u, v, d in self.graph.in_edges(node, data=True)]

    def out_edges(self, node: Node) -> List[Tuple[Node, Node, dict]]:
        return [(u, v, d) for u, v, d in self.graph.out_edges(node, data=True)]

    def topological_nodes(self) -> List[Node]:
        return list(nx.topological_sort(self.graph))

    def scope_children(self, entry: MapEntry) -> List[Node]:
        """Nodes strictly inside the scope of ``entry`` (excluding exit)."""
        exit_node = self.exit_node(entry)
        inside: List[Node] = []
        seen = {entry, exit_node}
        frontier = [v for _, v, _ in self.out_edges(entry)]
        while frontier:
            n = frontier.pop()
            if n in seen:
                continue
            seen.add(n)
            inside.append(n)
            for _, v, _ in self.out_edges(n):
                frontier.append(v)
        return inside

    def exit_node(self, entry: MapEntry) -> MapExit:
        for n in self.graph.nodes:
            if isinstance(n, MapExit) and n.map is entry.map:
                return n
        raise InvalidSDFGError(f"no MapExit for {entry!r} in state {self.label!r}")

    def entry_node(self, exit_node: MapExit) -> MapEntry:
        for n in self.graph.nodes:
            if isinstance(n, MapEntry) and n.map is exit_node.map:
                return n
        raise InvalidSDFGError(f"no MapEntry for {exit_node!r}")

    def scope_chain(self, node: Node) -> List[MapEntry]:
        """Map entries enclosing ``node``, innermost first.

        A map entry's own chain starts with its *parent* scope (a map is
        not inside itself); every other node's chain starts with the map
        whose scope immediately contains it.  Used by memlet propagation
        (innermost-to-outermost) and by shrink/movement analyses.
        """
        entries = [n for n in self.graph.nodes if isinstance(n, MapEntry)]
        sets = {e: self._scope_sets(e) for e in entries}
        chain = [e for e in entries if e is not node and node in sets[e]]
        # Innermost first == deepest nesting first: an entry nested inside
        # another appears in the other's scope, so sort by how many of the
        # chain's scopes contain each entry (more containers -> deeper).
        # The membership pool must be a snapshot: list.sort() empties the
        # list while running, so a key closing over ``chain`` itself would
        # see an empty pool and leave insertion order untouched.
        members = tuple(chain)
        chain.sort(
            key=lambda e: sum(
                1 for o in members if o is not e and e in sets[o]
            ),
            reverse=True,
        )
        return chain

    def _scope_sets(self, entry: MapEntry) -> set:
        children = set(self.scope_children(entry))
        children.add(self.exit_node(entry))
        return children

    def top_level_maps(self) -> List[MapEntry]:
        """Map entries not nested inside any other map."""
        entries = [n for n in self.graph.nodes if isinstance(n, MapEntry)]
        nested = set()
        for e in entries:
            for child in self.scope_children(e):
                if isinstance(child, MapEntry):
                    nested.add(child)
        return [e for e in entries if e not in nested]

    def tasklets(self) -> List[Tasklet]:
        return [n for n in self.graph.nodes if isinstance(n, Tasklet)]

    # -- validation ----------------------------------------------------------
    def validate(self):
        g = self.graph
        if not nx.is_directed_acyclic_graph(g):
            raise InvalidSDFGError(f"state {self.label!r} contains a cycle")
        for u, v, d in g.edges(data=True):
            mem: Optional[Memlet] = d.get("memlet")
            if mem is None:
                continue
            if mem.data not in self.sdfg.arrays:
                raise InvalidSDFGError(
                    f"memlet references unknown array {mem.data!r}"
                )
            desc = self.sdfg.arrays[mem.data]
            if len(mem.subset) != desc.rank:
                raise InvalidSDFGError(
                    f"memlet {mem!r} rank {len(mem.subset)} != array rank {desc.rank}"
                )
        for n in g.nodes:
            if isinstance(n, Tasklet):
                in_conns = {
                    d.get("dst_conn") for _, _, d in g.in_edges(n, data=True)
                }
                for conn in n.inputs:
                    if conn not in in_conns:
                        raise InvalidSDFGError(
                            f"tasklet {n.label!r}: input connector {conn!r} unconnected"
                        )
                out_conns = {
                    d.get("src_conn") for _, _, d in g.out_edges(n, data=True)
                }
                for conn in n.outputs:
                    if conn not in out_conns:
                        raise InvalidSDFGError(
                            f"tasklet {n.label!r}: output connector {conn!r} unconnected"
                        )
            if isinstance(n, MapEntry):
                self.exit_node(n)  # raises when missing

    def __repr__(self) -> str:
        return f"SDFGState({self.label}, {self.graph.number_of_nodes()} nodes)"


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

    def remove_array(self, name: str):
        del self.arrays[name]

    def add_state(self, label: str, is_start: bool = False) -> SDFGState:
        st = SDFGState(label, self)
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
        for st in self.states:
            for n in st.graph.nodes:
                if isinstance(n, NestedSDFG):
                    n.sdfg.validate()
                    for inner, outer in n.array_mapping.items():
                        if outer not in self.arrays:
                            raise InvalidSDFGError(
                                f"nested SDFG maps {inner!r} to unknown {outer!r}"
                            )

    def __repr__(self) -> str:
        return f"SDFG({self.name}, {len(self.states)} states, {len(self.arrays)} arrays)"
