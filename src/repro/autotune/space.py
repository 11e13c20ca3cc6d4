"""Move-space enumeration: legal next steps from any SDFG state.

The autotuner treats optimization recipes as data: a
:class:`~repro.sdfg.passes.Move` is one serializable transformation step
(the same step type the hand recipe is written in), and
:func:`enumerate_moves` lists every move that is legal from the current
graph by reading each move kind's transformation ``match()`` site
enumeration —

* **fission** sites with parameter reductions discovered structurally
  (:func:`discover_reductions`),
* **redundancy** removal sites as matched,
* **batch** substitutions driven by a
  :class:`~repro.sdfg.passes.BatchTemplate` library
  (the only domain knowledge the search receives: which replacement
  tasklets exist, *not* when to apply them),
* **layout permutations** establishing a template's required array
  layouts, and
* **expansion** subsets shared by top-level scopes, **fusion** groups
  and **shrink** sites as matched.

Only kinds the greedy search can commit are enumerated.  A pure array
permutation leaves the §4.1 element count of every memlet unchanged and
tiling an iteration space can only keep or raise it, so neither a
generic layout rotation nor a tiling is ever a strict improvement or a
plateau enabler; the space holds neither.

Every move re-selects its site through a fresh ``match()`` when applied
(:meth:`~repro.sdfg.passes.Move.run`), so a candidate that no longer
matches fails loudly instead of silently transforming the wrong scope;
:func:`apply_move` is the search's applicator, and search expansion
drops the moves it rejects, making the enumerated frontier legal by
construction.
"""

from __future__ import annotations

import copy
import hashlib
from itertools import combinations
from typing import Any, Dict, List, Optional, Tuple

from ..sdfg import SDFG, SDFGState, Tasklet
from ..sdfg.nodes import AccessNode, MapEntry, MapExit
from ..sdfg.passes import Move, MoveLibrary
from ..sdfg.transformations import (
    ArrayShrink,
    BatchedOperationSubstitution,
    MapFission,
    MapFusion,
)
from ..sdfg.transformations.redundancy import RedundantComputationRemoval

__all__ = [
    "AutotuneError",
    "discover_reductions",
    "enumerate_moves",
    "apply_move",
    "state_signature",
]


class AutotuneError(ValueError):
    """The search was misconfigured or produced an invalid result."""


# -- structural discovery -----------------------------------------------------


def _direct_params(state: SDFGState, tasklet: Tasklet, params) -> set:
    """Map parameters appearing in the tasklet's own memlet subsets."""
    out = set()
    for u, v, d in state.edges():
        mem = d.get("memlet")
        if mem is None or (u is not tasklet and v is not tasklet):
            continue
        out |= set(mem.subset.free_symbols) & set(params)
    return out


def discover_reductions(
    sdfg: SDFG, state: SDFGState, site
) -> Dict[str, List[str]]:
    """Parameters that fission can sum away per intermediate (Fig. 9's
    ``j``-reduction), found structurally:

    a parameter ``p`` is reducible into intermediate ``v`` iff it indexes
    only ``v``'s producer (no other tasklet in the scope touches it),
    every non-transient write of the scope accumulates with ``wcr=sum``
    (so summing early commutes with the final accumulation), and every
    transitive consumer of ``v`` carries a declarative multilinear ``op``
    annotation (the linearity witness that justifies pushing the sum
    through).  On the paper's Fig. 8 kernel this recovers exactly
    ``{"dHD": ["j"]}``.
    """
    entry: MapEntry = site.nodes[0]
    children = state.scope_index().scope_children(entry)
    tasklets = [n for n in children if isinstance(n, Tasklet)]
    params = list(entry.map.params)
    directs = {t: _direct_params(state, t, params) for t in tasklets}

    # Every final (non-transient) write must be a sum accumulation.
    for t in tasklets:
        for u, v, d in state.out_edges(t):
            mem = d.get("memlet")
            if mem is None:
                continue
            if not sdfg.arrays[mem.data].transient and mem.wcr != "sum":
                return {}

    # Producer / consumers per intermediate; transitive consumer closure.
    producer: Dict[str, Tasklet] = {}
    consumers: Dict[str, List[Tasklet]] = {}
    for u, v, d in state.edges():
        mem = d.get("memlet")
        if mem is None or mem.data not in site.arrays:
            continue
        if isinstance(u, Tasklet) and isinstance(v, AccessNode):
            producer[mem.data] = u
        if isinstance(v, Tasklet) and isinstance(u, AccessNode):
            consumers.setdefault(mem.data, []).append(v)

    def transitive_consumers(array: str) -> List[Tasklet]:
        out, todo = [], list(consumers.get(array, []))
        while todo:
            t = todo.pop()
            if t in out:
                continue
            out.append(t)
            for u, v, d in state.out_edges(t):
                mem = d.get("memlet")
                if mem is not None and mem.data in site.arrays:
                    todo.extend(consumers.get(mem.data, []))
        return out

    found: Dict[str, List[str]] = {}
    for array in site.arrays:
        prod = producer.get(array)
        if prod is None:
            continue
        downstream = transitive_consumers(array)
        if not downstream or any(t.op is None for t in downstream):
            continue
        reducible = [
            p
            for p in params
            if p in directs[prod]
            and all(p not in directs[t] for t in tasklets if t is not prod)
        ]
        if reducible:
            found[array] = reducible
    return found


# -- per-kind move generators -------------------------------------------------


def _fission_moves(sdfg: SDFG, state: SDFGState) -> List[Move]:
    moves = []
    for site in MapFission.match(sdfg, state):
        reduce = discover_reductions(sdfg, state, site)
        variants = [reduce, {}] if reduce else [{}]
        for red in variants:
            moves.append(
                Move(
                    "fission",
                    {
                        "scope": site.scope,
                        # tuples: the JSON round trip through
                        # move_from_dict must preserve the move key
                        "reduce": {k: tuple(v) for k, v in red.items()},
                    },
                )
            )
    return moves


def _redundancy_moves(sdfg: SDFG, state: SDFGState) -> List[Move]:
    return [
        Move(
            "redundancy",
            {"array": site.arrays[0], "params": tuple(site.params)},
        )
        for site in RedundantComputationRemoval.match(sdfg, state)
    ]


def _layout_perm(current, required) -> Optional[Tuple[int, ...]]:
    """A new-from-old permutation mapping ``current`` onto ``required``
    by greedy positional matching of symbolically equal extents (handles
    duplicated extents such as the two Norb axes), or ``None`` when the
    shapes are not a permutation of each other (rank gate included)."""
    if len(current) != len(required):
        return None
    used: set = set()
    perm = []
    for req in required:
        for j, cur in enumerate(current):
            if j not in used and cur == req:
                used.add(j)
                perm.append(j)
                break
        else:
            return None
    return tuple(perm)


def _template_moves(
    sdfg: SDFG, state: SDFGState, library: MoveLibrary
) -> List[Move]:
    """Batch moves whose template is applicable now, or the layout move
    establishing a template's required layouts when only those differ."""
    sites = BatchedOperationSubstitution.match(sdfg, state)
    moves = []
    for t in library.templates:
        perms: Dict[str, Tuple[int, ...]] = {}
        applicable = True
        for array, required in t.required_layouts.items():
            desc = sdfg.arrays.get(array)
            if desc is None:
                applicable = False
                break
            current = tuple(desc.shape)
            if current == tuple(required):
                continue
            perm = _layout_perm(current, tuple(required))
            if perm is None:
                applicable = False
                break
            perms[array] = perm
        if not applicable:
            continue
        if not any(
            t.array in s.arrays and set(t.batch_params) <= set(s.params)
            for s in sites
        ):
            continue
        if perms:
            moves.append(
                Move(
                    "layout",
                    {
                        "perms": {a: list(p) for a, p in sorted(perms.items())},
                        "template": t.name,
                    },
                )
            )
        else:
            moves.append(Move("batch", {"template": t.name}))
    return moves


def _expansion_moves(state: SDFGState) -> List[Move]:
    """Hoistable parameter subsets shared (name and range) by at least
    two top-level scopes, each leaving a non-empty inner map."""
    tops = state.scope_index().top_level_maps()
    if len(tops) < 2:
        return []

    def binding(entry, p):
        m = entry.map
        return m.range.dims[m.params.index(p)]

    common_sets = []
    for e1, e2 in combinations(tops, 2):
        shared = tuple(
            p
            for p in e1.map.params
            if p in e2.map.params and binding(e1, p) == binding(e2, p)
        )
        if shared and shared not in common_sets:
            common_sets.append(shared)

    seen: set = set()
    moves = []
    for shared in common_sets:
        for size in range(1, min(len(shared), 4) + 1):
            for subset in combinations(shared, size):
                if subset in seen:
                    continue
                seen.add(subset)
                # Expansion must act on >= 2 scopes (else no fusion can
                # follow it; hoisting one scope alone is pure noise) and
                # leave every affected scope a non-empty inner map —
                # the expand move enforces the latter per map.
                eligible = [
                    e for e in tops if set(subset) < set(e.map.params)
                ]
                if len(eligible) < 2:
                    continue
                moves.append(Move("expand", {"outer": subset}))
    return moves


def _fuse_moves(sdfg: SDFG, state: SDFGState) -> List[Move]:
    return [
        Move(
            "fuse",
            {
                "params": tuple(site.params),
                "label": "fused_" + "_".join(site.params),
            },
        )
        for site in MapFusion.match(sdfg, state)
    ]


def _shrink_moves(sdfg: SDFG, state: SDFGState) -> List[Move]:
    return [
        Move(
            "shrink",
            {"array": site.arrays[0], "params": tuple(site.params)},
        )
        for site in ArrayShrink.match(sdfg, state)
    ]


def enumerate_moves(
    sdfg: SDFG, state: SDFGState, library: MoveLibrary
) -> List[Move]:
    """Every candidate next move from the current graph, in deterministic
    kind-priority order.  Legality is structural (each generator reads a
    fresh ``match()`` enumeration); moves that still fail to apply are
    discarded by :func:`apply_move` during search expansion."""
    moves: List[Move] = []
    moves += _fission_moves(sdfg, state)
    moves += _redundancy_moves(sdfg, state)
    moves += _template_moves(sdfg, state, library)
    moves += _shrink_moves(sdfg, state)
    moves += _expansion_moves(state)
    moves += _fuse_moves(sdfg, state)
    moves.sort(key=lambda m: (m.priority, m.key))
    return moves


def apply_move(
    sdfg: SDFG, move: Move, library: Optional[MoveLibrary] = None
) -> SDFG:
    """Apply ``move`` to a deep copy of ``sdfg`` and validate it — the
    one applicator of search expansion and trace replay.  Raises
    ``ValueError`` subclasses (``PassError``/``TransformationError``/...)
    when the move does not apply — search expansion treats that as 'not
    a child'."""
    out = copy.deepcopy(sdfg)
    move.run(out, out.states[0], library)
    out.validate()
    return out


# -- state identity -----------------------------------------------------------


def state_signature(sdfg: SDFG) -> str:
    """A deterministic structural fingerprint for search deduplication.

    Covers array descriptors (name, symbolic shape, transience) and, per
    state, the topologically ordered nodes with their full configuration
    plus every edge's memlet.  Graphs reached by replaying the same move
    sequence produce identical signatures (the basis of trace resume);
    distinct build histories of isomorphic graphs may differ — the
    conservative direction for deduplication.
    """
    parts: List[str] = []
    for name in sorted(sdfg.arrays):
        d = sdfg.arrays[name]
        parts.append(f"A|{name}|{tuple(d.shape)!r}|{int(d.transient)}")
    for st in sdfg.states:
        ids: Dict[Any, int] = {}
        for n in st.topological_nodes():
            ids[n] = len(ids)
            if isinstance(n, Tasklet):
                parts.append(
                    f"T|{ids[n]}|{n.label}|{list(n.inputs)}|"
                    f"{list(n.outputs)}|{n.op}"
                )
            elif isinstance(n, MapEntry):
                parts.append(
                    f"ME|{ids[n]}|{n.map.label}|{list(n.map.params)}|"
                    f"{n.map.range!r}"
                )
            elif isinstance(n, MapExit):
                parts.append(f"MX|{ids[n]}|{n.map.label}")
            elif isinstance(n, AccessNode):
                parts.append(f"AN|{ids[n]}|{n.data}")
            else:
                parts.append(f"N|{ids[n]}|{type(n).__name__}")
        edges = sorted(
            f"E|{ids[u]}|{ids[v]}|{d.get('memlet')!r}|"
            f"{d.get('src_conn')}|{d.get('dst_conn')}"
            for u, v, d in st.edges()
        )
        parts.extend(edges)
    return hashlib.sha1("\n".join(parts).encode()).hexdigest()[:16]
