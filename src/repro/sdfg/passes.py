"""Moves: the one serialisable transformation step.

A :class:`Move` is one step of an optimization
:class:`~repro.sdfg.pipeline.Pipeline` — the paper's Fig. 8 → 12 recipe
(:mod:`repro.core.recipe`) and the autotuner's searched pipelines
(:mod:`repro.autotune`) are both sequences of moves.  Where a raw
:class:`~repro.sdfg.transformations.Transformation` is constructed around
explicit graph nodes, a move is *pure data*: a kind plus a spec of array
names, parameter names and permutations (batch substitutions name a
:class:`BatchTemplate` of a :class:`MoveLibrary`).  :meth:`Move.run`
selects its application sites at run time through the kind's
transformation :meth:`~repro.sdfg.transformations.Transformation.match`
enumeration and one site selector per kind, so a move can be reported,
serialized (:meth:`Move.to_dict` / :func:`move_from_dict`) and
re-applied to freshly built graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .graph import SDFG, SDFGState
from .memlet import Memlet
from .nodes import Tasklet
from .transformations import (
    ArrayShrink,
    BatchedOperationSubstitution,
    DataLayoutTransformation,
    MapExpansion,
    MapFission,
    MapFusion,
    Site,
    Transformation,
)
from .transformations.redundancy import RedundantComputationRemoval

__all__ = [
    "PassError",
    "KIND_PRIORITY",
    "BatchTemplate",
    "MoveLibrary",
    "Move",
    "move_from_dict",
]


class PassError(ValueError):
    """A move found no (or ambiguously many) matching sites."""


#: deterministic tiebreak order between move kinds: structural wins
#: (fission/redundancy) first, then the payoff moves, then the
#: byte-neutral enablers.
KIND_PRIORITY: Dict[str, int] = {
    "fission": 0,
    "redundancy": 1,
    "batch": 2,
    "shrink": 3,
    "layout": 4,
    "expand": 5,
    "fuse": 6,
}


@dataclass(frozen=True)
class BatchTemplate:
    """A reusable batched-tasklet substitution a batch move instantiates.

    Templates are the library's physical-operator vocabulary (which
    batched kernels exist — e.g. "the per-(kz, E) multiplications form
    one GEMM"); *when* a template applies is decided structurally:
    every array in ``required_layouts`` must currently have exactly the
    required symbolic shape (rank gates included), and a matching
    :class:`BatchedOperationSubstitution` site must exist.  When the
    shapes differ only by a permutation, the autotuner offers the
    layout move establishing them instead.
    """

    name: str
    description: str
    #: the array whose single-tasklet producer is substituted
    array: str
    #: map parameters absorbed into the batched tasklet
    batch_params: Tuple[str, ...]
    #: prototype replacement tasklet (fresh nodes are cloned per use)
    tasklet: Tasklet
    in_memlets: Mapping[str, Memlet]
    out_memlets: Mapping[str, Memlet]
    #: array name -> symbolic shape the template's memlets assume
    required_layouts: Mapping[str, Tuple[Any, ...]]


@dataclass(frozen=True)
class MoveLibrary:
    """The batch templates batch moves resolve by name."""

    templates: Tuple[BatchTemplate, ...] = ()

    def template(self, name: str) -> BatchTemplate:
        for t in self.templates:
            if t.name == name:
                return t
        raise PassError(
            f"no batch template {name!r} in library "
            f"({[t.name for t in self.templates]})"
        )


def _describe_sites(state: SDFGState, sites: Sequence[Site]) -> str:
    """Render candidate sites as indented lines for failure messages.

    Each line shows the site's own description (transformation, scope,
    arrays, params) plus the labels of the scope chain enclosing its
    anchor node, so a failing selection names concrete graph locations.
    """
    if not sites:
        return ""
    lines = []
    for site in sites:
        text = site.describe()
        if site.nodes:
            try:
                chain = state.scope_index().scope_chain(site.nodes[0])
            except Exception:
                chain = []
            if chain:
                text += (
                    " (scope chain: "
                    + " < ".join(e.map.label for e in chain)
                    + ")"
                )
        lines.append(f"  - {text}")
    return "; candidate sites:\n" + "\n".join(lines)


@dataclass(frozen=True)
class Move:
    """One serializable transformation step: a kind plus its spec.

    Spec keys per kind (optional ones in brackets): ``fission``
    ``{[scope], [reduce]}``; ``redundancy`` ``{array, params}``;
    ``layout`` ``{perms, [template]}``; ``batch`` ``{template}``;
    ``expand`` ``{outer}``; ``fuse`` ``{params, [label]}``;
    ``shrink`` ``{array | arrays, params}``.
    """

    kind: str
    spec: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        # Canonical spec: sequences become tuples, so a move's ``key``
        # is stable across the JSON round trip (lists) and whatever
        # container the enumerator happened to build.
        object.__setattr__(self, "spec", _canon(self.spec))

    @property
    def priority(self) -> int:
        return KIND_PRIORITY[self.kind]

    @property
    def key(self) -> str:
        """Deterministic identity/ordering key."""
        items = sorted((k, repr(v)) for k, v in self.spec.items())
        return f"{self.kind}:{items!r}"

    def describe(self) -> str:
        s = self.spec
        if self.kind == "fission":
            red = s.get("reduce") or {}
            extra = f", reducing {red}" if red else ""
            where = f" of {s['scope']!r}" if "scope" in s else ""
            return f"fission{where}{extra}"
        if self.kind == "redundancy":
            return f"remove {list(s['params'])} offsets from {s['array']!r}"
        if self.kind == "layout":
            enables = (
                f" (enables {s['template']!r})" if "template" in s else ""
            )
            return f"permute {sorted(s['perms'])}{enables}"
        if self.kind == "batch":
            return f"batch substitution {s['template']!r}"
        if self.kind == "expand":
            return f"hoist {list(s['outer'])} to outer maps"
        if self.kind == "fuse":
            return f"fuse scopes over {list(s['params'])}"
        if self.kind == "shrink":
            arrays = s["arrays"] if "arrays" in s else s["array"]
            return f"shrink {arrays!r} over {list(s['params'])}"
        return f"{self.kind} {s}"

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "spec": _plain(self.spec)}

    def run(
        self,
        sdfg: SDFG,
        state: SDFGState,
        library: Optional[MoveLibrary] = None,
    ) -> Tuple[str, ...]:
        """Apply the move to ``state`` in place; returns the reprs of the
        transformations applied (batch moves resolve their template via
        ``library``)."""
        if self.kind not in _SELECTORS:
            raise PassError(f"unknown move kind {self.kind!r}")
        transformation, select = _SELECTORS[self.kind]
        sites = transformation.match(sdfg, state)
        chosen = select(self, state, sites, library)
        if not chosen:
            raise PassError(
                f"move {self.describe()!r}: no matching site for "
                f"{transformation.__name__} in state {state.label!r}"
                + _describe_sites(state, sites)
            )
        for tx in chosen:
            tx.apply_checked(sdfg, state)
        return tuple(repr(tx) for tx in chosen)


def _plain(value):
    """JSON-serializable copy (tuples -> lists, nested dicts kept)."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _canon(value):
    """Canonical in-memory form: every sequence a tuple."""
    if isinstance(value, dict):
        return {k: _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v) for v in value)
    return value


def move_from_dict(d: Mapping[str, Any]) -> Move:
    """Rebuild a move from its :meth:`Move.to_dict` form (trace resume).
    ``Move`` canonicalizes the spec, so the JSON lists are harmless."""
    return Move(kind=d["kind"], spec=dict(d["spec"]))


# -- site selection, one function per kind ------------------------------------


def _unique(
    move: Move,
    sites: List[Site],
    what: str,
    state: SDFGState,
    candidates: List[Site],
) -> Site:
    """The single site matching the move's spec.

    On failure the error lists the candidate sites — the ones that
    matched the move's filter when it is over-matched, the full
    ``match()`` enumeration when nothing matched — with node labels
    and scope chains, so search- and user-surfaced errors are
    actionable rather than a bare count.
    """
    if len(sites) != 1:
        shown = sites if sites else candidates
        raise PassError(
            f"move {move.describe()!r}: expected exactly one site {what}, "
            f"found {len(sites)}" + _describe_sites(state, shown)
        )
    return sites[0]


def _fission(move, state, sites, library):
    """The (unique) multi-tasklet map, or the one labelled ``scope``."""
    scope = move.spec.get("scope")
    hits = [s for s in sites if scope is None or s.scope == scope]
    site = _unique(move, hits, "to fission", state, sites)
    reduce = move.spec.get("reduce") or {}
    return [
        MapFission(
            site.nodes[0], reduce={k: list(v) for k, v in reduce.items()}
        )
    ]


def _redundancy(move, state, sites, library):
    """Offset-only ``params`` of the producer of ``array``."""
    array, params = move.spec["array"], move.spec["params"]
    hits = [
        s for s in sites if array in s.arrays and set(params) <= set(s.params)
    ]
    site = _unique(move, hits, f"producing {array!r}", state, sites)
    return [RedundantComputationRemoval(site.nodes[0], array, list(params))]


def _layout(move, state, sites, library):
    """Permute the dimensions of the given arrays SDFG-wide."""
    referenced = {a for s in sites for a in s.arrays}
    out = []
    for array, perm in move.spec["perms"].items():
        if array not in referenced:
            raise PassError(
                f"move {move.describe()!r}: array {array!r} not referenced "
                f"in state {state.label!r}" + _describe_sites(state, sites)
            )
        out.append(DataLayoutTransformation(array, perm))
    return out


def _batch(move, state, sites, library):
    """Swap the single-tasklet producer of the template's array for a
    fresh instance of its batched tasklet."""
    name = move.spec["template"]
    if library is None:
        raise PassError(f"batch move {name!r} needs a MoveLibrary")
    t = library.template(name)
    hits = [
        s
        for s in sites
        if t.array in s.arrays and set(t.batch_params) <= set(s.params)
    ]
    site = _unique(move, hits, f"writing {t.array!r}", state, sites)
    # Fresh node and memlet instances per application: the template is a
    # reusable declaration, the graph owns what it attaches.
    proto = t.tasklet
    fresh = Tasklet(
        proto.label, proto.inputs, proto.outputs, proto.code,
        proto.flops, op=proto.op,
    )

    def clone(m: Memlet) -> Memlet:
        return Memlet(m.data, m.subset, accesses=m.accesses, wcr=m.wcr)

    return [
        BatchedOperationSubstitution(
            site.nodes[0],
            list(t.batch_params),
            fresh,
            in_memlets={k: clone(m) for k, m in t.in_memlets.items()},
            out_memlets={k: clone(m) for k, m in t.out_memlets.items()},
        )
    ]


def _expand(move, state, sites, library):
    """Hoist ``outer`` out of every top-level map carrying more params."""
    outer = move.spec["outer"]
    top = set(state.scope_index().top_level_maps())
    return [
        MapExpansion(s.nodes[0], list(outer))
        for s in sites
        # a strict subset: each map must keep a non-empty inner map
        if s.nodes[0] in top and set(outer) < set(s.params)
    ]


def _fuse(move, state, sites, library):
    """The (unique) group of identically-ranged top-level scopes over
    ``params``."""
    hits = [s for s in sites if s.params == move.spec["params"]]
    site = _unique(move, hits, "of fusable scopes", state, sites)
    return [MapFusion(list(site.nodes), label=move.spec.get("label", "fused"))]


def _shrink(move, state, sites, library):
    """Drop the ``params``-indexed dimensions of each named transient."""
    s = move.spec
    params = s["params"]
    out = []
    for array in s["arrays"] if "arrays" in s else (s["array"],):
        hits = [x for x in sites if array in x.arrays]
        site = _unique(move, hits, f"shrinking {array!r}", state, sites)
        keep = [
            (pos, p) for pos, p in zip(site.dims, site.params) if p in params
        ]
        if not keep:
            raise PassError(
                f"move {move.describe()!r}: no shrinkable dims of {array!r} "
                f"indexed by {params}" + _describe_sites(state, sites)
            )
        out.append(
            ArrayShrink(array, [pos for pos, _ in keep], [p for _, p in keep])
        )
    return out


#: kind -> (transformation whose match() enumerates the sites, selector)
_SELECTORS: Dict[str, Tuple[type, Callable[..., List[Transformation]]]] = {
    "fission": (MapFission, _fission),
    "redundancy": (RedundantComputationRemoval, _redundancy),
    "layout": (DataLayoutTransformation, _layout),
    "batch": (BatchedOperationSubstitution, _batch),
    "expand": (MapExpansion, _expand),
    "fuse": (MapFusion, _fuse),
    "shrink": (ArrayShrink, _shrink),
}
