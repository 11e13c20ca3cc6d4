"""Greedy search over the transformation move space.

The search minimizes the paper's §4.1 modeled data movement
(:func:`~repro.sdfg.pipeline.measure_movement`, evaluated at the *target*
symbol bindings) lexicographically with the transient footprint
(:func:`~repro.sdfg.pipeline._transient_bytes`) as tiebreaker.  It
commits the best strictly-improving move per step; on a plateau it runs
a bounded breadth-first probe over byte-neutral *enabler* moves
(template layouts, expansions, fusions) and commits the shortest enabler
chain ending in an improvement — this is how the layout -> batch and
expand -> fuse -> shrink sequences are found without domain hints.

Searches are deterministic and seedless: move enumeration, scoring and
every tiebreak are fully ordered, so the same graph, library and config
always produce the same pipeline.  Progress is checkpointed to a JSON
trace after every commitment; rerunning with the same ``trace_path``
replays the committed prefix (validating state signatures step by step)
and continues — or just rebuilds the result when the trace is complete.
Replayed moves are not evaluations: a resumed search reports the
trace's recorded count plus what it evaluated after the replay.

Configuration is :class:`SearchConfig`; only the move budget has an
environment default (``REPRO_AUTOTUNE_MAX_MOVES``, which the e2e
benchmark's ``--smoke`` mode sets).  Verification of the winner is
fixed: every stage runs through the ``interpreter`` backend on seed-0
inputs and must match the reference kernel to 1e-10.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..config import default_autotune_max_moves
from ..sdfg import Pipeline, PipelineReport
from ..sdfg.pipeline import _transient_bytes, measure_movement
from ..telemetry.spans import trace
from .space import (
    AutotuneError,
    Move,
    MoveLibrary,
    apply_move,
    enumerate_moves,
    move_from_dict,
    state_signature,
)

__all__ = [
    "SearchConfig",
    "SearchTrace",
    "SearchResult",
    "autotune",
]

#: (modeled bytes moved, transient bytes) — compared lexicographically
Score = Tuple[int, int]

#: longest byte-neutral enabler chain a plateau escape probes: the
#: longest such chain the move space produces before a payoff
_ESCAPE_DEPTH = 4


@dataclass(frozen=True)
class SearchConfig:
    """Autotune search configuration.  ``max_moves=None`` resolves to
    :func:`~repro.config.default_autotune_max_moves`; any other value
    must be a positive int."""

    max_moves: Optional[int] = None
    #: verify every stage of the winning pipeline against the base
    #: pipeline's reference kernel (requires ``verify_dims``)
    verify: bool = True
    verify_dims: Optional[Dict[str, int]] = None

    def resolved(self) -> "SearchConfig":
        value = self.max_moves
        if value is not None and (not isinstance(value, int) or value < 1):
            raise AutotuneError(
                f"max_moves={value!r} must be a positive integer"
            )
        return replace(self, max_moves=value or default_autotune_max_moves())


@dataclass
class SearchTrace:
    """The resumable JSON record of one search run."""

    pipeline: str
    dims: Dict[str, int]
    steps: List[Dict[str, Any]] = field(default_factory=list)
    evaluations: int = 0
    completed: bool = False
    version: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "pipeline": self.pipeline,
            "dims": dict(self.dims),
            "steps": list(self.steps),
            "evaluations": self.evaluations,
            "completed": self.completed,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SearchTrace":
        return cls(
            pipeline=d["pipeline"],
            dims={k: int(v) for k, v in d["dims"].items()},
            steps=list(d["steps"]),
            evaluations=int(d.get("evaluations", 0)),
            completed=bool(d.get("completed", False)),
            version=int(d.get("version", 1)),
        )

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1))

    @classmethod
    def load(cls, path) -> "SearchTrace":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass
class SearchResult:
    """The winning pipeline with its movement report and provenance."""

    pipeline: Pipeline
    report: PipelineReport
    moves: Tuple[Move, ...]
    dims: Dict[str, int]
    evaluations: int
    trace: SearchTrace
    #: per-stage max error vs the reference kernel (None: not verified)
    verification: Optional[Dict[str, float]] = None

    @property
    def total_reduction(self) -> float:
        return self.report.total_reduction

    def describe(self) -> str:
        lines = [
            f"autotune[greedy] over {self.pipeline.name}: "
            f"{len(self.moves)} moves, {self.evaluations} evaluated, "
            f"{self.total_reduction:.1f}x less movement"
        ]
        for i, move in enumerate(self.moves):
            lines.append(f"  {i:2d} [{move.kind:10s}] {move.describe()}")
        return "\n".join(lines)


# -- search nodes -------------------------------------------------------------


@dataclass(frozen=True)
class _Node:
    sdfg: Any
    score: Score
    signature: str
    #: committed (move, pass) pairs from the base state, in order
    moves: Tuple[Move, ...] = ()
    passes: Tuple[Any, ...] = ()
    #: serialized step records (one per move), for the trace
    history: Tuple[Dict[str, Any], ...] = ()

    @property
    def depth(self) -> int:
        return len(self.moves)


def _score(sdfg, dims, hooks) -> Score:
    moved = measure_movement(sdfg, dims, hooks)
    return (sum(moved.values()), _transient_bytes(sdfg, dims))


def _rank(node: _Node) -> tuple:
    last = node.moves[-1]
    return (
        node.score,
        last.priority,
        "|".join(m.key for m in node.moves),
    )


def _is_enabler(move: Move) -> bool:
    """Byte-neutral kinds the plateau escape may chain."""
    return move.kind in ("layout", "expand", "fuse")


class _Search:
    """Successor expansion and the evaluation count."""

    def __init__(self, library: MoveLibrary, dims, hooks):
        self.library = library
        self.dims = dict(dims)
        self.hooks = hooks
        self.evaluations = 0

    def child(self, node: _Node, move: Move) -> Optional[_Node]:
        stage = f"t{node.depth:02d}_{move.kind}"
        try:
            with trace(
                "autotune.candidate", stage=stage, kind=move.kind,
                depth=node.depth,
            ):
                sdfg, p = apply_move(node.sdfg, move, stage, self.library)
                score = _score(sdfg, self.dims, self.hooks)
        except (ValueError, KeyError):
            return None  # not legal from here: not a child
        sig = state_signature(sdfg)
        step = {
            "index": node.depth,
            "stage": stage,
            "kind": move.kind,
            "spec": move.to_dict()["spec"],
            "description": move.describe(),
            "score": list(score),
            "signature": sig,
        }
        return _Node(
            sdfg=sdfg,
            score=score,
            signature=sig,
            moves=node.moves + (move,),
            passes=node.passes + (p,),
            history=node.history + (step,),
        )

    def children(self, node: _Node) -> List[_Node]:
        """All legal scored successors, each one an evaluation."""
        state = node.sdfg.states[0]
        out = []
        for move in enumerate_moves(node.sdfg, state, self.library):
            c = self.child(node, move)
            if c is not None:
                out.append(c)
        self.evaluations += len(out)
        return out


def _greedy(search: _Search, root: _Node, cfg: SearchConfig, on_commit):
    cur = root
    while cur.depth < cfg.max_moves:
        kids = search.children(cur)
        improving = [c for c in kids if c.score < cur.score]
        if improving:
            cur = min(improving, key=_rank)
            on_commit(cur)
            continue
        # Plateau: breadth-first probe over byte-neutral enabler chains,
        # committing the first (shortest) chain that ends in a strictly
        # better state.  Signature dedup prunes re-converging chains.
        winner = _escape(search, cur, kids)
        if winner is None:
            break
        cur = winner
        on_commit(cur)
    return cur


def _escape(
    search: _Search,
    origin: _Node,
    first_level: List[_Node],
) -> Optional[_Node]:
    """Shortest enabler chain from ``origin`` ending strictly better.

    ``first_level`` is the already-scored set of origin's children (the
    greedy step just evaluated them), so level 1 costs nothing extra."""
    seen = {origin.signature}
    level = list(first_level)
    for depth in range(1, _ESCAPE_DEPTH + 1):
        winners = [c for c in level if c.score < origin.score]
        if winners:
            return min(winners, key=_rank)
        if depth == _ESCAPE_DEPTH:
            return None
        frontier: List[_Node] = []
        for c in level:
            if (
                c.score == origin.score
                and _is_enabler(c.moves[-1])
                and c.signature not in seen
            ):
                seen.add(c.signature)
                frontier.append(c)
        if not frontier:
            return None
        level = [c for node in frontier for c in search.children(node)]
    return None


# -- the entry point ----------------------------------------------------------


def autotune(
    base: Pipeline,
    library: MoveLibrary,
    dims: Mapping[str, int],
    config: Optional[SearchConfig] = None,
    trace_path=None,
) -> SearchResult:
    """Search for a transformation pipeline minimizing modeled movement.

    ``base`` carries the problem — graph factory, indirection hooks,
    input factory and reference kernel (its own passes, usually none,
    are applied first and kept as a prefix).  ``dims`` are the *target*
    symbol bindings the byte model is evaluated at; the search itself is
    purely symbolic/structural, so paper-scale dims cost the same as toy
    dims.  With ``config.verify`` (default), every stage of the winning
    pipeline is executed against the reference kernel at
    ``config.verify_dims`` before the result is returned — a searched
    sequence that fails verification raises :class:`AutotuneError`.

    ``trace_path`` makes the search resumable: progress is saved after
    every commitment, and an existing trace's committed prefix is
    replayed (signatures validated) instead of searched again.
    """
    cfg = (config or SearchConfig()).resolved()
    hooks = base.hooks()
    sdfg = base.graph_factory()
    for p in base.passes:
        p.run(sdfg, sdfg.states[0])
    root = _Node(
        sdfg=sdfg,
        score=_score(sdfg, dims, hooks),
        signature=state_signature(sdfg),
    )

    search = _Search(library, dims, hooks)
    trace = SearchTrace(pipeline=base.name, dims=dict(dims))
    start = root
    completed = False
    if trace_path is not None and Path(trace_path).exists():
        prior = SearchTrace.load(trace_path)
        if prior.dims != dict(dims):
            raise AutotuneError(
                f"trace {str(trace_path)!r} records a search at "
                f"{prior.dims}; requested {dict(dims)}"
            )
        start = _replay(search, root, prior.steps)
        search.evaluations = prior.evaluations
        trace = prior
        trace.steps = list(start.history)
        completed = prior.completed

    def checkpoint(node: _Node, done: bool = False) -> None:
        trace.steps = list(node.history)
        trace.evaluations = search.evaluations
        trace.completed = done
        if trace_path is not None:
            trace.save(trace_path)

    final = start if completed else _greedy(search, start, cfg, checkpoint)
    checkpoint(final, done=True)

    tuned = Pipeline(
        name=f"{base.name}_greedy",
        passes=list(base.passes) + list(final.passes),
        graph_factory=base.graph_factory,
        initial=base.initial,
        hooks=hooks,
        make_inputs=base.make_inputs,
        reference=base.reference,
    )
    verification = None
    if (
        cfg.verify
        and cfg.verify_dims
        and base.make_inputs is not None
        and base.reference is not None
    ):
        try:
            # Pipeline.compile's defaults: seed-0 inputs, 1e-10 tolerances
            compiled = tuned.compile(
                verify_dims=cfg.verify_dims, backend="interpreter"
            )
        except AssertionError as exc:
            raise AutotuneError(
                f"searched pipeline failed stage verification: {exc}"
            ) from exc
        verification = compiled.verification
    return SearchResult(
        pipeline=tuned,
        report=tuned.report(dims),
        moves=final.moves,
        dims=dict(dims),
        evaluations=search.evaluations,
        trace=trace,
        verification=verification,
    )


def _replay(search: _Search, root: _Node, steps: List[Dict]) -> _Node:
    """Re-apply a trace's committed moves, validating state signatures.
    Replayed moves are not evaluations (only :meth:`_Search.children`
    counts)."""
    node = root
    for step in steps:
        move = move_from_dict(step)
        child = search.child(node, move)
        if child is None:
            raise AutotuneError(
                f"trace step {step['index']} ({step['kind']}) no longer "
                f"applies — the move space or graph factory changed"
            )
        if child.signature != step["signature"]:
            raise AutotuneError(
                f"trace step {step['index']} ({step['kind']}) reached "
                f"signature {child.signature}, trace records "
                f"{step['signature']} — refusing to resume a diverged trace"
            )
        node = child
    return node
