"""Pipeline: ordered moves with snapshots, movement accounting, compile.

The executable form of the paper's optimization workflow (§4):

* a :class:`Pipeline` is an ordered list of ``(stage, description,
  Move)`` steps (:class:`~repro.sdfg.passes.Move`) applied to a freshly
  built SDFG, snapshotting a :class:`Stage` after every step; batch
  moves resolve their template through the pipeline's
  :class:`~repro.sdfg.passes.MoveLibrary`;
* :func:`measure_movement` models the paper's §4.1 data-movement metric:
  every tasklet memlet's access count is multiplied by the iteration
  volumes of its enclosing map scopes (the count the Fig. 7 outward
  propagation forms; no subset is propagated) and evaluated in bytes
  under concrete symbol bindings — :meth:`Pipeline.report` tabulates
  this per stage as a serializable :class:`PipelineReport`;
* :meth:`Pipeline.compile` lowers every stage through a pluggable
  execution backend (:mod:`repro.sdfg.backends`: ``numpy`` code
  generation by default, ``interpreter`` as the oracle; selectable via
  the ``backend`` argument), verifies each
  stage against a reference kernel on concrete inputs, and yields a
  :class:`CompiledPipeline` — a callable executing the final (optimized)
  graph, with generated source attached for inspection.
"""

from __future__ import annotations

import copy
import json
import math
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

import numpy as np

from ..telemetry.spans import trace
from .backends import StageRunner, get_backend
from .backends.common import written_arrays as _written_arrays
from .graph import SDFG
from .memlet import Memlet
from .nodes import Tasklet
from .passes import Move, MoveLibrary

__all__ = [
    "Stage",
    "StageMovement",
    "PipelineReport",
    "Pipeline",
    "CompiledPipeline",
    "measure_movement",
    "format_bytes",
    "run_stage",
    "verify_stage",
    "check_stage_output",
]


@dataclass
class Stage:
    """A snapshot of the SDFG after one pipeline step.

    ``input_perms``/``output_perm`` record the physical-layout
    permutations accumulated by layout moves: callers permute the
    corresponding input arrays before interpretation and invert the
    output permutation afterwards (:func:`run_stage` does both).
    """

    name: str
    description: str
    sdfg: SDFG
    input_perms: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    output_perm: Optional[Tuple[int, ...]] = None
    #: transformations the producing move applied (reprs; () for initial)
    applied: Tuple[str, ...] = ()

    def __repr__(self) -> str:
        return f"Stage({self.name}: {self.description})"


# -- data-movement accounting ---------------------------------------------------


def measure_movement(sdfg: SDFG, env: Mapping[str, int]) -> Dict[str, int]:
    """Modeled bytes moved per array, summed over all tasklet memlets.

    Each memlet attached to a tasklet moves its access count once per
    iteration of its enclosing map scopes: the count is multiplied by
    every scope's iteration volume, innermost first.  That is the count
    the paper's Fig. 7 outward propagation
    (:func:`~repro.sdfg.propagation.propagate_through_maps`) forms; no
    propagated subset feeds it, so none is built.  Each factor is
    evaluated under ``env`` (integer products and sums equal the
    evaluated symbolic total) and the total scaled by the array element
    size.  Non-tasklet edges (the full-array memlets decorating scope
    boundaries) are not movement — they restate the same traffic one
    level out — and are skipped.
    """
    counts: Dict[str, int] = {}
    for st in sdfg.states:
        scopes = st.scope_index()
        for u, v, d in st.edges():
            mem: Optional[Memlet] = d.get("memlet")
            if mem is None:
                continue
            if isinstance(u, Tasklet):
                node = u
            elif isinstance(v, Tasklet):
                node = v
            else:
                continue
            count = mem.accesses.evaluate(env)
            for e in scopes.scope_chain(node):
                count *= e.map.range.num_elements().evaluate(env)
            counts[mem.data] = counts.get(mem.data, 0) + count
    return {
        name: n * sdfg.arrays[name].dtype.itemsize for name, n in counts.items()
    }


@dataclass(frozen=True)
class StageMovement:
    """One pipeline stage's modeled data movement and transient footprint."""

    name: str
    description: str
    #: modeled bytes moved, per array
    per_array: Dict[str, int]
    #: total bytes of transient (scratch) storage the stage allocates —
    #: the metric array shrinking improves (§4.2 footprint reduction)
    transient_bytes: int = 0
    #: transformations the stage's move applied
    applied: Tuple[str, ...] = ()

    @property
    def total_bytes(self) -> int:
        return sum(self.per_array.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "per_array": dict(self.per_array),
            "total_bytes": self.total_bytes,
            "transient_bytes": self.transient_bytes,
            "applied": list(self.applied),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "StageMovement":
        return cls(
            name=d["name"],
            description=d["description"],
            per_array={k: int(v) for k, v in d["per_array"].items()},
            transient_bytes=int(d.get("transient_bytes", 0)),
            applied=tuple(d.get("applied", ())),
        )


@dataclass(frozen=True)
class PipelineReport:
    """Per-stage data-movement accounting of one pipeline, serializable."""

    pipeline: str
    dims: Dict[str, int]
    stages: Tuple[StageMovement, ...]

    def stage(self, name: str) -> StageMovement:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(f"no stage {name!r} in report")

    @property
    def total_reduction(self) -> float:
        """Bytes-moved ratio of the first stage over the last."""
        return self.stages[0].total_bytes / max(
            self.stages[-1].total_bytes, 1
        )

    def reduction_vs_previous(self, index: int) -> float:
        """Bytes-moved ratio of stage ``index - 1`` over stage ``index``
        (1.0 for the initial stage: nothing precedes it)."""
        if index == 0:
            return 1.0
        prev = self.stages[index - 1].total_bytes
        return prev / max(self.stages[index].total_bytes, 1)

    def to_dict(self) -> Dict[str, Any]:
        stages = []
        for i, s in enumerate(self.stages):
            d = s.to_dict()
            # Derived per-stage fields (recomputed by from_dict round
            # trips): the position in the pipeline — stage order is
            # meaningful and must survive serialization consumers that
            # re-sort — and the reduction relative to the previous stage.
            d["index"] = i
            d["reduction_vs_previous"] = self.reduction_vs_previous(i)
            stages.append(d)
        return {
            "pipeline": self.pipeline,
            "dims": dict(self.dims),
            "stages": stages,
            "total_reduction": self.total_reduction,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "PipelineReport":
        return cls(
            pipeline=d["pipeline"],
            dims={k: int(v) for k, v in d["dims"].items()},
            stages=tuple(StageMovement.from_dict(s) for s in d["stages"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "PipelineReport":
        return cls.from_dict(json.loads(text))

    def describe(self) -> str:
        lines = [f"pipeline[{self.pipeline}] modeled data movement:"]
        first = self.stages[0].total_bytes
        for i, s in enumerate(self.stages):
            lines.append(
                f"  {i:2d} {s.name:8s} {format_bytes(s.total_bytes):>12s} "
                f"moved ({first / max(s.total_bytes, 1):6.1f}x less, "
                f"{self.reduction_vs_previous(i):6.1f}x vs prev), "
                f"{format_bytes(s.transient_bytes):>12s} scratch  "
                f"{s.description}"
            )
        return "\n".join(lines)


def _compose_perm(
    prev: Optional[Tuple[int, ...]], perm: Tuple[int, ...]
) -> Tuple[int, ...]:
    """Permutation applying ``prev`` then ``perm`` (new-from-old order)."""
    if prev is None:
        return tuple(perm)
    return tuple(prev[i] for i in perm)


def _transient_bytes(sdfg: SDFG, env: Mapping[str, int]) -> int:
    """Total allocated transient (scratch) storage under ``env``."""
    return sum(
        math.prod(sdfg.arrays[name].evaluate_shape(env))
        * sdfg.arrays[name].dtype.itemsize
        for name in sdfg.transients()
    )


def format_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB", "TiB", "PiB"):
        if abs(n) < 1024 or unit == "PiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n:.1f} PiB"


# -- stage execution -------------------------------------------------------------


def run_stage(
    stage: Stage,
    dims: Mapping[str, int],
    arrays: Mapping[str, np.ndarray],
    tables: Optional[Mapping[str, np.ndarray]] = None,
    backend: str = "interpreter",
):
    """Execute one stage; returns ``(output, executed)``.

    The output comes back in the *original* layout (inputs are permuted
    per the stage's accumulated layout transformations, the output
    permutation is inverted).  With ``backend="interpreter"`` (the
    default here, for oracle runs) ``executed`` is the interpreter
    instance, whose ``executed.report`` is the counted
    :class:`~repro.sdfg.interpreter.ExecutionReport`; the generated
    ``numpy`` backend returns ``None`` (it counts nothing).
    """
    return get_backend(backend).compile_stage(stage)(dims, arrays, tables)


def verify_stage(
    stage: Stage,
    dims: Mapping[str, int],
    arrays: Mapping[str, np.ndarray],
    tables: Mapping[str, np.ndarray],
    reference: np.ndarray,
    rtol: float = 1e-10,
    atol: float = 1e-10,
    runner: Optional[StageRunner] = None,
) -> float:
    """Compare a stage against a reference result; returns the max error."""
    if runner is None:
        result, _ = run_stage(stage, dims, arrays, tables)
    else:
        result, _ = runner(dims, arrays, tables)
    return check_stage_output(stage, result, reference, rtol=rtol, atol=atol)


def check_stage_output(
    stage: Stage,
    result: np.ndarray,
    reference: np.ndarray,
    rtol: float = 1e-10,
    atol: float = 1e-10,
) -> float:
    """The max error of one stage's output against the reference;
    raises :class:`AssertionError` naming the stage past the tolerances."""
    err = float(np.max(np.abs(result - reference)))
    if not np.allclose(result, reference, rtol=rtol, atol=atol):
        raise AssertionError(
            f"stage {stage.name!r} deviates: max err {err:.3e}"
        )
    return err


# -- the pipeline ----------------------------------------------------------------


class Pipeline:
    """An ordered, declarative optimization recipe.

    Parameters
    ----------
    name:
        Pipeline identifier (used in reports).
    steps:
        The ordered ``(stage, description, Move)`` list.
    graph_factory:
        Builds the initial SDFG the pipeline optimizes.
    initial:
        ``(stage_name, description)`` of the untransformed graph.
    make_inputs:
        ``(dims, seed) -> (arrays, tables)`` factory of random concrete
        inputs, used by :meth:`compile` for stage verification.
    reference:
        ``(arrays, tables) -> ndarray`` ground-truth kernel the compiled
        pipeline is verified against.
    library:
        The batch templates the steps' batch moves resolve by name.
    """

    def __init__(
        self,
        name: str,
        steps: Sequence[Tuple[str, str, Move]],
        graph_factory: Callable[[], SDFG],
        initial: Tuple[str, str] = ("initial", "initial dataflow"),
        make_inputs: Optional[Callable[..., tuple]] = None,
        reference: Optional[Callable[..., np.ndarray]] = None,
        library: Optional[MoveLibrary] = None,
    ):
        self.name = name
        self.steps: Tuple[Tuple[str, str, Move], ...] = tuple(steps)
        self.graph_factory = graph_factory
        self.initial = (str(initial[0]), str(initial[1]))
        self.make_inputs = make_inputs
        self.reference = reference
        self.library = library
        self._cached_stages: Optional[List[Stage]] = None
        names = [self.initial[0]] + [stage for stage, _, _ in self.steps]
        if len(set(names)) != len(names):
            raise ValueError(f"pipeline {name!r}: duplicate stage names")

    # -- declarative surface ---------------------------------------------------
    @property
    def summary(self) -> Tuple[Tuple[str, str], ...]:
        """(stage, description) table, initial stage included — the
        single source for ``RECIPE_SUMMARY``-style listings."""
        return (self.initial,) + tuple(
            (stage, description) for stage, description, _ in self.steps
        )

    @property
    def stage_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.summary)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "initial": {
                "stage": self.initial[0],
                "description": self.initial[1],
            },
            "steps": [
                {"stage": stage, "description": description, **m.to_dict()}
                for stage, description, m in self.steps
            ],
        }

    # -- application -----------------------------------------------------------
    def apply(self, sdfg: SDFG) -> List[Stage]:
        """Run every step on ``sdfg`` in place, snapshotting per stage."""
        if len(sdfg.states) != 1:
            raise ValueError(
                f"pipeline {self.name!r}: moves transform a single-state "
                f"SDFG; got {len(sdfg.states)} states"
            )
        input_perms: Dict[str, Tuple[int, ...]] = {}
        output_perm: Optional[Tuple[int, ...]] = None
        stages = [
            Stage(self.initial[0], self.initial[1], copy.deepcopy(sdfg))
        ]
        for stage, description, move in self.steps:
            applied = move.run(sdfg, sdfg.states[0], self.library)
            if move.kind == "layout":
                written = set(_written_arrays(sdfg))
                for array, perm in move.spec["perms"].items():
                    desc = sdfg.arrays[array]
                    if desc.transient:
                        continue  # interior layout: no caller-visible effect
                    if array in written:
                        output_perm = _compose_perm(output_perm, perm)
                    else:
                        input_perms[array] = _compose_perm(
                            input_perms.get(array), perm
                        )
            stages.append(
                Stage(
                    stage,
                    description,
                    copy.deepcopy(sdfg),
                    dict(input_perms),
                    output_perm,
                    applied=applied,
                )
            )
        return stages

    def build(self) -> List[Stage]:
        """Build a fresh graph and apply the full pipeline to it."""
        return self.apply(self.graph_factory())

    def stages(self) -> List[Stage]:
        """Cached stage snapshots (build once, reuse for reports)."""
        if self._cached_stages is None:
            self._cached_stages = self.build()
        return self._cached_stages

    # -- analysis ----------------------------------------------------------------
    def required_symbols(
        self, stages: Optional[Sequence[Stage]] = None
    ) -> Tuple[str, ...]:
        """Symbol names :meth:`report` needs bound in its ``dims``:
        the union of every stage graph's declared SDFG symbols."""
        stages = self.stages() if stages is None else stages
        out: Dict[str, None] = {}
        for s in stages:
            out.update(s.sdfg.symbols)
        return tuple(out)

    def report(
        self,
        dims: Mapping[str, int],
        stages: Optional[Sequence[Stage]] = None,
    ) -> PipelineReport:
        """Per-stage modeled data movement at the given dimensions.

        ``dims`` must bind every symbol of :meth:`required_symbols`
        (for the SSE recipe: ``Nkz NE Nqz Nw N3D NA NB Norb``); missing
        bindings raise a :class:`ValueError` naming them up front
        instead of surfacing as a ``KeyError`` deep in the volume
        evaluation.  :meth:`CompiledPipeline.report` accepts the same
        spellings.
        """
        stages = self.stages() if stages is None else stages
        missing = [s for s in self.required_symbols(stages) if s not in dims]
        if missing:
            raise ValueError(
                f"pipeline {self.name!r}: report dims missing symbol "
                f"bindings {missing}; required: "
                f"{list(self.required_symbols(stages))}"
            )
        movements = tuple(
            StageMovement(
                name=s.name,
                description=s.description,
                per_array=measure_movement(s.sdfg, dims),
                transient_bytes=_transient_bytes(s.sdfg, dims),
                applied=s.applied,
            )
            for s in stages
        )
        return PipelineReport(
            pipeline=self.name, dims=dict(dims), stages=movements
        )

    # -- compilation -------------------------------------------------------------
    def compile(
        self,
        verify_dims: Optional[Mapping[str, int]] = None,
        seed: int = 0,
        rtol: float = 1e-10,
        atol: float = 1e-10,
        backend: Optional[str] = None,
    ) -> "CompiledPipeline":
        """Lower every stage through an execution backend and wrap the
        final stage as a callable.

        ``backend`` names one of the two execution backends
        (:data:`repro.sdfg.backends.SDFG_BACKENDS`: ``"numpy"`` generates
        vectorized source, ``"interpreter"`` wraps the reference
        interpreter); ``None`` means ``numpy``.  Unknown names raise a
        :class:`~repro.sdfg.backends.BackendError`.

        With ``verify_dims``, every stage (initial included) is executed
        *through the selected backend* on random inputs of those
        dimensions and checked against the pipeline's ``reference``
        kernel to the given tolerances, recording per-stage max errors.

        The compiled pipeline shares the cached stage snapshots
        (execution never mutates the graphs); use :meth:`build` for
        snapshots you intend to modify.
        """
        be = get_backend(backend)
        with trace(
            "pipeline.compile", pipeline=self.name, backend=be.name,
            verify=verify_dims is not None,
        ):
            stages = self.stages()
            runners = {s.name: be.compile_stage(s) for s in stages}
            verification: Optional[Dict[str, float]] = None
            if verify_dims is not None:
                if self.make_inputs is None or self.reference is None:
                    raise ValueError(
                        f"pipeline {self.name!r}: verification requires "
                        "make_inputs and reference"
                    )
                arrays, tables = self.make_inputs(dict(verify_dims), seed=seed)
                ref = self.reference(arrays, tables)
                verification = {}
                for s in stages:
                    with trace("pipeline.verify_stage", stage=s.name):
                        verification[s.name] = verify_stage(
                            s, dict(verify_dims), arrays, tables, ref,
                            rtol=rtol, atol=atol, runner=runners[s.name],
                        )
        return CompiledPipeline(self, stages, verification, be.name, runners)


class CompiledPipeline:
    """The executable product of :meth:`Pipeline.compile`.

    Calling it runs the *final* (fully optimized) stage through the
    backend the pipeline was compiled with; individual stages remain
    addressable for ablations.  For code-generating backends the lowered
    Python source is attached (:attr:`source`, :meth:`save_code`).
    """

    def __init__(
        self,
        pipeline: Pipeline,
        stages: Sequence[Stage],
        verification: Optional[Dict[str, float]] = None,
        backend: str = "interpreter",
        runners: Optional[Dict[str, StageRunner]] = None,
    ):
        self.pipeline = pipeline
        self.stages = list(stages)
        self.by_name = {s.name: s for s in self.stages}
        #: per-stage max error vs the reference kernel (None: not verified)
        self.verification = verification
        #: name of the execution backend every stage was lowered with
        self.backend = backend
        if runners is None:
            be = get_backend(backend)
            runners = {s.name: be.compile_stage(s) for s in self.stages}
        self.runners = runners

    @property
    def final(self) -> Stage:
        return self.stages[-1]

    @property
    def verified(self) -> bool:
        return self.verification is not None

    @property
    def source(self) -> Optional[str]:
        """Generated Python source of the final (optimized) stage, or
        ``None`` for backends that interpret the graph directly."""
        return self.runners[self.final.name].source

    def save_code(self, path, stage: Optional[str] = None) -> str:
        """Write a stage's generated source to ``path`` (default: final
        stage); returns the text.  Raises for source-less backends."""
        name = stage or self.final.name
        text = self.runners[name].source
        if text is None:
            raise ValueError(
                f"backend {self.backend!r} generates no source to save"
            )
        from pathlib import Path

        Path(path).write_text(text)
        return text

    def __call__(
        self,
        dims: Mapping[str, int],
        arrays: Mapping[str, np.ndarray],
        tables: Optional[Mapping[str, np.ndarray]] = None,
    ) -> np.ndarray:
        result, _ = self.runners[self.final.name](dims, arrays, tables)
        return result

    def run_stage(
        self,
        name: str,
        dims: Mapping[str, int],
        arrays: Mapping[str, np.ndarray],
        tables: Optional[Mapping[str, np.ndarray]] = None,
    ):
        """Execute one stage; returns ``(output, executed)`` as
        :func:`run_stage` does: ``executed.report`` holds the counted
        statistics through the interpreter, ``executed`` is ``None``
        through generated code."""
        return self.runners[name](dims, arrays, tables)

    def report(self, dims: Mapping[str, int]) -> PipelineReport:
        """Modeled data movement; same ``dims`` contract as
        :meth:`Pipeline.report` (all stage symbols must be bound)."""
        return self.pipeline.report(dims, stages=self.stages)

    def __repr__(self) -> str:
        v = "verified" if self.verified else "unverified"
        return (
            f"CompiledPipeline({self.pipeline.name}, "
            f"{len(self.stages)} stages, backend={self.backend}, {v})"
        )
