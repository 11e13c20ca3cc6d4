"""Model-vs-measured drift reports: the paper's claims as invariants.

The repo carries analytic models of everything it executes — §4.1
communication volumes (:mod:`repro.model.communication`), Table-3 flop
counts (:func:`repro.model.performance.stage_flops` /
``tasklet_flops``), and per-stage movement bytes
(:func:`repro.sdfg.pipeline.measure_movement`).  This module joins the
*measured* side (transport ``CommStats``, the interpreter's counted
``ExecutionReport``) against those models and flags any divergence,
turning the scattered bench-only assertions into an always-available
check:

* :func:`comm_drift` — per-phase comm bytes of a distributed SCBA run
  vs :func:`~repro.model.communication.omen_exchange_stats` /
  ``dace_exchange_stats`` (scaled by the executed Born iterations) and
  ``residual_allreduce_stats`` — equal **to the byte**, per rank;
* :func:`sse_flops_drift` — per-stage flops and element-access bytes
  the interpreter counts while running each (verified) stage of an SSE
  pipeline, vs the analytic models — equal **exactly** (both charge 8
  real flops per contraction point, 6 per complex multiply; movement
  bytes are element accesses x 16).  The generated ``numpy`` backend
  counts nothing, so the interpreter is the only measured side;
* :func:`drift_report` — both joined for one simulation, the bundle the
  CI telemetry smoke step asserts ``clean`` on.

Heavyweight imports (``core.recipe``, the SDFG stack) happen inside the
functions so that importing ``repro.telemetry`` stays cheap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = [
    "DriftRecord",
    "DriftReport",
    "comm_drift",
    "sse_flops_drift",
    "drift_report",
]


@dataclass(frozen=True)
class DriftRecord:
    """One measured-vs-modeled reconciliation line."""

    name: str
    unit: str
    measured: float
    modeled: Optional[float]
    #: exact agreement (per-rank / per-element where applicable); an
    #: unmodeled measurement (``modeled is None``) is recorded as matched
    matched: bool
    note: str = ""

    @property
    def delta(self) -> float:
        if self.modeled is None:
            return 0.0
        return self.measured - self.modeled

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "unit": self.unit,
            "measured": self.measured,
            "modeled": self.modeled,
            "matched": self.matched,
            "delta": self.delta,
            "note": self.note,
        }


@dataclass(frozen=True)
class DriftReport:
    """A set of reconciliation records; ``clean`` iff all matched."""

    title: str
    records: Tuple[DriftRecord, ...]

    @property
    def clean(self) -> bool:
        return all(r.matched for r in self.records)

    def record(self, name: str) -> DriftRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(f"no drift record {name!r} in {self.title!r}")

    def __add__(self, other: "DriftReport") -> "DriftReport":
        return DriftReport(
            title=f"{self.title}+{other.title}",
            records=self.records + other.records,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "title": self.title,
            "clean": self.clean,
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    def describe(self) -> str:
        lines = [f"drift[{self.title}] {'CLEAN' if self.clean else 'DRIFT'}:"]
        for r in self.records:
            modeled = "unmodeled" if r.modeled is None else f"{r.modeled:.0f}"
            status = "ok" if r.matched else f"DRIFT (delta {r.delta:+.0f})"
            note = f"  [{r.note}]" if r.note else ""
            lines.append(
                f"  {r.name:24s} measured {r.measured:.0f} {r.unit}, "
                f"modeled {modeled}: {status}{note}"
            )
        return "\n".join(lines)


def _comm_record(name: str, measured, modeled, note: str = "") -> DriftRecord:
    """Reconcile two per-rank :class:`CommStats` to the byte."""
    return DriftRecord(
        name=name,
        unit="bytes",
        measured=float(measured.sent_bytes.sum()),
        modeled=float(modeled.sent_bytes.sum()),
        matched=bool(measured.matches(modeled)),
        note=note or "per-rank sent/recv/messages exact",
    )


def _resolve_runtime(sim):
    """Accept an :class:`SCBASimulation` or a runtime, return the runtime."""
    rt = getattr(sim, "_runtime", None)
    if rt is None and hasattr(sim, "gf_decomp"):
        rt = sim
    if rt is None or not hasattr(rt, "gf_decomp"):
        raise ValueError(
            "comm drift needs a distributed run: pass the SCBASimulation "
            "(after run()) or the DistributedSCBARuntime itself"
        )
    return rt


def comm_drift(sim, last_comm=None) -> DriftReport:
    """Reconcile a distributed run's measured bytes against §4.1 models.

    ``sim`` is a :class:`~repro.negf.SCBASimulation` whose last
    :meth:`run` went through the distributed runtime, or the
    :class:`~repro.runtime.DistributedSCBARuntime` itself.  The measured
    per-phase :class:`~repro.parallel.CommStats` must equal the exchange
    model scaled by the executed Born iterations — to the byte, per
    rank — and the residual allreduce must equal
    :func:`~repro.model.communication.residual_allreduce_stats`.

    ``last_comm`` overrides the runtime's own per-phase stats with an
    independently re-derived set (e.g. the byte counts a
    :class:`~repro.observe.timeline.TimelineAnalysis` reads back out of
    the exported phase spans) while keeping the same models — the
    trace-vs-model closure check of the performance observatory.
    """
    from ..model.communication import (
        dace_exchange_stats,
        omen_exchange_stats,
        residual_allreduce_stats,
    )

    rt = _resolve_runtime(sim)
    model, s = rt.model, rt.s
    dev = model.structure
    last = rt.last_comm if last_comm is None else last_comm
    records = []

    if "sse" in last:
        if rt.schedule == "dace":
            per_iter = dace_exchange_stats(
                rt.gf_decomp, rt.sse_decomp, dev.neighbors,
                s.Nqz, s.Nw, model.Norb, model.N3D, rt.owner_of,
            )
        else:
            per_iter = omen_exchange_stats(
                rt.gf_decomp, s.Nqz, s.Nw,
                dev.NA, dev.NB, model.Norb, model.N3D, rt.owner_of,
            )
        records.append(
            _comm_record(
                f"sse.{rt.schedule}",
                last["sse"],
                per_iter.scaled(rt.n_sse_iterations),
                note=f"{rt.n_sse_iterations} exchange iterations",
            )
        )
    if "residual" in last:
        records.append(
            _comm_record(
                "residual.allreduce",
                last["residual"],
                residual_allreduce_stats(rt.P, rt.n_residual_checks),
                note=f"{rt.n_residual_checks} convergence checks",
            )
        )
    if "gather" in last:
        records.append(
            DriftRecord(
                name="gather",
                unit="bytes",
                measured=float(last["gather"].sent_bytes.sum()),
                modeled=None,
                matched=True,
                note="final shard collection (unmodeled, informational)",
            )
        )
    return DriftReport(title="comm", records=tuple(records))


def sse_flops_drift(
    pipeline=None,
    dims: Optional[Mapping[str, int]] = None,
    seed: int = 0,
) -> DriftReport:
    """Run every stage of the SSE pipeline once through the interpreter
    and reconcile its counted
    :class:`~repro.sdfg.interpreter.ExecutionReport` against the
    Table-3 analytic flops and the §4.1 movement bytes — exactly.

    Each run's output is checked against the pipeline's reference
    kernel to 1e-10 first (as :func:`~repro.sdfg.pipeline.verify_stage`
    does; a deviation raises), so only a verified execution is counted.
    Defaults to the hand recipe (``SSE_PIPELINE``) at the toy
    ``VERIFY_DIMS``.
    """
    import numpy as np

    from ..core import recipe
    from ..model.performance import stage_flops
    from ..sdfg.pipeline import check_stage_output, run_stage

    pipeline = pipeline if pipeline is not None else recipe.SSE_PIPELINE
    dims = dict(dims or recipe.VERIFY_DIMS)
    arrays, tables = pipeline.make_inputs(dims, seed=seed)
    reference = pipeline.reference(arrays, tables)
    movement = pipeline.report(dims)

    records = []
    for stage, moved in zip(pipeline.stages(), movement.stages):
        result, executed = run_stage(stage, dims, arrays, tables)
        check_stage_output(stage, result, reference)
        report = executed.report
        measured_flops = int(np.rint(report.flops))
        modeled_flops = int(stage_flops(stage.sdfg, dims))
        records.append(
            DriftRecord(
                name=f"{stage.name}.flops",
                unit="flops",
                measured=float(measured_flops),
                modeled=float(modeled_flops),
                matched=measured_flops == modeled_flops,
                note="Table-3 / tasklet_flops analytic count",
            )
        )
        measured_bytes = 16 * int(report.element_reads + report.element_writes)
        modeled_bytes = int(moved.total_bytes)
        records.append(
            DriftRecord(
                name=f"{stage.name}.bytes",
                unit="bytes",
                measured=float(measured_bytes),
                modeled=float(modeled_bytes),
                matched=measured_bytes == modeled_bytes,
                note="element accesses x 16 vs measure_movement",
            )
        )
    return DriftReport(
        title=f"sse_flops[{pipeline.name}]", records=tuple(records)
    )


def drift_report(
    sim=None,
    dims: Optional[Mapping[str, int]] = None,
) -> DriftReport:
    """The combined reconciliation: comm bytes (when ``sim`` ran
    distributed) plus SSE pipeline flops/bytes counted by the
    interpreter."""
    report = sse_flops_drift(dims=dims)
    if sim is not None:
        report = comm_drift(sim) + report
    return report
