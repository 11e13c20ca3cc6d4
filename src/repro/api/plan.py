"""Plan: the explicit compile step between a Workload and its execution.

This is where the "performance engineer" of the paper's §4.1 workflow
lives, apart from the physics: compiling a :class:`~repro.api.Workload`

* validates every sweep point against the Table-1 ``PARAMETER_RANGES``
  (through :class:`repro.config.SimulationParameters`),
* selects the spectral-grid execution backend, the RGF kernel, and —
  for a distributed runtime — the ``(kz, E-chunk)`` rank decomposition
  and SSE schedule, each made once here and stored as an
  :class:`~repro.negf.SCBASettings` field,
* groups sweep points by their *structural* settings (grid shape, η)
  so a :class:`~repro.api.Session` can reuse one
  Hamiltonian, one :class:`~repro.negf.SpectralGrid`, one engine, and one
  boundary cache across every point of a group (bias/temperature/gate
  never invalidate them),
* estimates cost with :mod:`repro.model.performance` (Table-3 flop
  models) and tensor footprints,
* models, for ``sse_variant="dace"``, the per-stage data movement of the
  Fig. 8 → 12 transformation pipeline at the *planned* dimensions
  (:func:`repro.core.recipe.sse_movement_report`, the paper's §4.1
  metric) — the recipe enters the plan as a measured
  :class:`~repro.sdfg.PipelineReport`, not as a static table,
* optionally *autotunes* the SSE pipeline (``autotune="greedy"``):
  :func:`repro.core.recipe.tuned_sse_search` searches the
  transformation move space at the planned dimensions and the plan
  carries the searched pipeline's movement report beside the hand
  recipe's for comparison.

A plan is inspectable (:meth:`Plan.describe`) and serializable
(:meth:`Plan.to_json`), so execution choices can be reviewed, diffed, and
archived independently of any run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..config import (
    AUTOTUNE_STRATEGIES,
    EXECUTION_BACKENDS,
    RGF_KERNELS,
    RUNTIMES,
    SSE_SCHEDULES,
    SimulationParameters,
    validate_parameters,
)
from ..model.communication import omen_comm_total_bytes
from ..model.distribution import search_tiling
from ..model.performance import iteration_flops
from ..parallel.decomposition import partition_spectral_grid
from ..sdfg.pipeline import PipelineReport
from .workload import Workload

__all__ = [
    "PlanError",
    "PlanCost",
    "PlanGroup",
    "Plan",
    "STRUCTURAL_FIELDS",
    "compile_workload",
]


class PlanError(ValueError):
    """A workload cannot be compiled into a valid plan."""


#: Settings fields whose change invalidates the spectral grid, the
#: assembled operators, or the boundary cache.  Sweep points are grouped
#: by these; everything else (bias, temperatures, coupling, mixing,
#: tolerances) varies freely within a group without losing any reuse.
STRUCTURAL_FIELDS: Tuple[str, ...] = (
    "e_min",
    "e_max",
    "NE",
    "Nkz",
    "Nqz",
    "Nw",
    "eta",
)

#: Settings fields fixed when a simulation is constructed: a resident
#: simulation cannot be re-pointed at another engine, kernel, SSE backend
#: or runtime, so they complete each :attr:`PlanGroup.key`.
EXECUTION_FIELDS: Tuple[str, ...] = (
    "engine",
    "rgf_kernel",
    "sse_backend",
    "runtime",
    "ranks",
    "schedule",
)


@dataclass(frozen=True)
class PlanCost:
    """Cost estimate from the Table-3 flop models and tensor footprints.

    The per-iteration flop fields are summed over *all* sweep points
    (each group priced at its own grid size), so heterogeneous plans —
    e.g. a ``grid`` axis mixing NE values — are priced correctly; the
    byte fields are the peak single-group tensor footprints.
    """

    points: int
    iterations_per_point: int
    #: one Born iteration at every sweep point (summed across groups)
    gf_flops_per_iteration: float
    sse_flops_per_iteration: float
    #: peak per-group G≷ / D≷ footprint
    electron_gf_bytes: int
    phonon_gf_bytes: int

    @property
    def total_flops(self) -> float:
        return self.iterations_per_point * (
            self.gf_flops_per_iteration + self.sse_flops_per_iteration
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "points": self.points,
            "iterations_per_point": self.iterations_per_point,
            "gf_flops_per_iteration": self.gf_flops_per_iteration,
            "sse_flops_per_iteration": self.sse_flops_per_iteration,
            "electron_gf_bytes": self.electron_gf_bytes,
            "phonon_gf_bytes": self.phonon_gf_bytes,
            "total_flops": self.total_flops,
        }


@dataclass(frozen=True)
class PlanGroup:
    """Sweep points sharing one simulation (grid + engine + caches).

    ``key`` is the group's :data:`STRUCTURAL_FIELDS` followed by its
    :data:`EXECUTION_FIELDS`: points (or service jobs on one device)
    with equal keys may share one simulation.  ``base_settings`` are the
    full :class:`~repro.negf.SCBASettings` kwargs of the group; each
    point carries only the *overrides* of the non-structural fields its
    sweep coordinates set.
    """

    key: Tuple
    base_settings: Dict[str, Any]
    #: per point: (sweep index, {axis: value}, {settings overrides})
    points: Tuple[Tuple[int, Dict[str, float], Dict[str, Any]], ...]
    parameters: SimulationParameters

    def point_settings(self, j: int) -> Dict[str, Any]:
        """Fully-resolved settings kwargs of the group's j-th point."""
        kw = dict(self.base_settings)
        kw.update(self.points[j][2])
        return kw

    def to_dict(self) -> Dict[str, Any]:
        return {
            "base_settings": dict(self.base_settings),
            "points": [
                {"index": i, "coords": dict(c), "overrides": dict(o)}
                for i, c, o in self.points
            ],
            "parameters": self.parameters.as_dict(),
        }


@dataclass(frozen=True)
class Plan:
    """An executable, inspectable compilation of a workload."""

    workload: Workload
    engine: str
    #: RGF kernel the solves run through (see :mod:`repro.negf.kernels`;
    #: always ``reference`` under ``engine="serial"``)
    rgf_kernel: str
    ballistic: bool
    groups: Tuple[PlanGroup, ...]
    cost: PlanCost
    #: SCBA execution runtime: ``serial`` in-process loop, or ``sim`` /
    #: ``pipe`` for the rank-parallel distributed Born loop
    runtime: str = "serial"
    #: requested rank budget for the distributed runtime (None: auto)
    ranks: Optional[int] = None
    #: per-group distributed-runtime selection: rank decomposition
    #: (P = Nkz x E-chunks) and SSE schedule — for the ``dace`` schedule
    #: the (TE, TA) tiling found by the §4.1 exhaustive tile search
    runtime_plan: Optional[Tuple[Dict[str, Any], ...]] = None
    #: per-stage modeled data movement of the Fig. 8 → 12 dace/sdfg SSE
    #: pipeline, evaluated at the planned (peak-group) dimensions
    sse_report: Optional[PipelineReport] = None
    #: SDFG execution backend driving ``sse_variant="sdfg"`` runs
    #: (``"numpy"`` generated code / ``"interpreter"``; None means
    #: ``"numpy"``)
    sse_backend: Optional[str] = None
    #: autotune strategy the SSE pipeline was searched with (None: the
    #: hand recipe only)
    autotune: Optional[str] = None
    #: movement report of the autotuned SSE pipeline, at the same
    #: (peak-group) dimensions as ``sse_report``
    tuned_sse_report: Optional[PipelineReport] = None

    @property
    def sse_recipe(self) -> Tuple[Tuple[str, str], ...]:
        """(stage, description) table, derived from the movement report."""
        if self.sse_report is None:
            return ()
        return tuple(
            (s.name, s.description) for s in self.sse_report.stages
        )

    @property
    def n_points(self) -> int:
        return sum(len(g.points) for g in self.groups)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def session(self):
        """Open a :class:`~repro.api.Session` executing this plan."""
        from .session import Session

        return Session(self)

    # -- inspection --------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable compilation report."""
        w = self.workload
        lines = [
            f"plan[{w.name}]: {self.n_points} sweep point(s) in "
            f"{self.n_groups} group(s), "
            f"{'ballistic' if self.ballistic else 'SCBA'} transport",
            f"  device : NA={w.device.NA} atoms, NB={w.device.NB}, "
            f"Norb={w.device.Norb}, bnum={w.device.bnum}",
            f"  engine : {self.engine} (rgf_kernel={self.rgf_kernel})",
        ]
        if self.runtime != "serial":
            lines.append(
                f"  runtime: {self.runtime} (rank-parallel Born loop)"
            )
        for gi, g in enumerate(self.groups):
            p = g.parameters
            lines.append(
                f"  group {gi}: Nkz={p.Nkz} NE={p.NE} Nqz={p.Nqz} Nw={p.Nw} "
                f"x {len(g.points)} point(s)"
            )
            if self.runtime_plan is not None:
                r = self.runtime_plan[gi]
                tiling = (
                    f", TE={r['TE']} TA={r['TA']}" if "TE" in r else ""
                )
                lines.append(
                    f"    runtime: P={r['P']} ranks, E-chunk={r['chunk']}, "
                    f"{r['schedule']} schedule{tiling}"
                )
        c = self.cost
        lines.append(
            f"  cost   : ~{c.total_flops:.3e} flop total "
            f"({c.iterations_per_point} iteration(s)/point; "
            f"GF {c.gf_flops_per_iteration:.2e} + "
            f"SSE {c.sse_flops_per_iteration:.2e} per sweep iteration), "
            f"G≷ {c.electron_gf_bytes / 2**20:.1f} MiB peak"
        )
        if self.sse_report is not None:
            from ..sdfg.pipeline import format_bytes

            r = self.sse_report
            d = r.dims
            variant = self.workload.physics.sse_variant
            how = (
                f"compiled graph, backend="
                f"{self.sse_backend or 'numpy'}"
                if variant == "sdfg"
                else "hand-vectorized kernel"
            )
            lines.append(
                f"  sse    : {variant} recipe ({how}), movement modeled at "
                f"Nkz={d['Nkz']} NE={d['NE']} Nqz={d['Nqz']} Nw={d['Nw']} "
                f"NA={d['NA']}"
            )
            first = r.stages[0].total_bytes
            for s in r.stages:
                lines.append(
                    f"    {s.name:8s} {format_bytes(s.total_bytes):>12s} moved "
                    f"({first / max(s.total_bytes, 1):6.1f}x less)  "
                    f"{s.description}"
                )
            lines.append(
                f"    net    : {r.total_reduction:.1f}x less data movement "
                f"({r.stages[0].name} -> {r.stages[-1].name})"
            )
        if self.tuned_sse_report is not None:
            t = self.tuned_sse_report
            hand = (
                self.sse_report.total_reduction
                if self.sse_report is not None
                else None
            )
            vs = f" (hand recipe: {hand:.1f}x)" if hand is not None else ""
            lines.append(
                f"  tuned  : autotune[{self.autotune}] found "
                f"{len(t.stages) - 1} moves, "
                f"{t.total_reduction:.1f}x less movement{vs}"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload.to_dict(),
            "engine": self.engine,
            "rgf_kernel": self.rgf_kernel,
            "sse_backend": self.sse_backend,
            "ballistic": self.ballistic,
            "groups": [g.to_dict() for g in self.groups],
            "cost": self.cost.to_dict(),
            "runtime": self.runtime,
            "ranks": self.ranks,
            "runtime_plan": (
                [dict(d) for d in self.runtime_plan]
                if self.runtime_plan is not None
                else None
            ),
            "sse_recipe": [list(s) for s in self.sse_recipe],
            "sse_movement": (
                self.sse_report.to_dict()
                if self.sse_report is not None
                else None
            ),
            "autotune": self.autotune,
            "tuned_sse_movement": (
                self.tuned_sse_report.to_dict()
                if self.tuned_sse_report is not None
                else None
            ),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def _plan_runtime_group(
    exec_params: SimulationParameters,
    ranks: Optional[int],
    schedule: Optional[str],
) -> Dict[str, Any]:
    """Select one group's rank decomposition (and tiling) for the runtime.

    The GF layout is the largest ``P = Nkz x E-chunks`` within the rank
    budget; the schedule — when not forced — is chosen by comparing the
    §4.1 closed-form volumes at that P, with the DaCe tiling taken from
    the exhaustive :func:`~repro.model.distribution.search_tiling`
    (restricted to divisor tilings, which the executable decomposition
    requires).
    """
    if ranks is not None and ranks < exec_params.Nkz:
        raise ValueError(
            f"ranks={ranks} is below the minimum of one rank per momentum "
            f"point (Nkz={exec_params.Nkz})"
        )
    budget = ranks or min(8, os.cpu_count() or 1)
    gf = partition_spectral_grid(
        exec_params.Nkz, exec_params.NE, max(budget, exec_params.Nkz)
    )
    entry: Dict[str, Any] = {
        "P": gf.P, "chunk": gf.chunk, "n_chunks": gf.n_chunks,
    }
    tiling = None
    try:
        tiling = search_tiling(exec_params, gf.P, divisors_only=True)
    except ValueError:
        if schedule == "dace":
            raise PlanError(
                f"no divisor (TE, TA) tiling of P={gf.P} for the dace "
                f"schedule (NE={exec_params.NE}, NA={exec_params.NA})"
            ) from None
    if schedule is None:
        omen_vol = omen_comm_total_bytes(exec_params, gf.P)
        schedule = (
            "dace"
            if tiling is not None and tiling.total_bytes < omen_vol
            else "omen"
        )
    entry["schedule"] = schedule
    if schedule == "dace":
        entry["TE"], entry["TA"] = tiling.TE, tiling.TA
    return entry


def compile_workload(
    workload: Workload,
    engine: Optional[str] = None,
    rgf_kernel: Optional[str] = None,
    sse_backend: Optional[str] = None,
    runtime: Optional[str] = None,
    ranks: Optional[int] = None,
    schedule: Optional[str] = None,
    autotune: Optional[str] = None,
) -> Plan:
    """Compile a workload: validate, select execution, group for reuse.

    ``rgf_kernel`` names the RGF recursion of the batched solves (see
    :mod:`repro.negf.kernels`; ``None`` means the production ``"numpy"``
    kernel, ``"reference"`` repeats the run on the oracle recursion).
    The serial engine is pinned to ``"reference"``: ``engine="serial"``
    plans that kernel and rejects any other.  Unknown names raise a
    :class:`PlanError` at compile time, not mid-run.

    ``sse_backend`` selects the SDFG execution backend the sessions use
    when the workload's physics asks for ``sse_variant="sdfg"``
    (``"numpy"`` generated code / ``"interpreter"``; ``None`` means
    ``"numpy"``).  Unknown names raise a :class:`PlanError`.

    ``runtime`` selects the SCBA execution tier: ``"serial"`` (the
    in-process Born loop) or the rank-parallel distributed runtime over
    ``"sim"``/``"pipe"`` transports (``None`` means ``"serial"``).
    For distributed runtimes, ``ranks`` bounds the rank count (largest
    valid ``Nkz x E-chunks`` decomposition is used) and ``schedule``
    forces the SSE communication schedule; ``schedule=None`` picks the
    volume-minimizing one per group via the §4.1 models and the
    exhaustive tile search.

    ``autotune="greedy"`` runs the movement-model-guided search
    (:func:`repro.core.recipe.tuned_sse_search`) at the planned
    peak-group dimensions;
    the plan then carries the searched pipeline's movement report in
    ``tuned_sse_report`` beside the hand recipe's ``sse_report``.  It
    requires an SSE workload — requesting it for a ballistic run or a
    non-dace/sdfg ``sse_variant`` raises a :class:`PlanError`, as does
    an unknown strategy name.
    """
    points = workload.sweep_points()

    # -- backend selection -----------------------------------------------------
    if engine is None:
        engine = "batched"
    elif engine not in EXECUTION_BACKENDS:
        raise PlanError(
            f"unknown engine {engine!r}; expected one of {EXECUTION_BACKENDS}"
        )
    if rgf_kernel is not None and rgf_kernel not in RGF_KERNELS:
        raise PlanError(
            f"unknown rgf_kernel {rgf_kernel!r}; expected one of {RGF_KERNELS}"
        )
    if engine == "serial":
        # SerialEngine pins the reference recursion; a plan must not
        # report a selection the run would ignore.
        if rgf_kernel not in (None, "reference"):
            raise PlanError(
                f"rgf_kernel={rgf_kernel!r} cannot be combined with "
                "engine='serial': the serial oracle runs the 'reference' "
                "kernel"
            )
        rgf_kernel = "reference"
    elif rgf_kernel is None:
        rgf_kernel = "numpy"
    if sse_backend is not None:
        from ..sdfg.backends import BackendError, get_backend

        try:
            get_backend(sse_backend)
        except BackendError as exc:
            raise PlanError(f"invalid sse_backend: {exc}") from exc

    # -- runtime selection ------------------------------------------------------
    if runtime is None:
        runtime = "serial"
    elif runtime not in RUNTIMES:
        raise PlanError(
            f"unknown runtime {runtime!r}; expected one of {RUNTIMES}"
        )
    if schedule is not None and schedule not in SSE_SCHEDULES:
        raise PlanError(
            f"unknown SSE schedule {schedule!r}; "
            f"expected one of {SSE_SCHEDULES}"
        )
    if ranks is not None and ranks < 1:
        raise PlanError(f"ranks={ranks} must be positive")
    if runtime != "serial":
        # Rank workers always solve through a BatchedEngine and the
        # exchange evaluates Σ≷/Π≷ with its own round/tile kernels;
        # a plan must not report a selection the run would ignore.
        if engine != "batched":
            raise PlanError(
                f"engine={engine!r} cannot be combined with "
                f"runtime={runtime!r}: distributed ranks run the "
                "'batched' engine"
            )
        variant = workload.physics.sse_variant
        if not workload.ballistic and variant != "dace":
            raise PlanError(
                f"sse_variant={variant!r} cannot be combined with "
                f"runtime={runtime!r}: the SSE exchange evaluates Σ≷/Π≷ "
                "with its own schedule kernels (use 'dace')"
            )
    sse_modeled = not workload.ballistic and workload.physics.sse_variant in (
        "dace", "sdfg",
    )
    if autotune is not None:
        if autotune not in AUTOTUNE_STRATEGIES:
            raise PlanError(
                f"unknown autotune strategy {autotune!r}; "
                f"expected one of {AUTOTUNE_STRATEGIES}"
            )
        if not sse_modeled:
            raise PlanError(
                "autotune requires an SSE workload "
                "(non-ballistic, sse_variant 'dace' or 'sdfg'); "
                f"got ballistic={workload.ballistic}, "
                f"sse_variant={workload.physics.sse_variant!r}"
            )

    # -- group sweep points by structural settings ------------------------------
    dev = workload.device
    grouped: Dict[Tuple, List] = {}
    for pt in points:
        # mixing 0 freezes Σ≷/Π≷ at the first iterate and reads as
        # converged; a loop of no iterations has no result to report
        mixing = pt.settings["mixing"]
        max_iterations = pt.settings["max_iterations"]
        if not 0 < mixing <= 1 or max_iterations < 1:
            raise PlanError(
                f"workload {workload.name!r} point {pt.index} {pt.coords}: "
                f"mixing={mixing} must lie in (0, 1] and "
                f"max_iterations={max_iterations} must be >= 1"
            )
        key = tuple(pt.settings[f] for f in STRUCTURAL_FIELDS)
        grouped.setdefault(key, []).append(pt)

    groups: List[PlanGroup] = []
    runtime_plan: List[Dict[str, Any]] = []
    for key, members in grouped.items():
        base = dict(members[0].settings)
        base["engine"] = engine
        base["rgf_kernel"] = rgf_kernel
        base["sse_backend"] = sse_backend
        grid_kw = dict(
            Nkz=base["Nkz"], Nqz=base["Nqz"], NE=base["NE"], Nw=base["Nw"]
        )
        try:
            if workload.parameters is not None:
                params = validate_parameters(workload.parameters, **grid_kw)
            else:
                params = validate_parameters(
                    NA=dev.NA, NB=dev.NB, Norb=dev.Norb, N3D=3,
                    bnum=dev.bnum, **grid_kw,
                )
        except ValueError as exc:
            raise PlanError(f"workload {workload.name!r}: {exc}") from exc
        base["runtime"] = runtime
        base["ranks"] = None
        base["schedule"] = schedule or "omen"
        if runtime != "serial":
            # The runtime executes the *device* structure, which may
            # differ from a paper-parameter planning override.
            try:
                exec_params = (
                    params
                    if workload.parameters is None
                    else validate_parameters(
                        NA=dev.NA, NB=dev.NB, Norb=dev.Norb, N3D=3,
                        bnum=dev.bnum, **grid_kw,
                    )
                )
                entry = _plan_runtime_group(exec_params, ranks, schedule)
            except ValueError as exc:
                raise PlanError(
                    f"workload {workload.name!r} runtime plan: {exc}"
                ) from exc
            base["ranks"] = entry["P"]
            base["schedule"] = entry["schedule"]
            runtime_plan.append(entry)
        groups.append(
            PlanGroup(
                key=key + tuple(base[f] for f in EXECUTION_FIELDS),
                base_settings=base,
                points=tuple(
                    (
                        pt.index,
                        pt.coords,
                        {
                            k: v
                            for k, v in pt.settings.items()
                            if base.get(k) != v
                        },
                    )
                    for pt in members
                ),
                parameters=params,
            )
        )

    # -- cost model (every group priced at its own grid size) -------------------
    iters = 1 if workload.ballistic else workload.physics.max_iterations
    gf = sse = 0.0
    el_bytes = ph_bytes = 0
    for g in groups:
        fl = iteration_flops(g.parameters)
        n = len(g.points)
        gf += n * (fl.contour_integral + fl.rgf)
        if not workload.ballistic:
            sse += n * fl.sse_dace
        el_bytes = max(el_bytes, g.parameters.electron_gf_bytes)
        ph_bytes = max(ph_bytes, g.parameters.phonon_gf_bytes)
    cost = PlanCost(
        points=len(points),
        iterations_per_point=iters,
        gf_flops_per_iteration=gf,
        sse_flops_per_iteration=sse,
        electron_gf_bytes=el_bytes,
        phonon_gf_bytes=ph_bytes,
    )

    # -- SSE transformation pipeline, movement modeled at planned dims ----------
    sse_report: Optional[PipelineReport] = None
    tuned_sse_report: Optional[PipelineReport] = None
    if sse_modeled:
        from ..core.recipe import sse_movement_report

        peak = max(
            (g.parameters for g in groups),
            key=lambda p: p.Nkz * p.NE * p.Nqz * p.Nw,
        )
        peak_dims = dict(
            Nkz=peak.Nkz, NE=peak.NE, Nqz=peak.Nqz, Nw=peak.Nw,
            NA=peak.NA, NB=peak.NB, Norb=peak.Norb, N3D=peak.N3D,
        )
        sse_report = sse_movement_report(peak_dims)
        if autotune is not None:
            from ..autotune import AutotuneError
            from ..core.recipe import tuned_sse_search

            try:
                tuned = tuned_sse_search(peak_dims)
            except AutotuneError as exc:
                raise PlanError(f"autotune failed: {exc}") from exc
            tuned_sse_report = tuned.report

    return Plan(
        workload=workload,
        engine=engine,
        rgf_kernel=rgf_kernel,
        ballistic=workload.ballistic,
        groups=tuple(groups),
        cost=cost,
        sse_report=sse_report,
        sse_backend=sse_backend,
        autotune=autotune,
        tuned_sse_report=tuned_sse_report,
        runtime=runtime,
        ranks=ranks,
        runtime_plan=tuple(runtime_plan) if runtime_plan else None,
    )
