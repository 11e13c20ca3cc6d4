"""Session: context-managed execution of a compiled plan.

A :class:`Session` owns every expensive, sweep-invariant resource of a
planned workload and reuses it across sweep points:

* the :class:`~repro.negf.HamiltonianModel` (synthetic DFT operators)
  is built once per session;
* each :class:`~repro.api.PlanGroup` gets one
  :class:`~repro.negf.SCBASimulation` — hence one
  :class:`~repro.negf.SpectralGrid` (with its memoized H(kz)/S(kz)/Φ(qz)
  operator blocks), one execution engine, one
  :class:`~repro.negf.BoundaryCache`, and — for a distributed runtime —
  one set of resident rank workers, shared by every point of the group,
  because bias, temperature, and gate never touch the grid, the
  operators, or the lead self-energies;
* the rank processes of ``runtime="pipe"`` are shut down
  deterministically on ``close()`` / ``with``-exit instead of relying on
  GC/atexit.

One sweep point is executed by :func:`execute_point` — for a session and
for the scheduler service's shared executors alike.  Results come back as
structured :class:`RunResult`/:class:`SweepResult` objects with JSON
export built on :meth:`repro.negf.SCBAResult.to_dict`.  Under
``REPRO_TELEMETRY=spans`` a sweep also carries the spans of its own
:meth:`Session.run` (:attr:`SweepResult.telemetry`); the counts live on
the results themselves (``RunResult.iterations``/``.comm``,
``SweepResult.reuse``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from ..negf.scba import SCBAResult, SCBASettings, SCBASimulation
from ..telemetry.spans import get_tracer, spans_enabled, trace
from ..telemetry.timing import timeit
from .plan import Plan, PlanGroup
from .workload import Workload

__all__ = [
    "Session",
    "RunResult",
    "SweepResult",
    "execute_point",
    "sum_boundary_counters",
]


@dataclass
class RunResult:
    """One sweep point: its coordinates, scalar observables, and result.

    The scalar summary always survives serialization; the full
    :class:`~repro.negf.SCBAResult` tensors are attached in-memory and
    included in exports only on request (``include_arrays=True``).
    """

    index: int
    coords: Dict[str, float]
    current_left: float
    current_right: float
    iterations: int
    converged: bool
    total_dissipation: float
    elapsed_seconds: float
    result: Optional[SCBAResult] = None
    #: per-phase per-rank communication accounting of a distributed run
    #: ({"sse"/"residual"/"gather": CommStats dict}; None for serial runs)
    comm: Optional[Dict[str, Any]] = None
    #: RGF kernel the point's solves ran through (None for legacy results)
    rgf_kernel: Optional[str] = None

    @property
    def total_current_left(self) -> float:
        return self.current_left

    @property
    def total_current_right(self) -> float:
        return self.current_right

    @classmethod
    def from_scba(
        cls, index: int, coords: Dict[str, float], res: SCBAResult,
        elapsed: float, keep_arrays: bool = True,
        comm: Optional[Dict[str, Any]] = None,
        rgf_kernel: Optional[str] = None,
    ) -> "RunResult":
        return cls(
            index=index,
            coords=dict(coords),
            current_left=res.total_current_left,
            current_right=res.total_current_right,
            iterations=res.iterations,
            converged=res.converged,
            total_dissipation=float(res.dissipation.sum()),
            elapsed_seconds=elapsed,
            result=res if keep_arrays else None,
            comm=comm,
            rgf_kernel=rgf_kernel,
        )

    def to_dict(self, include_arrays: bool = False) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "index": self.index,
            "coords": dict(self.coords),
            "current_left": self.current_left,
            "current_right": self.current_right,
            "iterations": self.iterations,
            "converged": self.converged,
            "total_dissipation": self.total_dissipation,
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.rgf_kernel is not None:
            out["rgf_kernel"] = self.rgf_kernel
        if self.comm is not None:
            out["comm"] = {k: dict(v) for k, v in self.comm.items()}
        if include_arrays and self.result is not None:
            out["result"] = self.result.to_dict()
        return out

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RunResult":
        res = d.get("result")
        return cls(
            index=d["index"],
            coords=dict(d["coords"]),
            current_left=d["current_left"],
            current_right=d["current_right"],
            iterations=d["iterations"],
            converged=d["converged"],
            total_dissipation=d["total_dissipation"],
            elapsed_seconds=d.get("elapsed_seconds", 0.0),
            result=SCBAResult.from_dict(res) if res is not None else None,
            comm=d.get("comm"),
            rgf_kernel=d.get("rgf_kernel"),
        )


@dataclass
class SweepResult:
    """All sweep points of one session run, plus reuse accounting."""

    workload: Dict[str, Any]
    runs: List[RunResult]
    #: boundary-cache and operator-assembly counters of this run alone
    #: (the change in :meth:`Session.reuse_counters` across it) — the
    #: evidence that sweep-invariant work ran once; always serialized by
    #: :meth:`to_dict`
    reuse: Dict[str, int] = field(default_factory=dict)
    engine: str = ""
    #: scheduler-service metadata (cache hit/miss, boundary solves/hits,
    #: queue latency) attached by :class:`repro.service.SchedulerService`
    #: so the job's accounting serializes with the result; None for
    #: plain :meth:`Session.run` results
    service: Optional[Dict[str, Any]] = None
    #: the spans of this :meth:`Session.run` ({"mode", "trace"},
    #: :func:`repro.telemetry.telemetry_snapshot`): its ``session.run``
    #: root plus the rank tracks merged during it; None when
    #: REPRO_TELEMETRY is off
    telemetry: Optional[Dict[str, Any]] = None

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)

    def __getitem__(self, i: int) -> RunResult:
        return self.runs[i]

    # -- columnar accessors ------------------------------------------------------
    def axis(self, name: str) -> np.ndarray:
        """The swept values of one axis across all runs, in sweep order."""
        return np.array([r.coords[name] for r in self.runs])

    @property
    def currents_left(self) -> np.ndarray:
        return np.array([r.current_left for r in self.runs])

    @property
    def currents_right(self) -> np.ndarray:
        return np.array([r.current_right for r in self.runs])

    # -- reuse accounting ---------------------------------------------------------
    @property
    def boundary_solves(self) -> int:
        """Total lead-self-energy solves (electron + phonon) of the sweep."""
        return self.reuse.get("boundary_el_solves", 0) + self.reuse.get(
            "boundary_ph_solves", 0
        )

    @property
    def boundary_hits(self) -> int:
        """Total boundary-cache hits (electron + phonon) of the sweep."""
        return self.reuse.get("boundary_el_hits", 0) + self.reuse.get(
            "boundary_ph_hits", 0
        )

    # -- persistence ------------------------------------------------------------
    def to_dict(self, include_arrays: bool = False) -> Dict[str, Any]:
        out = {
            "workload": dict(self.workload),
            "engine": self.engine,
            "reuse": dict(self.reuse),
            "runs": [r.to_dict(include_arrays) for r in self.runs],
        }
        if self.service is not None:
            out["service"] = dict(self.service)
        if self.telemetry is not None:
            out["telemetry"] = dict(self.telemetry)
        return out

    def to_json(self, include_arrays: bool = False, **kwargs) -> str:
        return json.dumps(self.to_dict(include_arrays), **kwargs)

    def save(self, path, include_arrays: bool = False) -> None:
        Path(path).write_text(self.to_json(include_arrays, indent=2) + "\n")

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "SweepResult":
        service = d.get("service")
        telemetry = d.get("telemetry")
        return cls(
            workload=dict(d["workload"]),
            runs=[RunResult.from_dict(r) for r in d["runs"]],
            reuse=dict(d.get("reuse", {})),
            engine=d.get("engine", ""),
            service=dict(service) if service is not None else None,
            telemetry=dict(telemetry) if telemetry is not None else None,
        )

    @classmethod
    def load(cls, path) -> "SweepResult":
        return cls.from_dict(json.loads(Path(path).read_text()))


def execute_point(
    sim: SCBASimulation,
    group: PlanGroup,
    j: int,
    *,
    ballistic: bool,
    keep_arrays: bool,
    span_name: str,
    **span_attrs,
) -> RunResult:
    """Run the ``j``-th point of ``group`` on the group's simulation.

    The point's full settings are applied to the (shared, resident)
    simulation first — only non-structural fields differ between the
    points routed to one simulation, so its grid, operators and boundary
    cache stay valid.  The run is timed inside a ``span_name`` span.
    """
    index, coords, _overrides = group.points[j]
    for k, v in group.point_settings(j).items():
        setattr(sim.s, k, v)
    with trace(span_name, index=index, **span_attrs):
        timing = timeit(lambda: sim.run(ballistic=ballistic), repeats=1)
    comm = None
    if sim.last_comm:
        comm = {
            phase: stats.to_dict() for phase, stats in sim.last_comm.items()
        }
    return RunResult.from_scba(
        index, coords, timing.result, timing.best, keep_arrays=keep_arrays,
        comm=comm, rgf_kernel=sim.engine.kernel.name,
    )


def sum_boundary_counters(sims: Iterable[SCBASimulation]) -> Dict[str, int]:
    """``boundary_{el,ph}_{solves,hits}`` summed over ``sims``."""
    out = {
        "boundary_el_solves": 0,
        "boundary_el_hits": 0,
        "boundary_ph_solves": 0,
        "boundary_ph_hits": 0,
    }
    for sim in sims:
        for key, value in sim.boundary_counters().items():
            out[f"boundary_{key}"] += value
    return out


class Session:
    """Run a compiled plan, reusing sweep-invariant state across points.

    Usage::

        plan = scenario("finfet_iv").compile()
        with Session(plan) as session:
            sweep = session.run()

    The context manager guarantees the rank processes of a
    ``runtime="pipe"`` plan are shut down on exit.
    ``Session.from_workload`` compiles and opens in one step.
    """

    def __init__(self, plan: Plan):
        self.plan = plan
        self._model = None
        self._sims: Dict[int, SCBASimulation] = {}
        self._closed = False
        self._final_counters: Optional[Dict[str, int]] = None

    @classmethod
    def from_workload(cls, workload: Workload, **compile_kwargs) -> "Session":
        return cls(workload.compile(**compile_kwargs))

    # -- lifetime -----------------------------------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Shut down every simulation (rank workers included), idempotently.

        The reuse counters are snapshotted first, so
        :meth:`reuse_counters` keeps reporting the session's accounting
        after the ``with`` block ends.
        """
        if not self._closed:
            self._final_counters = self.reuse_counters()
        for sim in self._sims.values():
            sim.close()
        self._sims.clear()
        self._closed = True

    # -- lazily-built shared state -------------------------------------------------
    @property
    def model(self):
        """The session-wide Hamiltonian model (built on first access)."""
        if self._model is None:
            self._model = self.plan.workload.device.build()
        return self._model

    def simulation(self, group_index: int) -> SCBASimulation:
        """The (cached) simulation executing one plan group."""
        if self._closed:
            raise RuntimeError("session is closed")
        if group_index not in self._sims:
            group = self.plan.groups[group_index]
            self._sims[group_index] = SCBASimulation(
                self.model, SCBASettings(**group.base_settings)
            )
        return self._sims[group_index]

    # -- execution -----------------------------------------------------------------
    def run(self, progress=None, keep_arrays: bool = True) -> SweepResult:
        """Execute every sweep point of the plan, in sweep order.

        ``progress`` is an optional callable receiving each
        :class:`RunResult` as it completes.  ``keep_arrays=False`` drops
        each point's full tensor set once its scalar observables are
        extracted — sweep memory then stays O(1) in the number of points
        instead of pinning every ``SCBAResult`` until the sweep ends.
        Numerical results are identical (≤ 1e-10, pinned by
        ``tests/test_api.py``) to running each point through a fresh
        ``SCBASimulation`` — the session only removes re-computation of
        sweep-invariant state.  The result's ``reuse`` counts this run
        only; :meth:`reuse_counters` keeps the session's lifetime totals.
        """
        runs: List[RunResult] = []
        n_points = sum(len(g.points) for g in self.plan.groups)
        first_root = len(get_tracer().roots())
        before = self.reuse_counters()
        with trace("session.run", points=n_points, engine=self.plan.engine):
            for gi, group in enumerate(self.plan.groups):
                for j in range(len(group.points)):
                    rr = self._execute_point(gi, j, keep_arrays)
                    runs.append(rr)
                    if progress is not None:
                        progress(rr)
        runs.sort(key=lambda r: r.index)
        telemetry = None
        if spans_enabled():
            from ..telemetry.export import telemetry_snapshot

            telemetry = telemetry_snapshot(since=first_root)
        after = self.reuse_counters()
        return SweepResult(
            workload=self.plan.workload.to_dict(),
            runs=runs,
            reuse={k: v - before.get(k, 0) for k, v in after.items()},
            engine=self.plan.engine,
            telemetry=telemetry,
        )

    def run_point(self, index: int, keep_arrays: bool = True) -> RunResult:
        """Execute a single sweep point by its linear index."""
        for gi, group in enumerate(self.plan.groups):
            for j, (idx, _coords, _ov) in enumerate(group.points):
                if idx == index:
                    return self._execute_point(gi, j, keep_arrays)
        raise IndexError(f"no sweep point with index {index}")

    def _execute_point(
        self, group_index: int, j: int, keep_arrays: bool
    ) -> RunResult:
        group = self.plan.groups[group_index]
        return execute_point(
            self.simulation(group_index), group, j,
            ballistic=self.plan.ballistic, keep_arrays=keep_arrays,
            span_name="session.point", **group.points[j][1],
        )

    # -- verification --------------------------------------------------------------
    def cross_check_sse(
        self,
        dims: Optional[Dict[str, int]] = None,
        seed: int = 0,
        rtol: float = 1e-10,
        atol: float = 1e-10,
    ) -> float:
        """Cross-check every Σ≷ execution path pairwise on a small grid.

        Four evaluations of the same random inputs are compared, each
        against every other: the Fig. 8 → 12 pipeline compiled with the
        **numpy** (generated code) and **interpreter** backends, the
        hand-written ``negf/sse.py`` ``dace`` kernel, and the
        ``variant="sdfg"`` production path (the plan's own
        ``sse_backend``) that the SCBA loop dispatches to.

        The SDFG graphs treat the energy axis as periodic while the
        physical kernel zero-pads it; zeroing the top ``Nw - 1`` energy
        slots of G≷ makes every wrapped contribution vanish, so on such
        inputs all conventions are exactly equivalent and every pair
        must agree to float tolerance.  Returns the max pairwise abs
        error; raises ``AssertionError`` beyond tolerance.
        """
        if self.plan.sse_report is None:
            raise RuntimeError(
                "plan has no dace/sdfg SSE pipeline to cross-check "
                "(ballistic transport or baseline sse_variant)"
            )
        from ..core.recipe import compiled_sse_kernel
        from ..core.sse_sdfg import random_sse_inputs
        from ..negf.sse import sigma_sse

        dims = dict(
            dims or dict(Nkz=3, NE=6, Nqz=2, Nw=2, N3D=2, NA=5, NB=3, Norb=2)
        )
        arrays, tables = random_sse_inputs(dims, seed=seed)
        if dims["Nw"] > 1:
            arrays["G"][:, -(dims["Nw"] - 1):] = 0.0
        kernel_args = (
            arrays["G"], arrays["dH"], arrays["D"], tables["__neigh__"]
        )
        results = {
            "graph[numpy]": compiled_sse_kernel("numpy")(
                dims, arrays, tables
            ),
            "graph[interpreter]": compiled_sse_kernel("interpreter")(
                dims, arrays, tables
            ),
            "kernel[dace]": sigma_sse(*kernel_args, +1, "dace"),
            "kernel[sdfg]": sigma_sse(
                *kernel_args, +1, "sdfg", backend=self.plan.sse_backend
            ),
        }
        worst = 0.0
        names = list(results)
        for i, x in enumerate(names):
            for y in names[i + 1:]:
                err = float(np.max(np.abs(results[x] - results[y])))
                worst = max(worst, err)
                if not np.allclose(
                    results[x], results[y], rtol=rtol, atol=atol
                ):
                    raise AssertionError(
                        f"SSE backends disagree: {x} vs {y} "
                        f"max err {err:.3e}"
                    )
        return worst

    # -- accounting ----------------------------------------------------------------
    def reuse_counters(self) -> Dict[str, int]:
        """Boundary-solve/hit and operator-assembly counters summed over
        the session's lifetime (every run and run point so far).

        Boundary counters are exact for every execution path (the
        distributed runtime sums its resident per-rank caches).  The
        assembly counters cover the parent process only: distributed
        rank workers additionally assemble operators on their own grids,
        which the parent's ``assembly_counts`` cannot observe.  After
        :meth:`close` the counters frozen at shutdown are returned.
        """
        if self._final_counters is not None:
            return dict(self._final_counters)
        out = sum_boundary_counters(self._sims.values())
        if self._model is not None:
            out.update(
                {
                    f"assemblies_{k}": v
                    for k, v in self._model.assembly_counts.items()
                }
            )
        return out
