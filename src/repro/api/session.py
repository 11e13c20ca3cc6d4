"""Session: context-managed execution of compiled plans.

A :class:`Session` owns every expensive, sweep-invariant resource of the
plans it runs and reuses it across sweep points — and across plans:

* one :class:`~repro.negf.HamiltonianModel` (synthetic DFT operators)
  per :class:`~repro.api.DeviceSpec`, built once;
* one :class:`~repro.negf.SCBASimulation` per *structural key* — the
  device plus the :attr:`~repro.api.PlanGroup.key` — hence one
  :class:`~repro.negf.SpectralGrid` (with its memoized H(kz)/S(kz)/Φ(qz)
  operator blocks), one execution engine, one
  :class:`~repro.negf.BoundaryCache`, and — for a distributed runtime —
  one set of resident rank workers, shared by every point routed to it,
  because bias, temperature, and gate never touch the grid, the
  operators, or the lead self-energies;
* the rank processes of ``runtime="pipe"`` are shut down
  deterministically on ``close()`` / ``with``-exit instead of relying on
  GC/atexit.

``Session(plan).run()`` runs the plan the session was opened with;
``run(other_plan)`` runs a further plan on the same resident
simulations wherever its structural keys match, so several workloads
on one device share warm executors (``examples/scheduler_service.py``
queues jobs over one session this way).  Results come back
as structured :class:`RunResult`/:class:`SweepResult` objects with JSON
export built on :meth:`repro.negf.SCBAResult.to_dict`.  Under
``REPRO_TELEMETRY=spans`` a sweep also carries the spans of its own
:meth:`Session.run` (:attr:`SweepResult.telemetry`), wherever the run is
called from; the counts live on the results themselves
(``RunResult.iterations``/``.comm``, ``SweepResult.reuse``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..negf.scba import SCBAResult, SCBASettings, SCBASimulation
from ..telemetry.spans import get_tracer, trace
from ..telemetry.timing import timeit
from .plan import Plan, PlanGroup
from .workload import DeviceSpec, Workload

__all__ = ["Session", "RunResult", "SweepResult"]


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
    #: the spans of this :meth:`Session.run` ({"mode", "trace"},
    #: :func:`repro.telemetry.telemetry_snapshot`): its ``session.run``
    #: subtree plus the rank tracks merged during it, also when the run
    #: is nested in an enclosing span; None when REPRO_TELEMETRY is off
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
        if self.telemetry is not None:
            out["telemetry"] = dict(self.telemetry)
        return out

    def to_json(self, include_arrays: bool = False, **kwargs) -> str:
        return json.dumps(self.to_dict(include_arrays), **kwargs)

    def save(self, path, include_arrays: bool = False) -> None:
        Path(path).write_text(self.to_json(include_arrays, indent=2) + "\n")

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "SweepResult":
        telemetry = d.get("telemetry")
        return cls(
            workload=dict(d["workload"]),
            runs=[RunResult.from_dict(r) for r in d["runs"]],
            reuse=dict(d.get("reuse", {})),
            engine=d.get("engine", ""),
            telemetry=dict(telemetry) if telemetry is not None else None,
        )

    @classmethod
    def load(cls, path) -> "SweepResult":
        return cls.from_dict(json.loads(Path(path).read_text()))


class Session:
    """Run compiled plans, reusing sweep-invariant state across points.

    Usage::

        plan = scenario("finfet_iv").compile()
        with Session(plan) as session:
            sweep = session.run()
            other = session.run(plan_on_the_same_grid)  # warm caches

    The context manager guarantees the rank processes of a
    ``runtime="pipe"`` plan are shut down on exit.
    ``Session.from_workload`` compiles and opens in one step.
    """

    def __init__(self, plan: Plan):
        self.plan = plan
        self._models: Dict[DeviceSpec, Any] = {}
        #: resident simulations by structural key: (device, PlanGroup.key)
        self._sims: Dict[Tuple[DeviceSpec, Tuple], SCBASimulation] = {}
        self._closed = False
        self._final_counters: Optional[Dict[str, int]] = None

    @classmethod
    def from_workload(cls, workload: Workload, **compile_kwargs) -> "Session":
        return cls(workload.compile(**compile_kwargs))

    def __len__(self) -> int:
        """Number of resident simulations (one per structural group)."""
        return len(self._sims)

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
        """The Hamiltonian model of the opening plan's device (built on
        first access)."""
        return self._model(self.plan.workload.device)

    def _model(self, device: DeviceSpec):
        if device not in self._models:
            self._models[device] = device.build()
        return self._models[device]

    def simulation(self, group_index: int) -> SCBASimulation:
        """The (cached) simulation executing one group of the opening plan."""
        return self._simulation(
            self.plan.workload.device, self.plan.groups[group_index]
        )

    def _simulation(
        self, device: DeviceSpec, group: PlanGroup
    ) -> SCBASimulation:
        """The resident simulation of ``group``'s structural key, built once.

        Everything not in the key is applied per point by
        :meth:`_execute_point`, so every plan whose group has this key
        shares the simulation's operators and boundary cache.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        key = (device, group.key)
        if key not in self._sims:
            self._sims[key] = SCBASimulation(
                self._model(device), SCBASettings(**group.base_settings)
            )
        return self._sims[key]

    # -- execution -----------------------------------------------------------------
    def run(
        self, plan: Optional[Plan] = None, progress=None,
        keep_arrays: bool = True,
    ) -> SweepResult:
        """Execute every sweep point of a plan, in sweep order.

        ``plan`` defaults to the plan the session was opened with; any
        further plan runs on the same resident simulations wherever its
        groups' structural keys (device + :attr:`PlanGroup.key`) match
        one the session already holds, so its points hit the warm
        boundary cache and assembled operators.  ``progress`` is an
        optional callable receiving each :class:`RunResult` as it
        completes.  ``keep_arrays=False`` drops each point's full tensor
        set once its scalar observables are extracted — sweep memory
        then stays O(1) in the number of points instead of pinning every
        ``SCBAResult`` until the sweep ends.  Numerical results are
        identical (≤ 1e-10, pinned by ``tests/test_api.py``) to running
        each point through a fresh ``SCBASimulation`` — the session only
        removes re-computation of sweep-invariant state.  The result's
        ``reuse`` counts this run only; :meth:`reuse_counters` keeps the
        session's lifetime totals.
        """
        plan = self.plan if plan is None else plan
        device = plan.workload.device
        runs: List[RunResult] = []
        n_points = sum(len(g.points) for g in plan.groups)
        tracer = get_tracer()
        first_root = len(tracer.roots())
        before = self.reuse_counters()
        with trace("session.run", points=n_points, engine=plan.engine) as span:
            for group in plan.groups:
                sim = self._simulation(device, group)
                for j in range(len(group.points)):
                    rr = self._execute_point(
                        sim, group, j, plan.ballistic, keep_arrays
                    )
                    runs.append(rr)
                    if progress is not None:
                        progress(rr)
            # roots completed during this run (merged rank tracks); the
            # run's own span is still open, so it is not among them
            merged = tracer.roots()[first_root:]
        runs.sort(key=lambda r: r.index)
        telemetry = None
        if span is not None:
            from ..telemetry.export import telemetry_snapshot

            telemetry = telemetry_snapshot(merged + [("main", span.to_dict())])
        after = self.reuse_counters()
        return SweepResult(
            workload=plan.workload.to_dict(),
            runs=runs,
            reuse={k: v - before.get(k, 0) for k, v in after.items()},
            engine=plan.engine,
            telemetry=telemetry,
        )

    def run_point(self, index: int, keep_arrays: bool = True) -> RunResult:
        """Execute a single sweep point of the opening plan by its linear
        index."""
        for gi, group in enumerate(self.plan.groups):
            for j, (idx, _coords, _ov) in enumerate(group.points):
                if idx == index:
                    return self._execute_point(
                        self.simulation(gi), group, j, self.plan.ballistic,
                        keep_arrays,
                    )
        raise IndexError(f"no sweep point with index {index}")

    def _execute_point(
        self, sim: SCBASimulation, group: PlanGroup, j: int,
        ballistic: bool, keep_arrays: bool,
    ) -> RunResult:
        """Run the ``j``-th point of ``group`` on its resident simulation.

        The point's full settings are applied to the simulation first —
        only non-structural fields differ between the points routed to
        one simulation, so its grid, operators and boundary cache stay
        valid.  The run is timed inside a ``session.point`` span.
        """
        index, coords, _overrides = group.points[j]
        for k, v in group.point_settings(j).items():
            setattr(sim.s, k, v)
        with trace("session.point", index=index, **coords):
            timing = timeit(lambda: sim.run(ballistic=ballistic), repeats=1)
        comm = None
        if sim.last_comm:
            comm = {
                phase: stats.to_dict()
                for phase, stats in sim.last_comm.items()
            }
        return RunResult.from_scba(
            index, coords, timing.result, timing.best, keep_arrays=keep_arrays,
            comm=comm, rgf_kernel=sim.engine.kernel.name,
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

        Both are exact for every execution path: the distributed runtime
        sums its resident per-rank caches and grids, whether its ranks
        share the session's model (``sim``) or hold a forked copy of it
        (``pipe``).  After :meth:`close` the counters frozen at shutdown
        are returned.
        """
        if self._final_counters is not None:
            return dict(self._final_counters)
        out: Dict[str, int] = {}
        for sim in self._sims.values():
            for key, value in sim.boundary_counters().items():
                if not key.startswith("assemblies_"):
                    key = f"boundary_{key}"
                out[key] = out.get(key, 0) + value
        return out
