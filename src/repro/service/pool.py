"""Rank pools: persistent executors shared across tenants.

A :class:`RankPool` is the service-side analogue of what one
:class:`~repro.api.Session` does for one sweep: it owns the expensive,
structure-invariant resources — the built
:class:`~repro.negf.HamiltonianModel` (one per
:class:`~repro.api.DeviceSpec`) and one :class:`~repro.negf.SCBASimulation`
(hence one :class:`~repro.negf.engine.SpectralGrid` with memoized
operators, one execution engine, one
:class:`~repro.negf.engine.BoundaryCache`, and the resident rank workers
of a distributed runtime) per *structural group* — and
keeps them resident across **jobs**, not just across the sweep points of
one workload.  Two tenants whose workloads share a structural group hit
the same warm boundary cache and the same assembled operator blocks by
construction; the second tenant's lead self-energies are all cache hits.

The structural group extends the Session/Plan notion
(:data:`repro.api.STRUCTURAL_FIELDS`) with everything else that is fixed
at simulation construction: the device spec and the engine/kernel/runtime
selection.  Jobs in the same group differ only in fields the executor
syncs per point (bias, temperatures, coupling, tolerances, ...), exactly
like sweep points within a Session group — so pool execution is
bit-identical to a per-workload ``Session.run()`` (pinned by
``tests/test_service.py``).

Capacity is *modeled*: each pool admits jobs up to ``capacity_flops`` of
Table-3-priced work (:attr:`repro.api.PlanCost.total_flops`), the same
cost model the packer uses to place jobs.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, List, Optional, Tuple

from ..api.plan import Plan, PlanGroup
from ..api.session import (
    RunResult,
    SweepResult,
    execute_point,
    sum_boundary_counters,
)
from ..api.workload import DeviceSpec
from ..negf.scba import SCBASettings, SCBASimulation

__all__ = ["PoolError", "structural_key", "RankPool"]


class PoolError(RuntimeError):
    """A job was routed to a pool that cannot execute it."""


#: base-settings fields fixed at SCBASimulation construction — a shared
#: simulation cannot be re-pointed at a different engine, kernel, cache
#: policy, or runtime after the fact, so they join the structural key
_CONSTRUCTION_FIELDS: Tuple[str, ...] = (
    "engine",
    "rgf_kernel",
    "cache_boundary",
    "cache_operators",
    "sse_backend",
    "runtime",
    "ranks",
    "schedule",
)


def structural_key(device: DeviceSpec, group: PlanGroup) -> Tuple:
    """The sharing key: jobs with equal keys may share one simulation.

    Combines the device spec (operators), the plan group's structural
    settings (grid shape, η, boundary method — ``PlanGroup.key``), and
    the construction-time execution selection.  Everything *not* in the
    key is synced per point by :func:`repro.api.session.execute_point`.
    """
    return (
        tuple(sorted(asdict(device).items())),
        tuple(group.key),
        tuple(group.base_settings.get(f) for f in _CONSTRUCTION_FIELDS),
    )


class RankPool:
    """One shared capacity bin with resident per-group executors."""

    def __init__(self, pool_id: str, capacity_flops: float):
        if capacity_flops <= 0:
            raise PoolError(f"capacity_flops={capacity_flops} must be positive")
        self.pool_id = pool_id
        self.capacity_flops = capacity_flops
        self.committed_flops = 0.0
        #: job ids admitted over the pool's lifetime, in admission order
        self.job_ids: List[str] = []
        #: structural groups this pool hosts (affinity targets)
        self._models: Dict[DeviceSpec, Any] = {}
        self._sims: Dict[Tuple, SCBASimulation] = {}
        #: per-group boundary solves of the group's *first* job — the
        #: isolated cost every later job of the group avoids paying
        self._first_solves: Dict[Tuple, int] = {}
        self._closed = False

    # -- admission ----------------------------------------------------------------
    @property
    def keys(self) -> Tuple[Tuple, ...]:
        return tuple(self._sims)

    @property
    def remaining_flops(self) -> float:
        return self.capacity_flops - self.committed_flops

    def fits(self, flops: float) -> bool:
        return flops <= self.remaining_flops

    def admit(self, job) -> None:
        """Commit a planned job's modeled flops against the capacity."""
        flops = job.price.flops
        if not self.fits(flops) and self.job_ids:
            raise PoolError(
                f"{self.pool_id}: job {job.job_id} needs {flops:.3e} modeled "
                f"flops but only {self.remaining_flops:.3e} of "
                f"{self.capacity_flops:.3e} remain"
            )
        self.committed_flops += flops
        self.job_ids.append(job.job_id)
        job.pool_id = self.pool_id

    # -- executors ----------------------------------------------------------------
    def _model(self, device: DeviceSpec):
        if device not in self._models:
            self._models[device] = device.build()
        return self._models[device]

    def simulation(self, device: DeviceSpec, group: PlanGroup) -> SCBASimulation:
        """The resident simulation of one structural group (built once)."""
        if self._closed:
            raise PoolError(f"{self.pool_id} is closed")
        key = structural_key(device, group)
        if key not in self._sims:
            self._sims[key] = SCBASimulation(
                self._model(device), SCBASettings(**group.base_settings)
            )
        return self._sims[key]

    # -- execution ----------------------------------------------------------------
    def execute(self, job, keep_arrays: bool = True) -> SweepResult:
        """Run every sweep point of a job on the pool's shared executors.

        Points run through the same
        :func:`~repro.api.session.execute_point` as a Session's, so
        results match a per-workload Session to the bit while the
        boundary cache and assembled operators stay warm across every
        job the group has ever hosted.
        """
        plan: Plan = job.plan
        device = plan.workload.device
        before = self.boundary_counters()
        runs: List[RunResult] = []
        for group in plan.groups:
            sim = self.simulation(device, group)
            for j in range(len(group.points)):
                runs.append(
                    execute_point(
                        sim, group, j,
                        ballistic=plan.ballistic, keep_arrays=keep_arrays,
                        span_name="service.point",
                        job_id=job.job_id, pool=self.pool_id,
                    )
                )
        runs.sort(key=lambda r: r.index)
        delta = self._counter_delta(before)
        job.metrics.update(self._savings(job, plan, device, delta))
        return SweepResult(
            workload=plan.workload.to_dict(),
            runs=runs,
            reuse=delta,
            engine=plan.engine,
        )

    def _savings(
        self, job, plan: Plan, device: DeviceSpec, delta: Dict[str, int]
    ) -> Dict[str, int]:
        """Boundary-solve accounting of one executed job.

        The first job of each structural group pays the group's full
        isolated solve bill; its measured delta is recorded as the
        baseline.  Every later job's saving is the baseline minus what it
        actually solved — a measured quantity, not a model.
        """
        solves = delta["boundary_el_solves"] + delta["boundary_ph_solves"]
        hits = delta["boundary_el_hits"] + delta["boundary_ph_hits"]
        saved = 0
        for group in plan.groups:
            key = structural_key(device, group)
            if key not in self._first_solves:
                self._first_solves[key] = solves
            else:
                saved += max(self._first_solves[key] - solves, 0)
        return {
            "boundary_solves": solves,
            "boundary_hits": hits,
            "boundary_solves_saved": saved,
        }

    # -- accounting ---------------------------------------------------------------
    def boundary_counters(self) -> Dict[str, int]:
        """Aggregated boundary solve/hit counters across resident sims."""
        return sum_boundary_counters(self._sims.values())

    def _counter_delta(self, before: Dict[str, int]) -> Dict[str, int]:
        after = self.boundary_counters()
        return {k: after[k] - before[k] for k in after}

    def stats(self) -> Dict[str, Any]:
        return {
            "pool_id": self.pool_id,
            "capacity_flops": float(self.capacity_flops),
            "committed_flops": float(self.committed_flops),
            "utilization": (
                float(self.committed_flops) / float(self.capacity_flops)
            ),
            "jobs": list(self.job_ids),
            "groups": len(self._sims),
            "reuse": self.boundary_counters(),
        }

    # -- lifetime -----------------------------------------------------------------
    def close(self) -> None:
        """Shut every resident simulation down (rank workers included)."""
        for sim in self._sims.values():
            sim.close()
        self._sims.clear()
        self._models.clear()
        self._closed = True

    def __enter__(self) -> "RankPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
