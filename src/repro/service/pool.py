"""The service's one executor set: resident simulations shared across tenants.

A :class:`RankPool` does for many jobs what one
:class:`~repro.api.Session` does for one sweep: it owns the built
:class:`~repro.negf.HamiltonianModel` (one per
:class:`~repro.api.DeviceSpec`) and one :class:`~repro.negf.SCBASimulation`
(memoized operators, engine, :class:`~repro.negf.engine.BoundaryCache`,
the rank workers of a distributed runtime) per *structural group*, and
keeps them resident across **jobs** and tenants.  Two tenants whose
workloads share a structural group hit the same warm boundary cache by
construction, so the group's boundary bill is paid once.

The structural group is the device spec plus the plan group's choice
key (:attr:`repro.api.PlanGroup.key`: the structural settings and the
execution selection fixed at simulation construction).  Jobs in the same
group differ only in fields the executor syncs per point (bias,
temperatures, coupling, tolerances, ...), exactly like sweep points
within a Session group — so pool execution is bit-identical to a
per-workload ``Session.run()`` (pinned by ``tests/test_service.py``).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, List, Tuple

from ..api.plan import Plan, PlanGroup
from ..api.session import (
    RunResult,
    SweepResult,
    execute_point,
    sum_reuse_counters,
)
from ..api.workload import DeviceSpec
from ..negf.scba import SCBASettings, SCBASimulation

__all__ = ["structural_key", "RankPool"]


def structural_key(device: DeviceSpec, group: PlanGroup) -> Tuple:
    """The sharing key: jobs with equal keys may share one simulation.

    The device spec (operators) and the plan group's choice key
    (:attr:`~repro.api.PlanGroup.key`).  Everything *not* in the key is
    synced per point by :func:`repro.api.session.execute_point`.
    """
    return (tuple(sorted(asdict(device).items())), group.key)


class RankPool:
    """Resident per-structural-group executors, shared by every job."""

    def __init__(self):
        self._models: Dict[DeviceSpec, Any] = {}
        self._sims: Dict[Tuple, SCBASimulation] = {}

    def __len__(self) -> int:
        """Number of resident structural groups."""
        return len(self._sims)

    # -- executors ----------------------------------------------------------------
    def simulation(self, device: DeviceSpec, group: PlanGroup) -> SCBASimulation:
        """The resident simulation of one structural group (built once)."""
        key = structural_key(device, group)
        if key not in self._sims:
            if device not in self._models:
                self._models[device] = device.build()
            self._sims[key] = SCBASimulation(
                self._models[device], SCBASettings(**group.base_settings)
            )
        return self._sims[key]

    # -- execution ----------------------------------------------------------------
    def execute(self, job, keep_arrays: bool = True) -> SweepResult:
        """Run every sweep point of a job on the shared executors.

        Points run through the same
        :func:`~repro.api.session.execute_point` as a Session's, so
        results match a per-workload Session to the bit while the
        boundary cache and assembled operators stay warm across every
        job the group has ever hosted.  The job's measured boundary
        solves and hits land in :attr:`Job.metrics`.
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
                        span_name="service.point", job_id=job.job_id,
                    )
                )
        runs.sort(key=lambda r: r.index)
        after = self.boundary_counters()
        delta = {k: after[k] - before.get(k, 0) for k in after}
        job.metrics["boundary_solves"] = (
            delta["boundary_el_solves"] + delta["boundary_ph_solves"]
        )
        job.metrics["boundary_hits"] = (
            delta["boundary_el_hits"] + delta["boundary_ph_hits"]
        )
        return SweepResult(
            workload=plan.workload.to_dict(),
            runs=runs,
            reuse=delta,
            engine=plan.engine,
        )

    # -- accounting ---------------------------------------------------------------
    def boundary_counters(self) -> Dict[str, int]:
        """Aggregated boundary and assembly counters across resident sims."""
        return sum_reuse_counters(self._sims.values())

    # -- lifetime -----------------------------------------------------------------
    def close(self) -> None:
        """Shut every resident simulation down (rank workers included)."""
        for sim in self._sims.values():
            sim.close()
        self._sims.clear()
        self._models.clear()

    def __enter__(self) -> "RankPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
