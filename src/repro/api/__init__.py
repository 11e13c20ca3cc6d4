"""Public facade: declarative Workload → compiled Plan → executed Session.

The canonical way every scenario enters the codebase::

    from repro.api import Session, scenario

    plan = scenario("finfet_iv").compile()   # validate + choose execution
    print(plan.describe())                   # inspect before spending flops
    with Session(plan) as session:           # pools closed deterministically
        sweep = session.run()                # reuses H, grid, boundaries
    sweep.save("iv_curve.json")

*Workload* (:mod:`repro.api.workload`) declares what is simulated —
device, physics, spectral grids, and sweeps as first-class axes, plus a
registry of named scenario presets.  *Plan* (:mod:`repro.api.plan`) is
the explicit compile step where the performance-engineering choices live:
Table-1 validation, engine/decomposition/cache policy, Table-3 cost
estimates.  *Session* (:mod:`repro.api.session`) executes the plan with
sweep-level reuse and deterministic resource lifetimes.
"""

from .plan import (
    Plan,
    PlanCost,
    PlanError,
    PlanGroup,
    STRUCTURAL_FIELDS,
    compile_workload,
)
from .session import RunResult, Session, SweepResult
from .workload import (
    SWEEP_AXES,
    DeviceSpec,
    GridSpec,
    PhysicsSpec,
    SweepAxis,
    SweepPoint,
    Workload,
    WorkloadError,
    register_scenario,
    scenario,
    scenarios,
)

__all__ = [
    "Workload",
    "DeviceSpec",
    "GridSpec",
    "PhysicsSpec",
    "SweepAxis",
    "SweepPoint",
    "SWEEP_AXES",
    "WorkloadError",
    "register_scenario",
    "scenario",
    "scenarios",
    "Plan",
    "PlanCost",
    "PlanError",
    "PlanGroup",
    "STRUCTURAL_FIELDS",
    "compile_workload",
    "Session",
    "RunResult",
    "SweepResult",
]
