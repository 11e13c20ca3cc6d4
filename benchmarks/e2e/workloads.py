"""The five end-to-end workloads: plain ``Workload`` objects + compile kwargs.

Every workload drives the public facade only (``compile_workload`` →
``Session.run``).  Each exists to make one set of layers dominate the
wall time, so that a change to a layer has one workload that exercises it
and one where the prediction is *no change* (see ``README.md``).

Each workload has three sizes: ``full``, the seconds-scale dims the
metrics are measured at; ``smoke``, the <1 s dims the tier-1 smoke test
runs; ``twin``, reduced dims (NA <= 32, NE <= 12, two Born iterations) on
which the production configuration is checked against the serial/reference
oracle inside every benchmark run.  The oracle's SSE is a Python loop nest
(~0.7 s at NA=12/NE=4), which is what sizes the twins.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.api import DeviceSpec, GridSpec, PhysicsSpec, SweepAxis, Workload

#: ``--seed 0`` (the default) runs the repo's default device seed
DEFAULT_SEED = 0

_SCBA = PhysicsSpec(
    transport="scba", mu_left=+0.2, mu_right=-0.2, coupling=0.25,
    mixing=0.6, tolerance=1e-5, max_iterations=20,
)
_BIAS = SweepAxis("bias", tuple(np.linspace(0.0, 0.6, 9)))

#: compile kwargs of the oracle every twin is checked against
ORACLE_COMPILE = dict(engine="serial", rgf_kernel="reference", runtime="serial")
#: Born iterations of a twin: GF -> SSE -> GF under the self-energies -> SSE
#: -> blend passes through every kernel and the mixing (the oracle's SSE is
#: most of the cost); convergence is not the twin's job
TWIN_ITERATIONS = 2
#: the smoke dims only check the schema: converge in a few iterations
SMOKE_TOLERANCE = 1e-3


def with_sse_variant(workload: Workload, variant: str) -> Workload:
    return replace(workload, physics=replace(workload.physics, sse_variant=variant))


@dataclass(frozen=True)
class Case:
    """One benchmark workload at its three sizes."""

    name: str
    #: one line: which layers dominate and what the workload is for
    why: str
    #: full-size workload (its device seed is replaced per ``--seed``)
    workload: Workload
    #: (device, grid) of the <1 s schema-check size and of the oracle twin
    smoke: Tuple[DeviceSpec, GridSpec]
    twin: Tuple[DeviceSpec, GridSpec]
    #: the device seeds ``--seed n`` draws from (``n`` modulo the count).
    #: Born iterations to tolerance vary 7..12 over arbitrary random devices,
    #: which moves ``solve_s`` by 40 % between seeds; every seed listed here
    #: converges in the same number of iterations at the full dims, so the
    #: metrics measure the code and not the draw.
    device_seeds: Tuple[int, ...] = (1234,)
    #: ``compile_workload`` keyword arguments of the production run
    compile_kwargs: Mapping[str, Any] = field(default_factory=dict)
    #: the independent path ``golden.json`` is generated through, as
    #: (sse_variant, compile kwargs); None where only one path exists
    golden_via: Optional[Tuple[str, Mapping[str, Any]]] = None

    def device_seed(self, seed: int) -> int:
        return self.device_seeds[seed % len(self.device_seeds)]

    def sized(self, size: str, seed: int = DEFAULT_SEED) -> Workload:
        """The workload at ``size`` (full/smoke/twin) generated from ``seed``."""
        if size == "full":
            device, grid = self.workload.device, self.workload.grid
        else:
            device, grid = getattr(self, size)
        device = replace(device, seed=self.device_seed(seed))
        physics = self.workload.physics
        if size == "twin":
            physics = replace(physics, max_iterations=TWIN_ITERATIONS)
        elif size == "smoke":
            physics = replace(physics, tolerance=SMOKE_TOLERANCE)
        return replace(self.workload, device=device, grid=grid, physics=physics)

    def golden(self, size: str, seed: int) -> Tuple[Workload, Dict[str, Any]]:
        """(workload, compile kwargs) of the golden-generating path."""
        w = self.sized(size, seed)
        if self.golden_via is None:
            return w, dict(self.compile_kwargs)
        variant, kwargs = self.golden_via
        return with_sse_variant(w, variant), dict(kwargs)

    def twin_compile_kwargs(self, plan) -> Dict[str, Any]:
        """The production configuration, for the twin's dims.

        The engine and RGF kernel the full-size ``plan`` chose are forced
        (the heuristics would pick differently for tiny blocks);
        ``autotune`` is dropped: the search result is only *reported* by
        the plan, so it cannot change the twin's numbers and would add
        ~8 s to every benchmark run.
        """
        kwargs = {k: v for k, v in self.compile_kwargs.items() if k != "autotune"}
        return {**kwargs, "engine": plan.engine, "rgf_kernel": plan.rgf_kernel}


_SSE_DEVICE = DeviceSpec(16, 4, NB=6, slab_width=2, Norb=2)
_SMOKE_DEVICE = DeviceSpec(8, 4, NB=6, slab_width=2, Norb=2)
_TWIN_DEVICE = DeviceSpec(4, 3, NB=6, slab_width=2, Norb=2)  # NA = 12
_TWIN_GRID = GridSpec(-1.5, 1.5, NE=4, Nkz=2, Nqz=1, Nw=2)

CASES: Dict[str, Case] = {
    c.name: c
    for c in (
        Case(
            name="scba_sse",
            device_seeds=(1234, 3, 8, 12, 14, 16, 24, 29, 30, 31, 35),
            why="small RGF blocks, many (E,w) pairs: the hand dace sigma/pi "
                "kernels do most of solve_s; GF work must not show",
            workload=Workload(
                name="scba_sse",
                device=_SSE_DEVICE,
                grid=GridSpec(-1.5, 1.5, NE=40, Nkz=3, Nqz=3, Nw=8),
                physics=_SCBA,
            ),
            smoke=(_SMOKE_DEVICE, GridSpec(-1.5, 1.5, NE=12, Nkz=2, Nqz=2, Nw=3)),
            twin=(_TWIN_DEVICE, _TWIN_GRID),
        ),
        Case(
            name="scba_gf",
            device_seeds=(1234, 3, 5, 18, 19, 21, 30, 31, 35, 37, 44),
            why="96-wide blocks (plan picks csrmm), few energies: RGF + "
                "Sancho-Rubio do most of solve_s; SSE work must not show",
            workload=Workload(
                name="scba_gf",
                device=DeviceSpec(8, 12, NB=6, slab_width=2, Norb=4),
                grid=GridSpec(-1.5, 1.5, NE=12, Nkz=2, Nqz=2, Nw=2),
                physics=_SCBA,
            ),
            smoke=(
                DeviceSpec(4, 12, NB=6, slab_width=2, Norb=4),
                GridSpec(-1.5, 1.5, NE=4, Nkz=1, Nqz=1, Nw=2),
            ),
            twin=(DeviceSpec(4, 3, NB=6, slab_width=2, Norb=4), _TWIN_GRID),
        ),
        Case(
            name="iv_sweep",
            device_seeds=(1234, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
            why="ballistic 9-point bias sweep: zero SSE work, RGF dominates, "
                "leads solved at the first point and only hit afterwards "
                "(Session sweep reuse, cache read path)",
            workload=Workload(
                name="iv_sweep",
                device=DeviceSpec(12, 8, NB=6, slab_width=2, Norb=4),
                grid=GridSpec(-1.5, 1.5, NE=16, Nkz=2, Nqz=2, Nw=2, eta=1e-6),
                physics=PhysicsSpec(transport="ballistic"),
                sweeps=(_BIAS,),
            ),
            smoke=(
                DeviceSpec(6, 4, NB=6, slab_width=2, Norb=4),
                GridSpec(-1.5, 1.5, NE=6, Nkz=2, Nqz=2, Nw=2, eta=1e-6),
            ),
            twin=(
                DeviceSpec(6, 4, NB=6, slab_width=2, Norb=4),
                GridSpec(-1.5, 1.5, NE=8, Nkz=2, Nqz=2, Nw=2, eta=1e-6),
            ),
        ),
        Case(
            name="dist_sim4",
            device_seeds=(1234, 4, 7, 8, 15, 20, 24, 26, 29, 30, 32),
            why="scba_sse's device through DistributedSCBARuntime/DaceExchange "
                "on 4 in-process ranks: exchange, metering and second-Born-loop "
                "overhead",
            workload=Workload(
                name="dist_sim4",
                device=_SSE_DEVICE,
                grid=GridSpec(-1.5, 1.5, NE=48, Nkz=2, Nqz=2, Nw=8),
                physics=_SCBA,
            ),
            compile_kwargs=dict(runtime="sim", ranks=4, schedule="dace"),
            smoke=(_SMOKE_DEVICE, GridSpec(-1.5, 1.5, NE=12, Nkz=2, Nqz=2, Nw=3)),
            twin=(_TWIN_DEVICE, _TWIN_GRID),
            golden_via=("dace", dict(runtime="serial")),
        ),
        Case(
            name="plan_sdfg",
            device_seeds=(1234, 5, 13, 15, 17, 19, 20, 24, 27, 29, 32),
            why="autotune search + sdfg passes dominate setup_s and the "
                "generated fig12s kernel runs inside SCBA: the only workload "
                "where codegen/autotune work can show",
            workload=Workload(
                name="plan_sdfg",
                device=_SSE_DEVICE,
                grid=GridSpec(-1.5, 1.5, NE=16, Nkz=2, Nqz=1, Nw=3),
                physics=replace(_SCBA, sse_variant="sdfg"),
            ),
            compile_kwargs=dict(autotune="greedy"),
            smoke=(_SMOKE_DEVICE, GridSpec(-1.5, 1.5, NE=8, Nkz=2, Nqz=1, Nw=2)),
            twin=(_TWIN_DEVICE, _TWIN_GRID),
            golden_via=("dace", {}),
        ),
    )
}
