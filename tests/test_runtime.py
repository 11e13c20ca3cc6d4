"""Distributed SCBA runtime: rank-parallel Born loop over SSE schedules.

The acceptance contract of the runtime tier:

* a distributed run over SimComm matches the serial ``SCBASimulation``
  to <= 1e-10 for both schedules at >= 2 rank counts (same iteration
  count, same convergence decision, same observables);
* the measured per-rank SSE communication bytes equal the closed-form
  §4.1 exchange models of ``repro.model.communication`` *exactly*;
* the pipe transport reproduces the sim transport bit-for-bit, including
  the byte accounting;
* the facade compiles runtime plans (decomposition + schedule via the
  tile search) and sessions report per-rank ``CommStats``.
"""

import json

import numpy as np
import pytest

from repro.api import DeviceSpec, GridSpec, PhysicsSpec, PlanError, Session, Workload
from repro.model.communication import (
    dace_exchange_stats,
    omen_exchange_stats,
    residual_allreduce_stats,
)
from repro.negf import build_device, build_hamiltonian_model
from repro.negf.scba import SCBASettings, SCBASimulation
from repro.parallel import CommStats
from repro.runtime import DistributedSCBARuntime, make_transport

#: decomposable spectral grid: P in {2, 4, 8} = Nkz x {1, 2, 4} E-chunks
GRID = dict(
    NE=12, Nkz=2, Nqz=2, Nw=2, e_min=-1.5, e_max=1.5,
    coupling=0.2, mixing=0.5, max_iterations=3, tolerance=0.0,
)

TENSOR_FIELDS = [
    "Gl", "Gg", "Dl", "Dg", "Sigma_l", "Sigma_g", "Pi_l", "Pi_g",
    "current_left", "current_right", "density", "dissipation",
]


@pytest.fixture(scope="module")
def model():
    dev = build_device(nx_cols=6, ny_rows=3, NB=4, slab_width=2)
    return build_hamiltonian_model(dev, Norb=2)


@pytest.fixture(scope="module")
def serial_result(model):
    with SCBASimulation(model, SCBASettings(runtime="serial", **GRID)) as sim:
        return sim.run()


def distributed_sim(model, schedule, P, transport="sim", **overrides):
    kw = {**GRID, **overrides}
    return SCBASimulation(
        model,
        SCBASettings(runtime=transport, ranks=P, schedule=schedule, **kw),
    )


class TestMatchesSerial:
    @pytest.mark.parametrize("schedule", ["omen", "dace"])
    @pytest.mark.parametrize("P", [2, 4])
    def test_fixed_iteration_equivalence(
        self, model, serial_result, schedule, P
    ):
        """tolerance=0 pins the iteration count: compare the full state."""
        with distributed_sim(model, schedule, P) as sim:
            res = sim.run()
        assert res.iterations == serial_result.iterations
        assert res.converged == serial_result.converged
        for name in TENSOR_FIELDS:
            dev = np.max(
                np.abs(getattr(res, name) - getattr(serial_result, name))
            )
            assert dev <= 1e-10, f"{name} deviates by {dev:.3e}"
        assert np.allclose(res.history, serial_result.history, atol=1e-10)

    def test_eight_ranks(self, model, serial_result):
        with distributed_sim(model, "omen", 8) as sim:
            res = sim.run()
        assert np.max(np.abs(res.Gl - serial_result.Gl)) <= 1e-10

    def test_convergent_run_same_decision(self, model):
        """With a live tolerance both loops must break at the same spot."""
        kw = dict(tolerance=5e-3, max_iterations=10)
        with SCBASimulation(
            model, SCBASettings(runtime="serial", **{**GRID, **kw})
        ) as sim:
            ref = sim.run()
        with distributed_sim(model, "dace", 2, **kw) as sim:
            res = sim.run()
        assert ref.converged and res.converged
        assert res.iterations == ref.iterations
        assert np.max(np.abs(res.Gl - ref.Gl)) <= 1e-10

    def test_ballistic(self, model):
        with SCBASimulation(model, SCBASettings(runtime="serial", **GRID)) as sim:
            ref = sim.run(ballistic=True)
        with distributed_sim(model, "omen", 2) as sim:
            res = sim.run(ballistic=True)
        assert np.max(np.abs(res.Gl - ref.Gl)) <= 1e-10
        assert np.max(np.abs(res.current_left - ref.current_left)) <= 1e-12
        # a ballistic run never enters the SSE exchange
        assert "sse" not in sim.last_comm


class TestMeasuredVsModel:
    @pytest.mark.parametrize("schedule", ["omen", "dace"])
    @pytest.mark.parametrize("P", [2, 4])
    def test_sse_bytes_equal_model(self, model, schedule, P):
        dev = model.structure
        with distributed_sim(model, schedule, P) as sim:
            res = sim.run()
            rt = sim._runtime
            if schedule == "omen":
                per_iter = omen_exchange_stats(
                    rt.gf_decomp, GRID["Nqz"], GRID["Nw"],
                    dev.NA, dev.NB, model.Norb, model.N3D,
                )
            else:
                per_iter = dace_exchange_stats(
                    rt.gf_decomp, rt.sse_decomp, dev.neighbors,
                    GRID["Nqz"], GRID["Nw"], model.Norb, model.N3D,
                )
            assert rt.n_sse_iterations == GRID["max_iterations"]
            assert sim.last_comm["sse"].matches(
                per_iter.scaled(rt.n_sse_iterations)
            )
            assert sim.last_comm["residual"].matches(
                residual_allreduce_stats(rt.P, len(res.history))
            )

    def test_dace_moves_less_than_omen(self, model):
        totals = {}
        for schedule in ("omen", "dace"):
            with distributed_sim(model, schedule, 4) as sim:
                sim.run()
                totals[schedule] = sim.last_comm["sse"].total_bytes
        assert totals["dace"] < totals["omen"]

    def test_transport_stats_snapshot(self, model):
        """Phase deltas sum to the transport's global counters."""
        with distributed_sim(model, "omen", 2) as sim:
            sim.run()
            total = sum(
                (s for s in sim.last_comm.values()), CommStats.zeros(2)
            )
            assert total.matches(sim._runtime._transport.stats)


class TestPipeTransport:
    def test_matches_sim_bitwise(self, model):
        kw = dict(max_iterations=2)
        with distributed_sim(model, "dace", 2, **kw) as sim:
            res_sim = sim.run()
            stats_sim = dict(sim.last_comm)
        with distributed_sim(model, "dace", 2, transport="pipe", **kw) as sim:
            res_pipe = sim.run()
            stats_pipe = dict(sim.last_comm)
        for name in TENSOR_FIELDS:
            assert np.array_equal(
                getattr(res_pipe, name), getattr(res_sim, name)
            ), name
        assert set(stats_pipe) == set(stats_sim)
        for phase in stats_sim:
            assert stats_sim[phase].matches(stats_pipe[phase])

    def test_worker_error_propagates(self, model):
        from repro.runtime import PipeTransport, TransportError

        t = PipeTransport(2)
        t.start(lambda rank: object())
        with pytest.raises(TransportError, match="no attribute"):
            t.call(0, "missing_method")
        t.close()
        t.close()  # idempotent


class TestRuntimeSelection:
    def test_env_unset_is_serial(self):
        assert SCBASettings().runtime == "serial"

    def test_unknown_transport_raises(self):
        with pytest.raises(ValueError, match="transport"):
            make_transport("cluster", 2)

    def test_indivisible_ranks_raise(self, model):
        with pytest.raises(ValueError, match="ranks=3"):
            DistributedSCBARuntime(
                model, SCBASettings(runtime="sim", ranks=3, **GRID)
            )

    def test_unknown_schedule_raises(self, model):
        with pytest.raises(ValueError, match="schedule"):
            DistributedSCBARuntime(
                model,
                SCBASettings(runtime="sim", ranks=2, **GRID),
                schedule="ring",
            )

    def test_default_ranks_one_per_momentum(self, model):
        rt = DistributedSCBARuntime(
            model, SCBASettings(runtime="sim", **GRID)
        )
        assert rt.P == GRID["Nkz"]

    def test_boundary_counters_survive_close(self, model):
        with distributed_sim(model, "omen", 2) as sim:
            sim.run()
            live = sim.boundary_counters()
        assert live["el_solves"] == 2 * GRID["Nkz"] * GRID["NE"]
        assert sim.boundary_counters() == live  # frozen at close


class TestCommStatsSerialization:
    def test_json_roundtrip_exact(self):
        st = CommStats(
            sent_bytes=np.array([1, 2**40], dtype=np.int64),
            recv_bytes=np.array([3, 4], dtype=np.int64),
            messages=np.array([5, 6], dtype=np.int64),
        )
        back = CommStats.from_dict(json.loads(json.dumps(st.to_dict())))
        assert back.matches(st)
        assert back.sent_bytes.dtype == np.int64
        assert back.total_bytes == st.total_bytes

    def test_arithmetic(self):
        a = CommStats.zeros(2)
        a.sent_bytes[0] = 7
        b = a + a
        assert b.sent_bytes[0] == 14
        assert a.scaled(3).sent_bytes[0] == 21


def _facade_workload(**physics):
    return Workload(
        name="runtime-facade",
        device=DeviceSpec(nx_cols=6, ny_rows=3, NB=4, slab_width=2, Norb=2),
        grid=GridSpec(e_min=-1.5, e_max=1.5, NE=12, Nkz=2, Nqz=2, Nw=2),
        physics=PhysicsSpec(
            transport="scba", coupling=0.2, mixing=0.5,
            max_iterations=2, tolerance=1e-12, **physics,
        ),
        sweeps=(("bias", (0.1, 0.3)),),
    )


class TestFacade:
    def test_plan_selects_decomposition_and_schedule(self):
        plan = _facade_workload().compile(runtime="sim", ranks=4)
        assert plan.runtime == "sim"
        entry = plan.runtime_plan[0]
        assert entry["P"] == 4 and entry["chunk"] == 6
        # the tile search picks the volume-minimizing valid schedule
        assert entry["schedule"] in ("omen", "dace")
        if entry["schedule"] == "dace":
            assert entry["TE"] * entry["TA"] == entry["P"]
        assert plan.groups[0].base_settings["ranks"] == entry["P"]
        assert plan.groups[0].base_settings["schedule"] == entry["schedule"]
        assert "runtime" in plan.describe()
        assert plan.to_dict()["runtime_plan"][0]["P"] == 4

    def test_plan_forced_schedule(self):
        plan = _facade_workload().compile(
            runtime="sim", ranks=2, schedule="omen"
        )
        assert plan.runtime_plan[0]["schedule"] == "omen"
        assert "TE" not in plan.runtime_plan[0]

    def test_plan_validation(self):
        w = _facade_workload()
        with pytest.raises(PlanError, match="runtime"):
            w.compile(runtime="cluster")
        with pytest.raises(PlanError, match="schedule"):
            w.compile(runtime="sim", schedule="ring")
        with pytest.raises(PlanError, match="ranks"):
            w.compile(runtime="sim", ranks=0)
        # an explicit budget below one-rank-per-kz cannot be honored
        with pytest.raises(PlanError, match="ranks=1"):
            w.compile(runtime="sim", ranks=1)
        # rank workers solve with the batched engine and the exchange
        # with its own kernels: a plan may not claim anything else
        for runtime in ("sim", "pipe"):
            with pytest.raises(PlanError, match="engine='serial'"):
                w.compile(runtime=runtime, engine="serial")
            with pytest.raises(PlanError, match="sse_variant='reference'"):
                _facade_workload(sse_variant="reference").compile(
                    runtime=runtime
                )
        # ... while the serial runtime still takes both
        plan = _facade_workload(sse_variant="reference").compile(
            runtime="serial", engine="serial"
        )
        assert plan.engine == "serial"

    def test_serial_plan_has_no_runtime_plan(self):
        plan = _facade_workload().compile(runtime="serial")
        assert plan.runtime_plan is None
        assert plan.groups[0].base_settings["runtime"] == "serial"

    def test_session_sweep_matches_serial_and_reports_comm(self):
        w = _facade_workload()
        with Session(w.compile(runtime="sim", ranks=2, schedule="dace")) as s:
            sweep_d = s.run()
            reuse = s.reuse_counters()
        with Session(w.compile(runtime="serial")) as s:
            sweep_s = s.run()
        for rd, rs in zip(sweep_d, sweep_s):
            assert abs(rd.current_left - rs.current_left) <= 1e-10
            assert set(rd.comm) == {"sse", "residual", "gather"}
            stats = CommStats.from_dict(rd.comm["sse"])
            assert stats.P == 2 and stats.total_bytes > 0
        # resident rank workers: the second sweep point hits the per-rank
        # boundary caches instead of re-solving
        assert reuse["boundary_el_hits"] > 0
        assert reuse["boundary_el_solves"] == 2 * GRID["Nkz"] * GRID["NE"]
        # comm stats survive the JSON round trip of the sweep record
        back = json.loads(sweep_d.to_json())
        assert back["runs"][0]["comm"]["sse"]["recv_bytes"]
