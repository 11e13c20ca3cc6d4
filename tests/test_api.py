"""Workload → Plan → Session facade: validation, reuse, equivalence."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    DeviceSpec,
    GridSpec,
    PhysicsSpec,
    Plan,
    PlanError,
    Session,
    SweepAxis,
    SweepResult,
    Workload,
    WorkloadError,
    compile_workload,
    scenario,
    scenarios,
)
from repro.config import PAPER_STRUCTURE_4864
from repro.negf import SCBAResult, SCBASettings, SCBASimulation


def small_workload(**kwargs) -> Workload:
    defaults = dict(
        device=DeviceSpec(nx_cols=6, ny_rows=3, NB=4, slab_width=2, Norb=2),
        grid=GridSpec(e_min=-1.2, e_max=1.2, NE=8, Nkz=2, Nqz=2, Nw=2, eta=1e-4),
        physics=PhysicsSpec(
            transport="ballistic", mu_left=0.2, mu_right=-0.2,
        ),
    )
    defaults.update(kwargs)
    return Workload(**defaults)


def scba_physics(**kwargs) -> PhysicsSpec:
    defaults = dict(
        transport="scba", mu_left=0.2, mu_right=-0.2, coupling=0.25,
        mixing=0.6, max_iterations=3, tolerance=1e-12,
    )
    defaults.update(kwargs)
    return PhysicsSpec(**defaults)


class TestWorkload:
    def test_sweep_points_cartesian(self):
        w = small_workload(
            sweeps=(
                SweepAxis("bias", (0.0, 0.2)),
                SweepAxis("temperature", (0.05, 0.1, 0.2)),
            )
        )
        pts = w.sweep_points()
        assert w.n_points == len(pts) == 6
        assert pts[0].coords == {"bias": 0.0, "temperature": 0.05}
        assert pts[-1].coords == {"bias": 0.2, "temperature": 0.2}
        assert pts[1].settings["kT_el"] == pts[1].settings["kT_ph"] == 0.1

    def test_bias_axis_sets_symmetric_window(self):
        w = small_workload(sweeps=(SweepAxis("bias", (0.4,)),))
        (pt,) = w.sweep_points()
        assert pt.settings["mu_left"] == pytest.approx(+0.2)
        assert pt.settings["mu_right"] == pytest.approx(-0.2)

    def test_gate_axis_shifts_both_potentials(self):
        w = small_workload(sweeps=(SweepAxis("gate", (0.1,)),))
        (pt,) = w.sweep_points()
        assert pt.settings["mu_left"] == pytest.approx(0.3)
        assert pt.settings["mu_right"] == pytest.approx(-0.1)

    def test_gate_and_bias_axes_commute(self):
        # bias opens the window around the gate-shifted center, so the
        # declaration order of the two axes must not change the physics.
        orders = (("gate", "bias"), ("bias", "gate"))
        values = {"gate": (0.1,), "bias": (0.2,)}
        resolved = []
        for order in orders:
            w = small_workload(
                sweeps=tuple(SweepAxis(n, values[n]) for n in order)
            )
            (pt,) = w.sweep_points()
            resolved.append((pt.settings["mu_left"], pt.settings["mu_right"]))
        assert resolved[0] == pytest.approx(resolved[1])
        assert resolved[0] == pytest.approx((0.2, 0.0))

    def test_grid_axis_changes_NE(self):
        w = small_workload(sweeps=(SweepAxis("grid", (8, 12)),))
        pts = w.sweep_points()
        assert [p.settings["NE"] for p in pts] == [8, 12]
        assert all(isinstance(p.settings["NE"], int) for p in pts)

    def test_generic_axis(self):
        w = small_workload(sweeps=(SweepAxis("coupling", (0.1, 0.2)),))
        pts = w.sweep_points()
        assert [p.settings["coupling"] for p in pts] == [0.1, 0.2]

    def test_unknown_axis_raises(self):
        with pytest.raises(WorkloadError, match="unknown sweep axis"):
            SweepAxis("voltage", (0.0,))

    def test_empty_axis_raises(self):
        with pytest.raises(WorkloadError, match="no values"):
            SweepAxis("bias", ())

    def test_bad_transport_raises(self):
        with pytest.raises(WorkloadError, match="transport"):
            PhysicsSpec(transport="diffusive")

    def test_round_trip(self):
        w = small_workload(
            name="rt",
            sweeps=(SweepAxis("bias", (0.0, 0.3)),),
            parameters=PAPER_STRUCTURE_4864,
        )
        w2 = Workload.from_json(w.to_json())
        assert w2 == w

    def test_with_sweep(self):
        w = small_workload().with_sweep("bias", np.linspace(0, 0.4, 3))
        assert w.n_points == 3
        assert w.sweeps[0].name == "bias"

    def test_canonical_json_is_stable(self):
        w = small_workload(sweeps=(SweepAxis("bias", (0.0, 0.3)),))
        canonical = w.to_json(canonical=True)
        # canonical form survives serialization round trips unchanged
        roundtrip = Workload.from_json(w.to_json(indent=2))
        assert roundtrip.to_json(canonical=True) == canonical
        # and is insensitive to dict key ordering on the wire
        shuffled = json.loads(canonical)
        shuffled = dict(reversed(list(shuffled.items())))
        assert Workload.from_dict(shuffled).to_json(canonical=True) == canonical

    def test_cache_key_ignores_name_tracks_physics(self):
        w = small_workload(name="a")
        assert w.cache_key() == small_workload(name="b").cache_key()
        assert len(w.cache_key()) == 64
        changed = small_workload(
            physics=PhysicsSpec(transport="ballistic", mu_left=0.11)
        )
        assert changed.cache_key() != w.cache_key()

    def test_cache_key_stable_across_round_trip(self):
        w = small_workload(sweeps=(SweepAxis("bias", (0.0, 0.15, 0.3)),))
        assert Workload.from_json(w.to_json()).cache_key() == w.cache_key()


class TestScenarios:
    def test_registry_contains_presets(self):
        assert {
            "quickstart", "finfet_iv", "self_heating",
            "paper_4864", "paper_10240",
        } <= set(scenarios())

    def test_unknown_scenario_raises(self):
        with pytest.raises(WorkloadError, match="unknown scenario"):
            scenario("does_not_exist")

    def test_finfet_iv_is_a_bias_sweep(self):
        w = scenario("finfet_iv")
        assert w.ballistic
        assert w.sweeps[0].name == "bias" and w.n_points == 7

    def test_paper_presets_carry_table1_parameters(self):
        w = scenario("paper_4864")
        assert w.device.NA == 4864 and w.device.bnum == 19
        assert w.parameters.NB == 34 and w.parameters.Norb == 12
        plan = w.compile(engine="batched")
        p = plan.groups[0].parameters
        assert (p.NB, p.Norb, p.NE, p.Nkz) == (34, 12, 706, 7)


class TestPlan:
    def test_groups_bias_sweep_into_one(self):
        plan = small_workload(
            sweeps=(SweepAxis("bias", (0.0, 0.2, 0.4)),)
        ).compile(engine="batched")
        assert plan.n_groups == 1 and plan.n_points == 3

    def test_grid_axis_splits_groups(self):
        plan = small_workload(
            sweeps=(SweepAxis("grid", (8, 12)), SweepAxis("bias", (0.0, 0.2)))
        ).compile(engine="batched")
        assert plan.n_groups == 2 and plan.n_points == 4
        assert {g.parameters.NE for g in plan.groups} == {8, 12}

    def test_point_settings_resolve_fully(self):
        plan = small_workload(
            sweeps=(SweepAxis("bias", (0.0, 0.2)),)
        ).compile(engine="batched")
        kw = plan.groups[0].point_settings(1)
        SCBASettings(**kw)  # must be directly constructible
        assert kw["mu_left"] == pytest.approx(0.1)

    def test_unknown_engine_raises(self):
        with pytest.raises(PlanError, match="unknown engine"):
            small_workload().compile(engine="gpu")

    def test_out_of_range_grid_raises(self):
        w = small_workload(grid=GridSpec(NE=8, Nkz=2, Nqz=3, Nw=2))
        with pytest.raises(PlanError, match="Nqz"):
            w.compile(engine="batched")

    @pytest.mark.parametrize("field, value", [
        ("mixing", 0.0), ("mixing", -0.1), ("mixing", 1.5),
        ("max_iterations", 0),
    ])
    def test_non_converging_loop_raises(self, field, value):
        """mixing 0 freezes the first iterate and reads as converged; a
        loop of no iterations has no result."""
        w = small_workload(physics=scba_physics(**{field: value}))
        with pytest.raises(PlanError, match=f"{field}={value}"):
            w.compile(engine="batched")

    @pytest.mark.parametrize("field, values", [
        ("mixing", (0.5, 0.0)), ("max_iterations", (3, 0)),
    ])
    def test_sweep_axis_reaching_a_non_converging_loop_raises(
        self, field, values
    ):
        w = small_workload(
            physics=scba_physics(), sweeps=(SweepAxis(field, values),)
        )
        with pytest.raises(PlanError, match=f"point 1 .*{field}="):
            w.compile(engine="batched")

    def test_scba_plan_records_dace_recipe(self):
        plan = small_workload(physics=scba_physics()).compile(engine="batched")
        names = [n for n, _ in plan.sse_recipe]
        assert names[0] == "fig8" and names[-1] == "fig12s"

    def test_scba_plan_models_movement_at_planned_dims(self):
        w = small_workload(physics=scba_physics())
        plan = w.compile(engine="batched")
        r = plan.sse_report
        assert r is not None
        # Modeled at the *planned* grid, not a static table.
        assert r.dims["NE"] == w.grid.NE and r.dims["Nkz"] == w.grid.Nkz
        assert r.stages[0].total_bytes > r.stages[-1].total_bytes
        d = json.loads(plan.to_json())
        assert d["sse_movement"]["total_reduction"] > 1
        assert d["sse_movement"]["stages"][0]["name"] == "fig8"
        text = plan.describe()
        assert "less data movement" in text and "fig12s" in text

    def test_movement_report_tracks_peak_group(self):
        plan = small_workload(
            physics=scba_physics(), sweeps=(SweepAxis("grid", (8, 16)),)
        ).compile(engine="batched")
        assert plan.sse_report.dims["NE"] == 16

    def test_ballistic_plan_has_no_sse_report(self):
        plan = small_workload().compile(engine="batched")
        assert plan.sse_report is None
        assert plan.sse_recipe == ()
        assert json.loads(plan.to_json())["sse_movement"] is None

    def test_serializable_and_inspectable(self):
        plan = small_workload(
            sweeps=(SweepAxis("bias", (0.0, 0.2)),)
        ).compile(engine="batched")
        d = json.loads(plan.to_json())
        assert d["engine"] == "batched"
        assert d["cost"]["points"] == 2
        assert d["cost"]["total_flops"] > 0
        text = plan.describe()
        assert "2 sweep point(s)" in text and "batched" in text

    def test_cost_scales_with_points(self):
        one = small_workload().compile(engine="batched")
        many = small_workload(
            sweeps=(SweepAxis("bias", tuple(np.linspace(0, 0.5, 5))),)
        ).compile(engine="batched")
        assert many.cost.total_flops == pytest.approx(5 * one.cost.total_flops)

    def test_cost_prices_each_grid_group_at_its_own_size(self):
        ne8 = small_workload().compile(engine="batched")
        ne16 = small_workload(
            sweeps=(SweepAxis("grid", (16,)),)
        ).compile(engine="batched")
        mixed = small_workload(
            sweeps=(SweepAxis("grid", (8, 16)),)
        ).compile(engine="batched")
        assert mixed.cost.total_flops == pytest.approx(
            ne8.cost.total_flops + ne16.cost.total_flops
        )
        # Footprint reports the peak group, not the first one.
        assert mixed.cost.electron_gf_bytes == ne16.cost.electron_gf_bytes


class TestSessionEquivalence:
    """Sweep results match independent per-point SCBASimulation runs."""

    def _independent(self, workload, point):
        model = workload.device.build()
        settings = SCBASettings(**point.settings)
        with SCBASimulation(model, settings) as sim:
            return sim.run(ballistic=workload.ballistic)

    @pytest.mark.parametrize("engine", ["serial", "batched"])
    def test_ballistic_bias_sweep_matches_per_point(self, engine):
        w = small_workload(sweeps=(SweepAxis("bias", (0.0, 0.2, 0.4)),))
        with Session(w.compile(engine=engine)) as session:
            sweep = session.run()
        for pt, run in zip(w.sweep_points(), sweep):
            ref = self._independent(w, pt)
            assert run.result is not None
            assert np.abs(run.result.Gl - ref.Gl).max() < 1e-10
            assert abs(run.current_left - ref.total_current_left) < 1e-10
            assert abs(run.current_right - ref.total_current_right) < 1e-10

    def test_scba_temperature_sweep_matches_per_point(self):
        w = small_workload(
            physics=scba_physics(),
            sweeps=(SweepAxis("temperature", (0.05, 0.1)),),
        )
        with Session(w.compile(engine="batched")) as session:
            sweep = session.run()
        for pt, run in zip(w.sweep_points(), sweep):
            ref = self._independent(w, pt)
            assert run.iterations == ref.iterations
            for name in ("Gl", "Sigma_l", "current_left", "dissipation"):
                diff = np.abs(
                    getattr(run.result, name) - getattr(ref, name)
                ).max()
                assert diff < 1e-10, f"{name} deviates by {diff}"

    def test_mixed_grid_and_bias_sweep(self):
        w = small_workload(
            sweeps=(SweepAxis("grid", (6, 8)), SweepAxis("bias", (0.1, 0.3)))
        )
        with Session(w.compile(engine="batched")) as session:
            sweep = session.run()
        assert len(sweep) == 4
        for pt, run in zip(w.sweep_points(), sweep):
            assert run.coords == pt.coords
            ref = self._independent(w, pt)
            assert abs(run.current_left - ref.total_current_left) < 1e-10


class TestSessionReuse:
    """Sweep-invariant state is computed once per grid, not per point."""

    def test_boundary_solved_once_per_grid_point_across_bias_sweep(self):
        w = small_workload(sweeps=(SweepAxis("bias", (0.0, 0.2, 0.4)),))
        with Session(w.compile(engine="batched")) as session:
            sweep = session.run()
        s = w.grid
        # Once per (kz, E) point for the whole sweep — NOT per bias point.
        assert sweep.reuse["boundary_el_solves"] == 2 * s.Nkz * s.NE
        assert sweep.reuse["boundary_ph_solves"] == 2 * s.Nqz * s.Nw
        # The 2nd and 3rd bias points were served entirely from the cache.
        assert sweep.reuse["boundary_el_hits"] == 2 * s.Nkz * s.NE

    def test_operators_assembled_once_per_momentum_across_sweep(self):
        w = small_workload(sweeps=(SweepAxis("bias", (0.0, 0.2, 0.4)),))
        with Session(w.compile(engine="batched")) as session:
            sweep = session.run()
        assert sweep.reuse["assemblies_H"] == w.grid.Nkz
        assert sweep.reuse["assemblies_S"] == w.grid.Nkz
        assert sweep.reuse["assemblies_Phi"] == w.grid.Nqz

    def test_scba_sweep_reuses_boundaries_across_points_and_iterations(self):
        w = small_workload(
            physics=scba_physics(),
            sweeps=(SweepAxis("bias", (0.1, 0.3)),),
        )
        with Session(w.compile(engine="batched")) as session:
            sweep = session.run()
        s = w.grid
        assert sweep.reuse["boundary_el_solves"] == 2 * s.Nkz * s.NE
        iters = sum(r.iterations for r in sweep)
        assert iters > 2  # several Born iterations actually ran
        assert sweep.reuse["boundary_el_hits"] == (iters - 1) * s.Nkz * s.NE

    def test_grid_axis_gets_fresh_caches(self):
        w = small_workload(sweeps=(SweepAxis("grid", (6, 8)),))
        with Session(w.compile(engine="batched")) as session:
            sweep = session.run()
        # Each NE group has its own grid: solves are summed over groups.
        assert sweep.reuse["boundary_el_solves"] == 2 * w.grid.Nkz * (6 + 8)


class TestSessionLifetime:
    def test_second_run_reports_only_its_own_reuse(self):
        w = small_workload(
            grid=GridSpec(
                e_min=-1.2, e_max=1.2, NE=4, Nkz=2, Nqz=1, Nw=2, eta=1e-4
            )
        )
        with Session(w.compile(engine="batched")) as session:
            first = session.run()
            second = session.run()
        # Everything the second run needed was solved by the first.
        assert second.reuse["boundary_el_solves"] == 0
        assert second.reuse["boundary_ph_solves"] == 0
        s = w.grid
        assert second.reuse["boundary_el_hits"] == s.Nkz * s.NE
        assert second.reuse["boundary_ph_hits"] == s.Nqz * s.Nw
        assert all(
            v == 0 for k, v in second.reuse.items()
            if k.startswith("assemblies_")
        )
        # The session keeps the lifetime totals, also after close().
        lifetime = session.reuse_counters()
        assert lifetime == {
            k: first.reuse[k] + second.reuse[k] for k in lifetime
        }

    def test_reuse_counters_survive_close(self):
        w = small_workload(sweeps=(SweepAxis("bias", (0.0, 0.2)),))
        with Session(w.compile(engine="batched")) as session:
            sweep = session.run()
        # After the with-block the accounting is frozen, not zeroed.
        assert session.reuse_counters() == sweep.reuse
        assert session.reuse_counters()["boundary_el_solves"] > 0

    def test_run_point_matches_run(self):
        w = small_workload(sweeps=(SweepAxis("bias", (0.0, 0.2)),))
        with Session(w.compile(engine="batched")) as session:
            single = session.run_point(1, keep_arrays=False)
            sweep = session.run()
        assert single.result is None
        assert single.current_left == pytest.approx(
            sweep[1].current_left, abs=1e-12
        )
        with pytest.raises(IndexError):
            Session(w.compile(engine="batched")).run_point(99)

    def test_closed_session_refuses_work(self):
        session = Session(small_workload().compile(engine="batched"))
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.simulation(0)

    def test_scba_simulation_context_manager(self, small_model):
        settings = SCBASettings(NE=4, Nkz=2, Nqz=2, Nw=2, engine="batched")
        with SCBASimulation(small_model, settings) as sim:
            sim.solve_electrons(None, None)


class TestResultPersistence:
    def test_scba_result_round_trip(self):
        w = small_workload(physics=scba_physics())
        with Session(w.compile(engine="batched")) as session:
            res = session.run()[0].result
        res2 = SCBAResult.from_dict(json.loads(json.dumps(res.to_dict())))
        for name in (
            "Gl", "Gg", "Dl", "Dg", "Sigma_l", "Sigma_g", "Pi_l", "Pi_g",
            "current_left", "current_right", "density", "dissipation",
        ):
            a, b = getattr(res, name), getattr(res2, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b), name
        assert res2.iterations == res.iterations
        assert res2.converged == res.converged
        assert res2.history == res.history

    def test_sweep_result_round_trip(self, tmp_path):
        w = small_workload(sweeps=(SweepAxis("bias", (0.0, 0.3)),))
        with Session(w.compile(engine="batched")) as session:
            sweep = session.run()
        path = tmp_path / "sweep.json"
        sweep.save(path)
        loaded = SweepResult.load(path)
        assert len(loaded) == 2
        assert loaded.engine == sweep.engine
        assert np.allclose(loaded.currents_left, sweep.currents_left)
        assert np.allclose(loaded.axis("bias"), [0.0, 0.3])
        assert loaded.workload == sweep.workload
        assert loaded[0].result is None  # arrays not exported by default

    def test_keep_arrays_false_drops_tensors(self):
        w = small_workload(sweeps=(SweepAxis("bias", (0.0, 0.3)),))
        with Session(w.compile(engine="batched")) as session:
            sweep = session.run(keep_arrays=False)
        assert all(r.result is None for r in sweep)
        assert np.all(np.isfinite(sweep.currents_left))

    def test_sweep_result_with_arrays(self, tmp_path):
        w = small_workload(sweeps=(SweepAxis("bias", (0.2,)),))
        with Session(w.compile(engine="batched")) as session:
            sweep = session.run()
        path = tmp_path / "full.json"
        sweep.save(path, include_arrays=True)
        loaded = SweepResult.load(path)
        assert np.array_equal(loaded[0].result.Gl, sweep[0].result.Gl)


class TestSessionCrossCheck:
    """The compiled SDFG pipeline agrees with the negf/sse.py dace kernel."""

    def test_cross_check_sse_matches_production_kernel(self):
        plan = small_workload(physics=scba_physics()).compile(engine="batched")
        with Session(plan) as session:
            err = session.cross_check_sse()
        assert err <= 1e-10

    def test_cross_check_on_custom_dims(self):
        plan = small_workload(physics=scba_physics()).compile(engine="batched")
        dims = dict(Nkz=2, NE=5, Nqz=2, Nw=3, N3D=2, NA=4, NB=2, Norb=3)
        with Session(plan) as session:
            assert session.cross_check_sse(dims=dims, seed=7) <= 1e-10

    def test_cross_check_requires_dace_sse(self):
        plan = small_workload().compile(engine="batched")  # ballistic
        with Session(plan) as session:
            with pytest.raises(RuntimeError, match="no dace/sdfg SSE pipeline"):
                session.cross_check_sse()


_COLD_START = """
import sys

import repro.api as api

workload = api.Workload(
    device=api.DeviceSpec(nx_cols=6, ny_rows=3, NB=4, slab_width=2, Norb=2),
    grid=api.GridSpec(e_min=-1.2, e_max=1.2, NE=8, Nkz=2, Nqz=2, Nw=2, eta=1e-4),
    physics=api.PhysicsSpec(transport="scba", max_iterations=2),
)
plan = api.compile_workload(workload)
assert plan.sse_report is not None  # sse_movement_report ran
with api.Session(plan) as session:
    session.model  # DeviceSpec.build + validate
    for gi in range(plan.n_groups):
        session.simulation(gi)
print(sorted({m.split(".")[0] for m in sys.modules} & {"scipy", "networkx"}))
"""


class TestColdStart:
    def test_import_compile_and_session_load_neither_scipy_nor_networkx(self):
        # a fresh interpreter: this test process has both loaded already
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_START],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
