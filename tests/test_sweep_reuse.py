"""Scattering-free sweep points share one retarded solve.

Bias, gate and temperature change only the lead occupations, never
``M = E·S - H - Σᴸ - Σᴿ``, so the batched engine solves a scattering-free
row directly on its first visit, with unit injection from each lead on
its second, and serves later visits as linear combinations of the
cached lead-resolved tensors.  Pinned here: every combination equals the
per-point serial oracle, the RGF solve count stops growing with the
number of sweep points, and results never alias the cache.
"""

import numpy as np
import pytest

import repro.negf.engine as engine_module
from repro.api import (
    DeviceSpec,
    GridSpec,
    PhysicsSpec,
    Session,
    SweepAxis,
    Workload,
)
from repro.negf import SCBASettings, SCBASimulation
from tests.conftest import close

TENSORS = ("Gl", "Gg", "Dl", "Dg", "current_left", "current_right", "density")


def workload(*axes, physics=None) -> Workload:
    return Workload(
        name="sweep_reuse",
        device=DeviceSpec(nx_cols=6, ny_rows=3, NB=4, slab_width=2, Norb=2),
        grid=GridSpec(e_min=-1.2, e_max=1.2, NE=8, Nkz=2, Nqz=2, Nw=2, eta=1e-4),
        physics=physics
        or PhysicsSpec(transport="ballistic", mu_left=0.2, mu_right=-0.2),
        sweeps=axes,
    )


def bias(*values) -> SweepAxis:
    return SweepAxis("bias", values)


def oracle_runs(w: Workload):
    """Every sweep point through its own serial/reference simulation."""
    model = w.device.build()
    out = []
    for pt in w.sweep_points():
        settings = SCBASettings(
            **{**pt.settings, "engine": "serial", "rgf_kernel": "reference"}
        )
        with SCBASimulation(model, settings) as sim:
            out.append(sim.run(ballistic=w.physics.transport == "ballistic"))
    return out


def assert_sweeps_match(results, reference):
    """Max-norm relative agreement over the whole sweep, per tensor."""
    for name in TENSORS:
        got = np.stack([getattr(r, name) for r in results])
        want = np.stack([getattr(r, name) for r in reference])
        assert close(got, want, rtol=1e-10), name


@pytest.fixture
def rgf_calls(monkeypatch):
    """Counts ``repro.negf.engine.rgf_solve_batched`` calls."""
    calls = []
    solve = engine_module.rgf_solve_batched

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(engine_module, "rgf_solve_batched", counting)
    return calls


def session_sweep(w: Workload, **compile_kwargs):
    with Session(w.compile(**compile_kwargs)) as session:
        return session.run()


class TestLeadResolvedReuse:
    def test_ballistic_sweep_matches_serial_per_point(self):
        w = workload(
            bias(0.0, 0.2, 0.4),
            SweepAxis("temperature", (0.03, 0.1)),
            SweepAxis("gate", (0.0, 0.15)),
        )
        sweep = session_sweep(w, engine="batched")
        assert_sweeps_match([r.result for r in sweep], oracle_runs(w))

    def test_one_point_run_solves_each_row_once(self, rgf_calls):
        w = workload()
        session_sweep(w, engine="batched")
        assert len(rgf_calls) == w.grid.Nkz + w.grid.Nqz

    def test_solve_count_stops_growing_after_second_visit(self, rgf_calls):
        g = workload().grid
        counts = []
        for n in (2, 3, 6):
            rgf_calls.clear()
            session_sweep(workload(bias(*np.linspace(0, 0.5, n))))
            counts.append(len(rgf_calls))
        # first visit: one solve per row; second: one per lead per
        # electron row and one unit-occupation solve per phonon row
        assert counts == [3 * g.Nkz + 2 * g.Nqz] * 3

    def test_scba_sweep_matches_serial_and_keeps_iterations(self):
        physics = PhysicsSpec(
            transport="scba", mu_left=0.2, mu_right=-0.2, coupling=0.25,
            mixing=0.6, max_iterations=3, tolerance=1e-12,
        )
        w = workload(bias(0.1, 0.3), physics=physics)
        sweep = session_sweep(w, engine="batched")
        reference = oracle_runs(w)
        assert [r.iterations for r in sweep] == [
            r.iterations for r in reference
        ]
        assert_sweeps_match([r.result for r in sweep], reference)

    def test_results_never_alias_the_cache(self):
        """Writing into a result, or into a row the engine returned, never
        reaches the cache (visit 2 stores the tensors, 3+ combine them)."""
        w = workload()
        with Session(w.compile(engine="batched")) as session:
            want = None
            for _ in range(4):
                res = session.run()[0].result
                got = {name: getattr(res, name).copy() for name in TENSORS}
                want = want or got
                for name in TENSORS:
                    assert close(got[name], want[name], 1e-10), name
                    getattr(res, name)[...] = np.nan
            engine = session.simulation(0).engine
            rows = (
                lambda: engine.electron_row(0, np.arange(w.grid.NE), None, None),
                lambda: engine.phonon_row(0, np.arange(w.grid.Nw), None, None),
            )
            for row in rows:
                first = row()
                want = [x.copy() for x in first]
                for x in first:
                    x[...] = np.nan
                assert all(np.array_equal(x, y) for x, y in zip(row(), want))


class TestDistributedSweeps:
    W = workload(bias(0.0, 0.2, 0.4))

    @pytest.fixture(scope="class")
    def serial(self):
        return session_sweep(self.W, engine="batched")

    @pytest.mark.parametrize(
        "runtime,ranks", [("sim", 2), ("sim", 4), ("pipe", 2)]
    )
    def test_matches_serial_runtime(self, serial, runtime, ranks):
        sweep = session_sweep(self.W, runtime=runtime, ranks=ranks)
        assert_sweeps_match(
            [r.result for r in sweep], [r.result for r in serial]
        )
        # every rank cache solves and hits what the serial cache does
        for key, value in serial.reuse.items():
            if key.startswith("boundary_"):
                assert sweep.reuse[key] == value, key
        assert serial.reuse["boundary_el_hits"] > 0

    def test_sim_and_pipe_report_equal_reuse(self):
        w = workload(bias(0.0, 0.2))
        reuse = [
            session_sweep(w, runtime=runtime, ranks=2).reuse
            for runtime in ("sim", "pipe")
        ]
        assert reuse[0] == reuse[1]
        assert reuse[1]["assemblies_H"] == w.grid.Nkz
