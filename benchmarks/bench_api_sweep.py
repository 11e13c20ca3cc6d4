"""Sweep-level reuse: Session bias sweep vs independent per-point runs.

Runs the 7-point ballistic FinFET I-V bias sweep twice:

* ``session``     — one :class:`repro.api.Session` executing the sweep as
  a workload axis, sharing the Hamiltonian model, spectral grid,
  assembled operators, and boundary cache across all bias points;
* ``independent`` — seven separate ``SCBASimulation.run()`` calls, the
  pre-facade pattern of ``examples/finfet_iv_curve.py``.

Asserts the ISSUE 2 acceptance criteria: identical terminal currents to
≤ 1e-10 while the session performs *strictly fewer* boundary solves and
Hamiltonian assemblies.  It also records the RGF solves
(``repro.negf.engine.rgf_solve_batched`` calls) of both paths: the
session's bias points share one retarded solve per row, so its count is
the same for 3 and for 7 bias points, while the independent runs solve
every row at every point.  Emits ``BENCH_api.json`` next to this file;
``REPRO_BENCH_FAST=1`` (the CI smoke mode) runs the same comparison and
assertions but leaves the committed JSON record untouched.
"""

import json
import os
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

import repro.negf.engine as engine_module

from repro.analysis import render_table
from repro.analysis.report import report
from repro.api import DeviceSpec, GridSpec, PhysicsSpec, Session, SweepAxis, Workload
from repro.negf import SCBASettings, SCBASimulation

#: bias sweep of the acceptance criterion: 7 points, ballistic transport
BIASES = tuple(np.linspace(0.0, 0.6, 7))

#: CI smoke mode: same run + assertions, no JSON record rewrite
FAST = os.environ.get("REPRO_BENCH_FAST", "").strip() not in ("", "0")

_OUT = Path(__file__).resolve().parent / "BENCH_api.json"


def _workload() -> Workload:
    return Workload(
        name="bench_api_sweep",
        device=DeviceSpec(nx_cols=8, ny_rows=4, NB=6, slab_width=2, Norb=2),
        grid=GridSpec(e_min=-1.6, e_max=1.6, NE=40, Nkz=3, Nqz=3, Nw=3, eta=1e-6),
        physics=PhysicsSpec(transport="ballistic", kT_el=0.05),
        sweeps=(SweepAxis("bias", BIASES),),
    )


@contextmanager
def _counting_rgf_solves():
    """Count ``repro.negf.engine.rgf_solve_batched`` calls into a list."""
    calls, solve = [], engine_module.rgf_solve_batched

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    engine_module.rgf_solve_batched = counting
    try:
        yield calls
    finally:
        engine_module.rgf_solve_batched = solve


def _run_session(w: Workload) -> dict:
    start = time.perf_counter()
    with _counting_rgf_solves() as calls:
        with Session(w.compile(engine="batched")) as session:
            sweep = session.run()
    elapsed = time.perf_counter() - start
    r = sweep.reuse
    return {
        "seconds": elapsed,
        "currents": list(sweep.currents_left),
        "boundary_solves": r["boundary_el_solves"] + r["boundary_ph_solves"],
        "assemblies": r["assemblies_H"] + r["assemblies_S"] + r["assemblies_Phi"],
        "rgf_solves": len(calls),
    }


def _run_independent(w: Workload) -> dict:
    model = w.device.build()  # shared, as in the legacy example
    start = time.perf_counter()
    currents, solves, assemblies = [], 0, 0
    with _counting_rgf_solves() as calls:
        for pt in w.sweep_points():
            with SCBASimulation(model, SCBASettings(**pt.settings)) as sim:
                res = sim.run(ballistic=True)
            currents.append(res.total_current_left)
            cache = sim.engine.boundary
            solves += cache.el_solves + cache.ph_solves
            assemblies += sum(sim.grid.assembly_counts().values())
    elapsed = time.perf_counter() - start
    return {
        "seconds": elapsed,
        "currents": currents,
        "boundary_solves": solves,
        "assemblies": assemblies,
        "rgf_solves": len(calls),
    }


def run_sweep_comparison() -> dict:
    w = _workload()
    session = _run_session(w)
    independent = _run_independent(w)
    three = replace(w, sweeps=(SweepAxis("bias", BIASES[::3]),))
    dev = float(
        np.abs(
            np.asarray(session["currents"]) - np.asarray(independent["currents"])
        ).max()
    )
    return {
        "workload": w.to_dict(),
        "session": {k: v for k, v in session.items() if k != "currents"},
        "independent": {
            k: v for k, v in independent.items() if k != "currents"
        },
        "max_current_deviation": dev,
        "speedup": independent["seconds"] / session["seconds"],
        "session_rgf_solves_3_points": _run_session(three)["rgf_solves"],
    }


def test_api_sweep_reuse(benchmark, bench_writer):
    record = benchmark.pedantic(run_sweep_comparison, rounds=1, iterations=1)
    record = bench_writer("api", record, FAST)

    rows = [
        [
            label,
            f"{record[label]['seconds']:.3f}",
            str(record[label]["boundary_solves"]),
            str(record[label]["assemblies"]),
            str(record[label]["rgf_solves"]),
        ]
        for label in ("session", "independent")
    ]
    report(
        render_table(
            f"Session sweep vs {len(BIASES)} independent runs "
            "(7-point ballistic I-V)",
            ["path", "seconds", "boundary solves", "operator assemblies",
             "RGF solves"],
            rows,
        )
    )

    # ISSUE 2 acceptance: numerically equivalent ...
    assert record["max_current_deviation"] <= 1e-10
    # ... with each lead solved once per (momentum, energy) point and
    # contact by the session, once per bias point by independent runs ...
    g = _workload().grid
    per_sweep = 2 * g.Nkz * g.NE + 2 * g.Nqz * g.Nw
    assert record["session"]["boundary_solves"] == per_sweep == 258
    assert (
        record["independent"]["boundary_solves"]
        == len(BIASES) * per_sweep
        == 1806
    )
    # ... and strictly fewer Hamiltonian assemblies ...
    assert record["session"]["assemblies"] < record["independent"]["assemblies"]
    # ... and RGF solves: one per row at each independent point; in the
    # session one per row (first point), one per lead per electron row
    # and one per phonon row (second point), none after that.
    assert record["independent"]["rgf_solves"] == len(BIASES) * (g.Nkz + g.Nqz)
    assert (
        record["session"]["rgf_solves"]
        == record["session_rgf_solves_3_points"]
        == 3 * g.Nkz + 2 * g.Nqz
    )
