"""Engine backends: serial vs batched grid sweeps.

Times ``N_SWEEPS`` spectral-grid sweeps — the GF phase of successive Born
iterations — on a Fig.-13-style grid (NE=64, Nkz=4) for both engines:

* ``serial``       — the per-point oracle loop;
* ``batched``      — stacked ``[batch, bnum, n, n]`` tensor systems.

Both memoize the lead self-energies and the assembled operators.  Emits
``BENCH_engine.json`` next to this file and, in the full run, asserts
that the batched backend beats the serial one in wall clock.

Setting ``REPRO_BENCH_FAST=1`` (the CI smoke mode) shrinks the grid,
keeps only the correctness-level speedup assertions, and leaves the
committed ``BENCH_engine.json`` record untouched.
"""

import os
import time

from repro.analysis import render_table
from repro.analysis.report import report
from repro.negf import (
    SCBASettings,
    SCBASimulation,
    build_device,
    build_hamiltonian_model,
)

#: CI smoke mode: tiny grid, relaxed assertions, no JSON record.
FAST = os.environ.get("REPRO_BENCH_FAST", "").strip() not in ("", "0")

#: Fig.-13-style spectral grid (scaled to CI size): NE >= 64, Nkz >= 4.
GRID = (
    dict(NE=16, Nkz=2, Nqz=2, Nw=3, e_min=-1.5, e_max=1.5, eta=1e-3)
    if FAST
    else dict(NE=64, Nkz=4, Nqz=4, Nw=6, e_min=-1.5, e_max=1.5, eta=1e-3)
)
#: GF sweeps timed per backend (successive Born iterations).
N_SWEEPS = 2 if FAST else 4

BACKENDS = ["serial", "batched"]

def _time_backend(model, engine: str) -> float:
    with SCBASimulation(model, SCBASettings(engine=engine, **GRID)) as sim:
        start = time.perf_counter()
        for _ in range(N_SWEEPS):
            sim.solve_electrons(None, None)
            sim.solve_phonons(None, None)
        return time.perf_counter() - start


def run_engine_comparison() -> dict:
    dev = build_device(nx_cols=8, ny_rows=4, NB=6, slab_width=2)
    model = build_hamiltonian_model(dev, Norb=2)
    timings = {engine: _time_backend(model, engine) for engine in BACKENDS}
    return {
        "grid": {**GRID, "NA": dev.NA, "bnum": dev.bnum, "Norb": 2},
        "n_sweeps": N_SWEEPS,
        "seconds": timings,
        "speedup_vs_serial": timings["serial"] / timings["batched"],
    }


def test_engine_backends(benchmark, bench_writer):
    record = benchmark.pedantic(run_engine_comparison, rounds=1, iterations=1)
    record = bench_writer("engine", record, FAST)

    report(
        render_table(
            f"Engine backends, {N_SWEEPS} GF sweeps on NE={GRID['NE']}, "
            f"Nkz={GRID['Nkz']} [seconds]",
            ["backend", "seconds"],
            [[k, f"{record['seconds'][k]:.3f}"] for k in BACKENDS],
        )
    )

    if FAST:
        # CI smoke: every backend completed a full sweep end to end.
        # (No wall-clock assertions — sub-second timings on shared CI
        # runners are a scheduling lottery; the comparison below is
        # asserted only in the full local run.)
        assert all(t > 0 for t in record["seconds"].values())
        return
    # Stacked systems must beat the per-point loop they replace.
    assert record["seconds"]["batched"] < record["seconds"]["serial"]
