"""Engine backends: serial vs batched grid sweeps.

Times ``N_SWEEPS`` spectral-grid sweeps — the GF phase of successive Born
iterations — on a Fig.-13-style grid (NE=64, Nkz=4) for three
configurations:

* ``seed``         — the per-point loop with the seed's per-iteration
  boundary recomputation (``engine="serial", cache_boundary=False``);
* ``serial``       — per-point loop + boundary memoization;
* ``batched``      — stacked ``[batch, bnum, n, n]`` tensor systems.

Emits ``BENCH_engine.json`` next to this file and asserts the acceptance
criterion of ISSUE 1: the batched backend beats the seed per-point loop
by >= 3x wall clock.

Setting ``REPRO_BENCH_FAST=1`` (the CI smoke mode) shrinks the grid,
keeps only the correctness-level speedup assertions, and leaves the
committed ``BENCH_engine.json`` record untouched.
"""

import json
import os
import time
from pathlib import Path

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

BACKENDS = [
    ("seed", "serial", False),
    ("serial", "serial", True),
    ("batched", "batched", True),
]

_OUT = Path(__file__).resolve().parent / "BENCH_engine.json"


def _time_backend(model, engine: str, cache_boundary: bool) -> float:
    # The "seed" row also disables operator caching: it reproduces the
    # original per-iteration reassembly + boundary recomputation.
    settings = SCBASettings(
        engine=engine, cache_boundary=cache_boundary,
        cache_operators=cache_boundary, **GRID
    )
    with SCBASimulation(model, settings) as sim:
        start = time.perf_counter()
        for _ in range(N_SWEEPS):
            sim.solve_electrons(None, None, None)
            sim.solve_phonons(None, None)
        return time.perf_counter() - start


def run_engine_comparison() -> dict:
    dev = build_device(nx_cols=8, ny_rows=4, NB=6, slab_width=2)
    model = build_hamiltonian_model(dev, Norb=2)
    timings = {
        label: _time_backend(model, engine, cache)
        for label, engine, cache in BACKENDS
    }
    seed = timings["seed"]
    return {
        "grid": {**GRID, "NA": dev.NA, "bnum": dev.bnum, "Norb": 2},
        "n_sweeps": N_SWEEPS,
        "seconds": timings,
        "speedup_vs_seed": {k: seed / v for k, v in timings.items()},
    }


def test_engine_backends(benchmark, bench_writer):
    record = benchmark.pedantic(run_engine_comparison, rounds=1, iterations=1)
    record = bench_writer("engine", record, FAST)

    report(
        render_table(
            f"Engine backends, {N_SWEEPS} GF sweeps on NE={GRID['NE']}, "
            f"Nkz={GRID['Nkz']} [seconds]",
            ["backend", "seconds", "speedup vs seed"],
            [
                [k, f"{record['seconds'][k]:.3f}",
                 f"{record['speedup_vs_seed'][k]:.2f}x"]
                for k, _, _ in BACKENDS
            ],
        )
    )

    if FAST:
        # CI smoke: every backend completed a full sweep end to end.
        # (No wall-clock assertions — sub-second timings on shared CI
        # runners are a scheduling lottery; the >= 3x criterion below is
        # asserted only in the full local run.)
        assert all(t > 0 for t in record["seconds"].values())
        return
    # Boundary memoization alone must already pay off.
    assert record["speedup_vs_seed"]["serial"] > 1.1
    # ISSUE 1 acceptance: batched >= 3x over the seed per-point loop.
    assert record["speedup_vs_seed"]["batched"] >= 3.0
