"""RGF kernels: end-to-end SCBA speedup of the production recursion.

A medium device/grid (128-orbital blocks at ``slab_width=4``: the
interface support is a quarter of each coupling block) is run to a fixed
Born iteration count with each kernel of ``RGF_KERNELS`` on the same
batched engine, and emitted as ``BENCH_rgf.json``.  Acceptance: every
kernel reproduces the seed's ``np.linalg.solve(A, I)`` recursion (the
``reference`` kernel) to 1e-10, and the production kernel is >= 1.5x
faster end to end.

The Table-6 ordering of the ``F gᴿ E`` fold strategies is asserted where
the paper measures it, on sparse random operands:
``bench_table6_sparse.py``.

Setting ``REPRO_BENCH_FAST=1`` (the CI smoke mode) shrinks the run,
keeps only completion/equivalence-level assertions, and leaves the
committed ``BENCH_rgf.json`` record untouched.
"""

import os
import time

import numpy as np

from repro.analysis import render_table
from repro.analysis.report import report
from repro.config import RGF_KERNELS
from repro.negf import (
    SCBASettings,
    SCBASimulation,
    build_device,
    build_hamiltonian_model,
)

#: CI smoke mode: tiny operands, relaxed assertions, no JSON record.
FAST = os.environ.get("REPRO_BENCH_FAST", "").strip() not in ("", "0")

#: medium device: 128-orbital blocks (ny_rows*slab_width*Norb), bnum=6
DEVICE = (
    dict(nx_cols=6, ny_rows=3, NB=4, slab_width=2, Norb=2)
    if FAST
    else dict(nx_cols=24, ny_rows=8, NB=4, slab_width=4, Norb=4)
)
GRID = (
    dict(NE=6, Nkz=2, Nqz=2, Nw=2, max_iterations=2)
    if FAST
    else dict(NE=16, Nkz=2, Nqz=1, Nw=2, max_iterations=5)
)


def run_scba_kernels() -> dict:
    spec = dict(DEVICE)
    norb = spec.pop("Norb")
    dev = build_device(**spec)
    model = build_hamiltonian_model(dev, Norb=norb)
    settings = dict(
        e_min=-1.5, e_max=1.5, eta=1e-3, tolerance=1e-14,
        cache_boundary=True, cache_operators=True, **GRID
    )
    seconds, errors = {}, {}
    reference = None
    for kernel in RGF_KERNELS:
        s = SCBASettings(engine="batched", rgf_kernel=kernel, **settings)
        with SCBASimulation(model, s) as sim:
            start = time.perf_counter()
            result = sim.run()
            seconds[kernel] = time.perf_counter() - start
        if kernel == "reference":
            reference = result
        errors[kernel] = float(np.abs(result.Gl - reference.Gl).max())
    base = seconds["reference"]
    return {
        "device": {**DEVICE, "NA": dev.NA, "bnum": dev.bnum},
        "grid": GRID,
        "seconds": seconds,
        "speedup_vs_reference": {k: base / v for k, v in seconds.items()},
        "max_err_vs_reference": errors,
    }


def test_rgf_kernels(benchmark, machine_info, bench_writer):
    def run():
        return {
            "machine": machine_info,
            "kernels": list(RGF_KERNELS),
            "scba_end_to_end": run_scba_kernels(),
        }

    record = benchmark.pedantic(run, rounds=1, iterations=1)
    record = bench_writer("rgf", record, FAST)

    scba = record["scba_end_to_end"]
    report(
        render_table(
            f"End-to-end SCBA, {scba['grid']['max_iterations']} Born iterations "
            f"on NE={scba['grid']['NE']} [seconds]",
            ["kernel", "seconds", "speedup vs reference"],
            [
                [k, f"{scba['seconds'][k]:.3f}",
                 f"{scba['speedup_vs_reference'][k]:.2f}x"]
                for k in scba["seconds"]
            ],
        )
    )

    # Every kernel reproduced the reference solution.
    assert all(e <= 1e-10 for e in scba["max_err_vs_reference"].values())
    if FAST:
        # CI smoke: completion + equivalence only — sub-second timings on
        # shared runners are a scheduling lottery.
        assert all(t > 0 for t in scba["seconds"].values())
        return
    # ISSUE 6 acceptance: the production kernel >= 1.5x end to end over
    # the seed's solve(A, I) recursion.
    assert scba["speedup_vs_reference"]["numpy"] >= 1.5
