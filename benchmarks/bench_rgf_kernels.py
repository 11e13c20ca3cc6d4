"""RGF kernels: end-to-end SCBA speedup of the production recursion.

A medium device/grid (128-orbital blocks at ``slab_width=4``: the
interface support is a quarter of each coupling block) is run to a fixed
Born iteration count with each kernel of ``RGF_KERNELS`` on the same
batched engine, and emitted as ``BENCH_rgf.json``.  Acceptance: every
kernel reproduces the seed's ``np.linalg.solve(A, I)`` recursion (the
``reference`` kernel) to 1e-10, and the production kernel is >= 1.5x
faster end to end.

On the same device, one kz row of lead self-energies (both leads, every
energy of the grid) is timed through ``lead_self_energy_batched``, and
its decimation beside the dense loop (every product over the block).
The record holds the modeled GEMM work per decimation step, dense
``8·n³`` versus ``4·|r|·|c|·(|r|+|c|)`` on the interface support the
solver reads off the coupling (asserted exactly: ``8·(n/slab_width)³``),
and the surface GFs agree with the dense loop to 1e-10.

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
    lead_self_energy_batched,
    sancho_rubio_batched,
)
from repro.negf.rgf import interface_support

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
E_MIN, E_MAX, ETA = -1.5, 1.5, 1e-3


def build_model():
    spec = dict(DEVICE)
    norb = spec.pop("Norb")
    dev = build_device(**spec)
    return dev, build_hamiltonian_model(dev, Norb=norb)


def run_scba_kernels() -> dict:
    dev, model = build_model()
    settings = dict(
        e_min=E_MIN, e_max=E_MAX, eta=ETA, tolerance=1e-14, **GRID
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


def decimation_gemm_macs(nr: int, nc: int) -> int:
    """Complex multiply-adds of one decimation step's eight GEMMs
    (``αgβ``, ``βgα``, ``αgα``, ``βgβ``) on an ``nr x nc`` support."""
    return 4 * nr * nc * (nr + nc)


def dense_decimation(z, H00, H01, S00, S01, eta, tol=1e-12, max_iter=200):
    """The dense batched decimation loop: every product over the block."""
    zc = (z + 1j * eta)[:, None, None]
    eps_s = zc * S00 - H00
    eps = eps_s.copy()
    alpha = -(zc * S01 - H01)
    beta = alpha.conj().swapaxes(-1, -2)
    eye = np.broadcast_to(np.eye(H00.shape[0], dtype=complex), eps.shape)
    for _ in range(max_iter):
        g = np.linalg.solve(eps, eye)
        agb, bga = alpha @ g @ beta, beta @ g @ alpha
        eps_s, eps = eps_s - agb, eps - agb - bga
        alpha, beta = alpha @ g @ alpha, beta @ g @ beta
        norm = np.maximum(*(np.linalg.norm(m, axis=(1, 2)) for m in (alpha, beta)))
        if (norm < tol).all():
            return np.linalg.solve(eps_s, eye)
    raise RuntimeError("dense decimation did not converge")


def best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def run_boundary_row() -> dict:
    dev, model = build_model()
    H, S = model.hamiltonian_blocks(0.0), model.overlap_blocks(0.0)
    E = np.linspace(E_MIN, E_MAX, GRID["NE"])
    leads = {  # (H00, H01, S00, S01) of the chain each lead decimates
        "right": (H.diag[-1], H.upper[-1], S.diag[-1], S.upper[-1]),
        "left": (H.diag[0], H.upper[0].conj().T, S.diag[0], S.upper[0].conj().T),
    }
    n = H.diag[0].shape[0]
    alpha = E[:, None, None] * leads["right"][3] - leads["right"][1]
    r, c = (len(range(n)[i]) for i in interface_support(alpha))

    def decimate(solve):
        return [solve(E, *blocks, eta=ETA) for blocks in leads.values()]

    def self_energies():
        for side, i in (("left", 0), ("right", -1)):
            lead_self_energy_batched(
                E, H.diag[i], H.upper[i], side, S.diag[i], S.upper[i], eta=ETA
            )

    errors = {
        side: float(np.abs(support - dense).max())
        for side, support, dense in zip(
            leads, decimate(sancho_rubio_batched), decimate(dense_decimation)
        )
    }
    repeats = 1 if FAST else 3
    return {
        "block": n,
        "batch": len(E),
        "support": [r, c],
        "gemm_macs_per_step": {
            "dense": decimation_gemm_macs(n, n),
            "support": decimation_gemm_macs(r, c),
        },
        "seconds": {
            "lead_self_energy_batched": best_of(self_energies, repeats),
            "support_decimation": best_of(
                lambda: decimate(sancho_rubio_batched), repeats
            ),
            "dense_decimation": best_of(
                lambda: decimate(dense_decimation), repeats
            ),
        },
        "max_err_vs_dense": errors,
    }


def test_rgf_kernels(benchmark, machine_info, bench_writer):
    def run():
        return {
            "machine": machine_info,
            "kernels": list(RGF_KERNELS),
            "scba_end_to_end": run_scba_kernels(),
            "boundary_row": run_boundary_row(),
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

    # The decimation contracts over the interface layer (1/slab_width of
    # each dimension): its modeled GEMM work per step, exactly, and the
    # surface GFs of the dense loop to 1e-10.
    row = record["boundary_row"]
    report(
        render_table(
            f"Lead self-energies, one kz row (B={row['batch']}, "
            f"n={row['block']}, support {row['support']})",
            ["path", "seconds", "GEMM multiply-adds / step"],
            [
                ["lead_self_energy_batched",
                 f"{row['seconds']['lead_self_energy_batched']:.3f}", ""],
                ["decimation on the support",
                 f"{row['seconds']['support_decimation']:.3f}",
                 row["gemm_macs_per_step"]["support"]],
                ["dense decimation loop",
                 f"{row['seconds']['dense_decimation']:.3f}",
                 row["gemm_macs_per_step"]["dense"]],
            ],
        )
    )
    n, layer = row["block"], row["block"] // DEVICE["slab_width"]
    assert row["support"] == [layer, layer]
    assert row["gemm_macs_per_step"] == {
        "dense": 8 * n**3, "support": 8 * layer**3,
    }
    assert all(e <= 1e-10 for e in row["max_err_vs_dense"].values())
    if FAST:
        # CI smoke: completion + equivalence only — sub-second timings on
        # shared runners are a scheduling lottery.
        assert all(t > 0 for t in scba["seconds"].values())
        return
    # ISSUE 6 acceptance: the production kernel >= 1.5x end to end over
    # the seed's solve(A, I) recursion.
    assert scba["speedup_vs_reference"]["numpy"] >= 1.5
