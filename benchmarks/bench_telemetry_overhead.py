"""Telemetry overhead: off must be free, spans must stay under 10%.

Times the engine hot path — a fixed-iteration dissipative SCBA run at
the README quickstart dimensions — under each ``REPRO_TELEMETRY`` mode
and emits ``BENCH_telemetry.json``:

* **off**  — the instrumentation is a handful of module-level boolean
  checks; its cost is bounded *analytically* from a measured per-call
  ``trace()`` fast-path cost times the number of instrumentation sites
  the spans-mode run actually recorded.  Acceptance: <= 1% of the
  baseline wall clock.
* **spans** — the recording mode, compared against the off-mode wall
  clock directly.  Acceptance: <= 10% overhead.

The same session also serves as the CI telemetry smoke: a 2-rank
distributed SCBA run captured in ``spans`` mode writes
``telemetry_smoke.trace.json`` (rank-tagged, opens in Perfetto) and its
drift report — measured comm bytes vs the §4.1 exchange models, executed
flops vs the Table-3 analytic counts — must reconcile cleanly.

Setting ``REPRO_BENCH_FAST=1`` (the CI smoke mode) shrinks the workload,
keeps completion-level assertions plus the drift check (model agreement
is exact at any size; wall-clock ratios on shared runners are not), and
leaves the committed ``BENCH_telemetry.json`` record untouched.
"""

import json
import os
import time
from pathlib import Path

from repro import telemetry
from repro.analysis import render_table
from repro.analysis.report import report
from repro.negf import (
    SCBASettings,
    SCBASimulation,
    build_device,
    build_hamiltonian_model,
)
from repro.telemetry import capture, configure, timeit, trace
from repro.telemetry.drift import comm_drift, sse_flops_drift

#: CI smoke mode: tiny grid, relaxed assertions, no JSON record.
FAST = os.environ.get("REPRO_BENCH_FAST", "").strip() not in ("", "0")

#: README quickstart device/grid, run to a fixed Born iteration count.
DEVICE = (
    dict(nx_cols=6, ny_rows=3, NB=4, slab_width=2)
    if FAST
    else dict(nx_cols=12, ny_rows=4, NB=6, slab_width=2)
)
NORB = 2
GRID = (
    dict(NE=8, Nkz=2, Nqz=2, Nw=2, e_min=-1.5, e_max=1.5,
         coupling=0.25, mixing=0.6, max_iterations=2, tolerance=0.0)
    if FAST
    else dict(NE=20, Nkz=2, Nqz=2, Nw=3, e_min=-1.5, e_max=1.5,
              coupling=0.25, mixing=0.6, max_iterations=3, tolerance=0.0)
)
REPEATS = 1 if FAST else 3

_OUT = Path(__file__).resolve().parent / "BENCH_telemetry.json"
_TRACE = Path(__file__).resolve().parent / "telemetry_smoke.trace.json"


def _run_once(model) -> None:
    with SCBASimulation(model, SCBASettings(**GRID)) as sim:
        sim.run()


def _off_call_cost_ns(calls: int = 20000) -> float:
    """Measured per-call cost of the disabled ``trace()`` fast path."""
    configure("off")
    t0 = time.perf_counter()
    for _ in range(calls):
        with trace("bench.noop", i=0):
            pass
    return (time.perf_counter() - t0) / calls * 1e9


def run_overhead() -> dict:
    model = build_hamiltonian_model(build_device(**DEVICE), Norb=NORB)
    _run_once(model)  # warm the boundary/operator caches for every mode

    previous = configure("off")
    try:
        seconds = {}
        for mode in ("off", "spans"):
            configure(mode)
            telemetry.get_tracer().clear()
            seconds[mode] = timeit(
                lambda: _run_once(model), repeats=REPEATS
            ).best
        events = len(telemetry.chrome_trace_events())
        per_call_ns = _off_call_cost_ns()
        # Every recorded spans-mode event was one trace() call that, in
        # off mode, costs one fast-path check — an upper bound on what
        # the disabled instrumentation adds to the baseline run.
        off_overhead = events * per_call_ns * 1e-9 / seconds["off"]
    finally:
        configure(previous)
        telemetry.get_tracer().clear()
    return {
        "device": {**DEVICE, "Norb": NORB},
        "grid": GRID,
        "repeats": REPEATS,
        "seconds": seconds,
        "spans_events": events,
        "off_trace_call_ns": per_call_ns,
        "off_overhead_bound": off_overhead,
        "spans_overhead": seconds["spans"] / seconds["off"] - 1.0,
    }


def run_drift_smoke() -> dict:
    """2-rank distributed run: rank-tagged trace + clean drift report."""
    model = build_hamiltonian_model(
        build_device(nx_cols=6, ny_rows=3, NB=4, slab_width=2), Norb=2
    )
    settings = SCBASettings(
        runtime="sim", ranks=2, schedule="omen",
        NE=12, Nkz=2, Nqz=2, Nw=2, e_min=-1.5, e_max=1.5,
        coupling=0.2, mixing=0.5, max_iterations=3, tolerance=0.0,
    )
    with capture("spans") as cap:
        with SCBASimulation(model, settings) as sim:
            sim.run()
            drift = comm_drift(sim) + sse_flops_drift()
    cap.save(_TRACE)
    tracks = {
        e["args"]["name"] for e in cap.events if e["name"] == "process_name"
    }
    return {
        "trace_events": len(cap.events),
        "tracks": sorted(tracks),
        "drift": drift.to_dict(),
        "clean": drift.clean,
    }


def test_telemetry_overhead(benchmark, bench_writer):
    record = benchmark.pedantic(run_overhead, rounds=1, iterations=1)
    record["smoke"] = run_drift_smoke()
    record = bench_writer("telemetry", record, FAST)

    report(
        render_table(
            f"Telemetry overhead, quickstart-dim SCBA "
            f"({GRID['max_iterations']} Born iterations) [seconds]",
            ["mode", "seconds", "overhead vs off"],
            [
                ["off", f"{record['seconds']['off']:.3f}",
                 f"{record['off_overhead_bound'] * 100:.3f}% (bound)"],
                ["spans", f"{record['seconds']['spans']:.3f}",
                 f"{record['spans_overhead'] * 100:.1f}%"],
            ],
        )
    )

    # The smoke run must produce a rank-tagged trace and reconcile
    # cleanly against the analytic models — exact at any problem size.
    smoke = record["smoke"]
    assert smoke["clean"], f"drift report not clean: {smoke['drift']}"
    assert smoke["tracks"] == ["main", "rank 0", "rank 1"]
    assert _TRACE.exists() and smoke["trace_events"] > 0

    # Off-mode instrumentation cost: bounded analytically at <= 1%.
    assert record["off_overhead_bound"] <= 0.01

    if FAST:
        # CI smoke: completion only — sub-second wall-clock ratios on
        # shared runners are a scheduling lottery.
        assert all(t > 0 for t in record["seconds"].values())
        return
    # The recording mode: spans stay within 10% of the baseline.
    assert record["spans_overhead"] <= 0.10
