"""Scheduler throughput: one shared Session vs isolated per-tenant runs.

Six tenants submit single-point ballistic workloads of the same device
on the same spectral grid — the classic multi-tenant pattern where every
job is structurally identical but physically distinct (different bias),
plus one exact duplicate.  The batch runs three ways:

* ``scheduler`` — one :class:`repro.service.SchedulerService` drain:
  jobs are planned, executed as ``session.run(job.plan)`` on the
  service's one :class:`repro.api.Session` against a common warm
  boundary cache (one structural group), and the duplicate is served
  from the content-addressed result cache;
* ``isolated``  — one :class:`repro.api.Session` per workload, the
  pre-service pattern: every tenant pays the full boundary bill;
* ``merged_session`` — the six distinct biases as one ``bias`` sweep
  through one :class:`repro.api.Session`, no service.

Asserts identical currents to ≤ 1e-10 while the scheduler performs
strictly fewer boundary solves in strictly less wall time than the
isolated sessions, and that the merged Session makes exactly the
scheduler's boundary solves with exactly its currents: what the service
adds is the queue and the cache hit, not solve sharing.  Emits
``BENCH_service.json`` next to this file;
``REPRO_BENCH_FAST=1`` (the CI smoke mode) runs the same comparison and
assertions on a smaller grid and leaves the committed record untouched.
"""

import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.analysis import render_table
from repro.analysis.report import report
from repro.api import (
    DeviceSpec,
    GridSpec,
    PhysicsSpec,
    Session,
    SweepAxis,
    Workload,
)
from repro.service import ResultCache, SchedulerService

FAST = os.environ.get("REPRO_BENCH_FAST", "").strip() not in ("", "0")

_OUT = Path(__file__).resolve().parent / "BENCH_service.json"

#: (tenant, bias) batch: six distinct points + one duplicate of the first
TENANT_BIASES = (
    ("alice", 0.00),
    ("bob", 0.10),
    ("carol", 0.20),
    ("dave", 0.30),
    ("erin", 0.40),
    ("frank", 0.50),
    ("alice-again", 0.00),
)


def _workload(tenant: str, bias: float) -> Workload:
    ne = 8 if FAST else 40
    return Workload(
        name=f"svc-{tenant}",
        device=DeviceSpec(nx_cols=8, ny_rows=4, NB=6, slab_width=2, Norb=2),
        grid=GridSpec(e_min=-1.6, e_max=1.6, NE=ne, Nkz=3, Nqz=3, Nw=3,
                      eta=1e-6),
        physics=PhysicsSpec(transport="ballistic", kT_el=0.05,
                            mu_left=bias / 2, mu_right=-bias / 2),
    )


def _run_scheduler(batch) -> dict:
    start = time.perf_counter()
    with SchedulerService(cache=ResultCache(max_entries=32)) as svc:
        jobs = [svc.submit(w, tenant=t) for t, w in batch]
        svc.drain()
        currents = [j.result.currents_left[0] for j in jobs]
        stats = svc.stats()
        done = sorted(
            (j for j in jobs if j.state == "DONE"),
            key=lambda j: j.metrics["exec_order"],
        )
    return {
        "seconds": time.perf_counter() - start,
        "currents": currents,
        "boundary_solves": stats["boundary_solves"],
        "cache_hits": stats["cache"]["hits"],
        "groups": stats["groups"],
        "jobs": stats["jobs"],
        # (solves, hits) of each executed job, in execution order
        "done_solves_hits": [
            [j.metrics["boundary_solves"], j.metrics["boundary_hits"]]
            for j in done
        ],
    }


def _run_isolated(batch) -> dict:
    start = time.perf_counter()
    currents, solves = [], 0
    for _, w in batch:
        with Session(w.compile(engine="batched")) as session:
            sweep = session.run()
        currents.append(sweep.currents_left[0])
        solves += sweep.boundary_solves
    return {
        "seconds": time.perf_counter() - start,
        "currents": currents,
        "boundary_solves": solves,
    }


def _run_merged_session(biases) -> dict:
    """The distinct biases as one ``bias`` sweep through one Session."""
    start = time.perf_counter()
    workload = replace(
        _workload("merged", 0.0), sweeps=(SweepAxis("bias", biases),)
    )
    with Session(workload.compile(engine="batched")) as session:
        sweep = session.run()
    return {
        "seconds": time.perf_counter() - start,
        "currents": list(sweep.currents_left),
        "boundary_solves": sweep.boundary_solves,
    }


def run_throughput_comparison() -> dict:
    batch = [(t, _workload(t, b)) for t, b in TENANT_BIASES]
    scheduler = _run_scheduler(batch)
    isolated = _run_isolated(batch)
    # the scheduler's current of each distinct bias, in submission order
    by_bias = {}
    for (_, bias), current in zip(TENANT_BIASES, scheduler["currents"]):
        by_bias.setdefault(bias, current)
    merged = _run_merged_session(tuple(by_bias))
    merged_dev = float(
        np.abs(
            np.asarray(merged["currents"]) - np.asarray(list(by_bias.values()))
        ).max()
    )
    dev = float(
        np.abs(
            np.asarray(scheduler["currents"])
            - np.asarray(isolated["currents"])
        ).max()
    )
    return {
        "tenants": [t for t, _ in TENANT_BIASES],
        "grid_NE": 8 if FAST else 40,
        "scheduler": {
            k: v for k, v in scheduler.items() if k != "currents"
        },
        "isolated": {k: v for k, v in isolated.items() if k != "currents"},
        "merged_session": {
            k: v for k, v in merged.items() if k != "currents"
        },
        "max_current_deviation": dev,
        "merged_max_current_deviation": merged_dev,
        "speedup": isolated["seconds"] / scheduler["seconds"],
        "solve_reduction": (
            isolated["boundary_solves"] / scheduler["boundary_solves"]
        ),
    }


def test_service_throughput(benchmark, bench_writer):
    record = benchmark.pedantic(
        run_throughput_comparison, rounds=1, iterations=1
    )
    record = bench_writer("service", record, FAST)

    rows = [
        [
            label,
            f"{record[label]['seconds']:.3f}",
            str(record[label]["boundary_solves"]),
        ]
        for label in ("scheduler", "isolated", "merged_session")
    ]
    report(
        render_table(
            f"Scheduler ({len(TENANT_BIASES)} mixed-tenant jobs, one shared "
            "Session) vs isolated sessions vs one merged bias sweep",
            ["path", "seconds", "boundary solves"],
            rows,
        )
    )

    # ISSUE 7 acceptance: numerically equivalent ...
    assert record["max_current_deviation"] <= 1e-10
    # ... the shared executors pay one boundary bill (each lead once per
    # grid point and contact) where every isolated session pays its own;
    # the five other distinct jobs only hit it, the duplicate never runs ...
    g = _workload("any", 0.0).grid
    per_run = 2 * g.Nkz * g.NE + 2 * g.Nqz * g.Nw
    n = len(TENANT_BIASES)
    assert record["scheduler"]["boundary_solves"] == per_run
    assert record["isolated"]["boundary_solves"] == n * per_run
    assert record["solve_reduction"] == n == 7
    first, *later = record["scheduler"]["done_solves_hits"]
    assert first[0] == per_run and len(later) == n - 2
    assert all(solves == 0 and hits > 0 for solves, hits in later)
    assert record["scheduler"]["groups"] == 1
    # ... AND strictly less wall time.
    assert record["scheduler"]["seconds"] < record["isolated"]["seconds"]
    # the duplicate tenant resolved from the result cache
    assert record["scheduler"]["cache_hits"] >= 1
    assert record["scheduler"]["jobs"].get("CACHED", 0) == 1
    # what the service does not add: one Session running the distinct
    # biases as one sweep pays the same boundary bill, to the bit
    assert (
        record["merged_session"]["boundary_solves"]
        == record["scheduler"]["boundary_solves"]
        == per_run
    )
    assert record["merged_max_current_deviation"] == 0.0
