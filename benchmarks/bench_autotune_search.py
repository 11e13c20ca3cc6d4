"""Autotuner — search quality, cost, and the models of the winner.

Runs the movement-model-guided search (``repro.autotune``) from the
untransformed Fig. 8 SDFG and checks the acceptance bar: at the paper's
Table-1 dimensions the greedy search must rediscover at least the hand
recipe's ~677x movement reduction (it finds 700x: batching the
(qz, ω, j) contraction drops the ∇HD≷ write-conflict accumulation the
hand recipe pays for), every winning stage must verify against the
reference kernel, and the flops and element accesses the interpreter
counts while running each winning stage at toy dims must equal the
analytic models exactly (``sse_flops_drift``).

Emits ``BENCH_autotune.json`` next to this file: search wall time and
candidate count, the winning move sequence, and each winning stage's
modeled bytes and analytic flops at paper dims.  ``REPRO_BENCH_FAST=1``
(the CI smoke mode) keeps the committed JSON untouched and runs only the
toy-dims smoke: the searched pipeline must match or beat the hand
recipe's modeled bytes.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.analysis.report import report
from repro.core.recipe import (
    VERIFY_DIMS,
    sse_movement_report,
    tuned_sse_search,
)
from repro.model.performance import stage_flops
from repro.telemetry import sse_flops_drift

#: CI smoke mode: no JSON record, toy-dims search only.
FAST = os.environ.get("REPRO_BENCH_FAST", "").strip() not in ("", "0")

_TOY_DIMS = dict(VERIFY_DIMS)
#: Table-1 structure (PAPER_STRUCTURE_4864) the search optimizes for.
_PAPER_DIMS = dict(Nkz=7, NE=706, Nqz=7, Nw=70, NA=4864, NB=34, Norb=12, N3D=3)

_OUT = Path(__file__).resolve().parent / "BENCH_autotune.json"


def test_greedy_smoke_matches_hand_recipe_at_toy_dims():
    """CI smoke: the searched pipeline moves no more modeled bytes than
    the hand Fig. 8 -> 12 recipe (toy dims)."""
    res = tuned_sse_search(_TOY_DIMS)
    hand = sse_movement_report(_TOY_DIMS)
    assert (
        res.report.stages[-1].total_bytes
        <= hand.stages[-1].total_bytes
    )
    assert max(res.verification.values()) <= 1e-10
    report(
        f"\nAutotune smoke (toy dims): searched "
        f"{res.report.stages[-1].total_bytes} B <= hand "
        f"{hand.stages[-1].total_bytes} B "
        f"({res.evaluations} candidates)"
    )


@pytest.mark.skipif(FAST, reason="paper-dims search and work check")
def test_autotune_paper_dims_and_work_check(bench_writer):
    """Acceptance: >= the hand recipe's 677x at paper dims, strictly
    fewer modeled bytes, and interpreter-counted work equal to the
    models on every stage."""
    t0 = time.time()
    greedy = tuned_sse_search(_PAPER_DIMS)
    t_greedy = time.time() - t0
    hand = sse_movement_report(_PAPER_DIMS)

    assert greedy.total_reduction >= 677
    assert greedy.total_reduction >= hand.total_reduction
    assert (
        greedy.report.stages[-1].total_bytes
        < hand.stages[-1].total_bytes
    )
    assert max(greedy.verification.values()) <= 1e-10

    # Every winning stage runs verified through the interpreter at toy
    # dims; its counted flops and bytes must equal the models.
    drift = sse_flops_drift(pipeline=greedy.pipeline, dims=_TOY_DIMS)
    assert drift.clean, drift.describe()
    stages = [
        {
            "name": stage.name,
            "modeled_bytes": moved.total_bytes,
            "modeled_flops": stage_flops(stage.sdfg, _PAPER_DIMS),
        }
        for stage, moved in zip(
            greedy.pipeline.stages(), greedy.report.stages
        )
    ]

    record = {
        "paper_dims": dict(_PAPER_DIMS),
        "measure_dims": dict(_TOY_DIMS),
        "hand_reduction": hand.total_reduction,
        "greedy": {
            "seconds": t_greedy,
            "evaluations": greedy.evaluations,
            "moves": [m.to_dict() for m in greedy.moves],
            "reduction": greedy.total_reduction,
            "final_bytes": greedy.report.stages[-1].total_bytes,
            "max_verify_error": max(greedy.verification.values()),
        },
        "stages": stages,
    }
    record = bench_writer("autotune", record, FAST)

    report("\nAutotune vs hand recipe (paper dims):")
    report(
        f"  hand  : {hand.total_reduction:7.1f}x "
        f"({hand.stages[-1].total_bytes} B)"
    )
    report(
        f"  greedy: {greedy.total_reduction:7.1f}x "
        f"({greedy.report.stages[-1].total_bytes} B), "
        f"{len(greedy.moves)} moves, {greedy.evaluations} candidates, "
        f"{t_greedy:.1f}s"
    )
    report(
        f"  work check: interpreter-counted flops and bytes equal the "
        f"models on all {len(stages)} stages"
    )
