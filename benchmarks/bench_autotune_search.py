"""Autotuner — search quality, cost, and roofline model agreement.

Runs the movement-model-guided search (``repro.autotune``) from the
untransformed Fig. 8 SDFG and checks the ISSUE acceptance bar: at the
paper's Table-1 dimensions the greedy search must rediscover at least
the hand recipe's ~677x movement reduction (it finds 700x: batching the
(qz, ω, j) contraction drops the ∇HD≷ write-conflict accumulation the
hand recipe pays for), and every winning stage must verify against the
reference kernel with an *exact* analytic-vs-executed flop agreement.

Emits ``BENCH_autotune.json`` next to this file: search wall time and
candidate count, the winning move sequence, and the per-stage
modeled-vs-measured roofline record.  ``REPRO_BENCH_FAST=1``
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
from repro.autotune import roofline_report
from repro.core.recipe import (
    VERIFY_DIMS,
    sse_movement_report,
    tuned_sse_search,
)

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


@pytest.mark.skipif(FAST, reason="paper-dims search and roofline")
def test_autotune_paper_dims_and_roofline(bench_writer):
    """Acceptance: >= the hand recipe's 677x at paper dims, strictly
    fewer modeled bytes, and exact per-stage flops-model agreement."""
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

    # Roofline validation of every winning stage: modeled bytes/flops at
    # paper dims, execution + verification at toy dims.
    roof = roofline_report(
        greedy.pipeline,
        model_dims=_PAPER_DIMS,
        measure_dims=_TOY_DIMS,
        repeats=3,
    )
    assert roof.agreement == 0.0
    assert all(s.verify_error <= 1e-10 for s in roof.stages)

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
        "roofline": roof.to_dict(),
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
        f"  roofline: flops agreement exact on all "
        f"{len(roof.stages)} stages"
    )
