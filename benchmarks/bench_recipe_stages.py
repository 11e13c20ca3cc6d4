"""Ablation — the SSE pipeline across transformation stages.

Executes the Σ≷ SDFG at every recipe stage through the interpreter on
identical inputs and models the per-stage data movement (paper §4.1) at
the paper's Table-1 dimensions: the transformation sequence should
shrink runtime and tasklet invocations by more than an order of
magnitude even at toy scale, halve the dominant flop term (§4.3), and
cut modeled bytes-moved by two to three orders of magnitude.

Emits ``BENCH_recipe.json`` next to this file: per-stage wall time
(interpreter *and* generated-numpy execution backend), tasklet/flop
counters, and modeled bytes moved + transient footprint at paper
dimensions.  ``REPRO_BENCH_FAST=1`` (the CI smoke mode) keeps the
committed JSON record untouched and skips the wall-clock assertions.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.analysis.report import report
from repro.core import SSE_PIPELINE, sse_movement_report
from repro.core.sse_sdfg import random_sse_inputs
from repro.sdfg import get_backend
from repro.sdfg.pipeline import run_stage

#: CI smoke mode: no JSON record, no wall-clock assertions.
FAST = os.environ.get("REPRO_BENCH_FAST", "").strip() not in ("", "0")

_DIMS = dict(Nkz=3, NE=6, Nqz=2, Nw=2, N3D=2, NA=6, NB=3, Norb=2)
#: Table-1 structure (PAPER_STRUCTURE_4864) for the movement model.
_PAPER_DIMS = dict(Nkz=7, NE=706, Nqz=7, Nw=70, NA=4864, NB=34, Norb=12, N3D=3)
_STAGES = {s.name: s for s in SSE_PIPELINE.build()}
_ARRAYS, _TABLES = random_sse_inputs(_DIMS)
_STATS = {}

_OUT = Path(__file__).resolve().parent / "BENCH_recipe.json"
_TIMED = ["fig8", "fig9", "fig10d", "fig12s"]

_MOVEMENT = None


def _movement():
    global _MOVEMENT
    if _MOVEMENT is None:
        _MOVEMENT = sse_movement_report(_PAPER_DIMS)
    return _MOVEMENT


def test_movement_reduction_at_paper_dims():
    """ISSUE acceptance: net data-movement reduction fig8 -> fig12s at
    paper dimensions, and the shrink stage collapses the footprint.
    Independent of the timing parametrization (runs under -k/-x too)."""
    movement = _movement()
    assert movement.stages[0].name == "fig8"
    assert movement.stages[-1].name == "fig12s"
    assert movement.stages[0].total_bytes > movement.stages[-1].total_bytes
    # a model-derived constant: any change to the movement model or the
    # recipe moves it, on every machine
    assert movement.total_reduction == pytest.approx(676.8233431282383, rel=1e-9)
    shrink = movement.stage("fig12s")
    fused = movement.stage("fig12")
    assert shrink.transient_bytes < fused.transient_bytes / 1000


@pytest.mark.parametrize("stage_name", _TIMED)
def test_recipe_stage_runtime(benchmark, stage_name, bench_writer):
    stage = _STAGES[stage_name]

    def run():
        return run_stage(stage, _DIMS, _ARRAYS, _TABLES)

    sigma, interp = benchmark.pedantic(run, rounds=1, iterations=1)
    # The generated-numpy backend on the same stage and inputs.
    runner = get_backend("numpy").compile_stage(stage)
    runner(_DIMS, _ARRAYS, _TABLES)  # compile/warm outside the timing
    t0 = time.perf_counter()
    sigma_np, _ = runner(_DIMS, _ARRAYS, _TABLES)
    t_np = time.perf_counter() - t0
    import numpy as np

    assert np.allclose(sigma, sigma_np, rtol=1e-10, atol=1e-10)
    _STATS[stage_name] = dict(
        time=benchmark.stats.stats.min,
        time_numpy=t_np,
        tasklets=interp.report.tasklet_invocations,
        flops=interp.report.flops,
    )
    if len(_STATS) < len(_TIMED):
        return

    movement = _movement()
    record = {
        "pipeline": SSE_PIPELINE.name,
        "toy_dims": dict(_DIMS),
        "paper_dims": dict(_PAPER_DIMS),
        "stages": [
            {
                "name": s.name,
                "description": s.description,
                "modeled_bytes_moved": s.total_bytes,
                "transient_bytes": s.transient_bytes,
                **(
                    {
                        "seconds": _STATS[s.name]["time"],
                        "seconds_numpy_backend": _STATS[s.name]["time_numpy"],
                        "tasklets": _STATS[s.name]["tasklets"],
                        "flops": _STATS[s.name]["flops"],
                    }
                    if s.name in _STATS
                    else {}
                ),
            }
            for s in movement.stages
        ],
        "movement_reduction": movement.total_reduction,
    }
    record = bench_writer("recipe", record, FAST)

    first, last = _STATS["fig8"], _STATS["fig12s"]
    report("\nRecipe ablation (interpreted + generated + modeled movement):")
    for k, v in _STATS.items():
        report(
            f"  {k:8s}: {v['time']*1e3:9.1f} ms interp / "
            f"{v['time_numpy']*1e3:7.2f} ms numpy, "
            f"{v['tasklets']:7d} tasklets, {v['flops']:10d} flops"
        )
    report(
        f"  modeled movement at paper dims: "
        f"{movement.stages[0].total_bytes / 2**50:.1f} PiB -> "
        f"{movement.stages[-1].total_bytes / 2**40:.1f} TiB "
        f"({movement.total_reduction:.0f}x)"
    )

    # executed flops of the untransformed graph at _DIMS (Table 3, exact)
    assert first["flops"] == 787968
    assert first["tasklets"] / last["tasklets"] > 10
    if not FAST:
        assert first["time"] / last["time"] > 3
    # §4.3: relative to the fissioned (OMEN-structured) graph, the
    # remaining transformations halve the dominant flop term:
    # 2·X·NqzNw  ->  X·NqzNw + X.
    omen_like = _STATS["fig9"]["flops"]
    nqw = _DIMS["Nqz"] * _DIMS["Nw"]
    expected = 2.0 * nqw / (nqw + 1.0)
    measured = omen_like / last["flops"]
    assert abs(measured - expected) / expected < 0.25
    # The initial 8-D map additionally carries the j-redundant ∇H·G
    # products, so the end-to-end flop reduction is even larger.
    assert first["flops"] / last["flops"] > 2.0
