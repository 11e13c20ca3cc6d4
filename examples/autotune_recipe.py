"""Rediscover the Fig. 8 -> 12 recipe with the autotuner.

The paper's transformation recipe was written by a performance engineer
reading the SSE dataflow.  The autotuner (``repro.autotune``) replaces
the engineer: starting from the untransformed Fig. 8 SDFG it enumerates
every legal transformation site (``match()``), scores each candidate
with the §4.1 data-movement model at the paper's 4864-atom dimensions,
and greedily commits improving moves — escaping plateaus through chains
of byte-neutral enablers (layouts, expansions, fusions).

This example

1. runs the greedy search over the full move space at paper dims,
2. prints the winning move sequence beside the hand recipe's stages,
3. compares both pipelines' modeled movement stage by stage, and
4. tabulates the winner's per-stage modeled bytes and analytic flops at
   paper dims, and
5. checks those models against execution: the interpreter runs every
   stage at toy dims, and the flops and element accesses it counts must
   equal the models exactly (``repro.telemetry.sse_flops_drift``).

Run:  python examples/autotune_recipe.py
"""

import time

from repro.core import SSE_PIPELINE
from repro.core.recipe import VERIFY_DIMS, tuned_sse_search
from repro.model.performance import stage_flops
from repro.sdfg.pipeline import format_bytes
from repro.telemetry import sse_flops_drift

PAPER_DIMS = dict(Nkz=7, NE=706, Nqz=7, Nw=70, NA=4864, NB=34, Norb=12, N3D=3)


def main():
    # -- search: fig8 + empty step list -> a full pipeline ------------------
    t0 = time.time()
    res = tuned_sse_search(PAPER_DIMS)
    print(f"search took {time.time() - t0:.1f}s "
          f"({res.evaluations} candidates scored)\n")
    print(res.describe())
    print()

    # -- the hand recipe, for comparison ------------------------------------
    hand = SSE_PIPELINE.report(PAPER_DIMS)
    tuned = res.report
    print(f"{'hand stage':10s} {'moved':>12s}   "
          f"{'searched':14s} {'moved':>12s}")
    print("-" * 56)
    rows = max(len(hand.stages), len(tuned.stages))
    for i in range(rows):
        left = right = ("", "")
        if i < len(hand.stages):
            s = hand.stages[i]
            left = (s.name, format_bytes(s.total_bytes))
        if i < len(tuned.stages):
            s = tuned.stages[i]
            right = (s.name, format_bytes(s.total_bytes))
        print(f"{left[0]:10s} {left[1]:>12s}   {right[0]:14s} {right[1]:>12s}")
    print(f"\nhand recipe : {hand.total_reduction:7.1f}x less movement")
    print(f"autotuned   : {tuned.total_reduction:7.1f}x less movement "
          f"({len(res.moves)} moves, every stage verified, max err "
          f"{max(res.verification.values()):.1e})")

    # -- modeled work of the winner at paper dims ---------------------------
    print(f"\n{'searched stage':14s} {'moved':>12s} {'flop':>10s} "
          f"{'flop/B':>8s}   (modeled at paper dims)")
    for stage, moved in zip(res.pipeline.stages(), tuned.stages):
        flops = stage_flops(stage.sdfg, PAPER_DIMS)
        print(f"{stage.name:14s} {format_bytes(moved.total_bytes):>12s} "
              f"{flops:10.3e} {flops / moved.total_bytes:8.2f}")

    # -- the models against interpreter-counted execution -------------------
    print()
    drift = sse_flops_drift(pipeline=res.pipeline, dims=VERIFY_DIMS)
    print(drift.describe())
    verdict = "clean" if drift.clean else "DRIFT"
    print(f"\nwork check {verdict}: interpreter-counted flops and bytes vs "
          f"the models on all {len(drift.records) // 2} stages")


if __name__ == "__main__":
    main()
