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
4. roofline-validates the winner: per-stage modeled bytes + analytic
   flops vs execution through the generated-code backend (the analytic
   and executed flop counts must agree exactly).

Run:  python examples/autotune_recipe.py
"""

import time

from repro.autotune import roofline_report
from repro.core import SSE_PIPELINE
from repro.core.recipe import VERIFY_DIMS, tuned_sse_search
from repro.sdfg.pipeline import format_bytes

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

    # -- roofline validation of the winner ----------------------------------
    print()
    roof = roofline_report(
        res.pipeline,
        model_dims=PAPER_DIMS,
        measure_dims=VERIFY_DIMS,
        repeats=1,
    )
    print(roof.describe())
    print(f"\nflops model agreement: worst |measured/modeled - 1| = "
          f"{roof.agreement:.1e}")


if __name__ == "__main__":
    main()
