"""Walk the paper's SSE transformation pipeline (Figs. 8 -> 12).

The recipe is a declarative ``Pipeline`` (``repro.core.SSE_PIPELINE``):
an ordered list of ``(stage, description, Move)`` steps.  A ``Move`` —
the one transformation-step type, which the autotuner searches over
too — selects its application sites through its transformation's
``match()`` pattern enumeration.  This example

1. compiles the pipeline through the *numpy* execution backend — every
   stage lowered to generated vectorized source and verified against
   the naive reference kernel,
2. executes each intermediate graph on the same inputs through both the
   generated code and the reference interpreter (runtime + flop
   counters — the ablation, and the codegen speedup),
3. shows a slice of the generated fig12s module, and
4. prints the per-stage modeled data movement (paper §4.1) at both the
   toy dimensions and the paper's Table-1 structure.

Run:  python examples/sdfg_transformations.py
"""

import time

import numpy as np

from repro.core import SSE_PIPELINE, compile_sse_pipeline
from repro.core.sse_sdfg import random_sse_inputs, sse_sigma_reference

DIMS = dict(Nkz=3, NE=6, Nqz=2, Nw=2, N3D=2, NA=6, NB=3, Norb=2)
PAPER_DIMS = dict(Nkz=7, NE=706, Nqz=7, Nw=70, NA=4864, NB=34, Norb=12, N3D=3)


def main():
    arrays, tables = random_sse_inputs(DIMS, seed=42)
    reference = sse_sigma_reference(
        arrays["G"], arrays["dH"], arrays["D"], tables["__neigh__"]
    )

    # -- compile: lower every stage through the numpy backend, verify -------
    compiled = compile_sse_pipeline(backend="numpy")
    assert compiled.verified
    print(f"compiled {compiled!r}")
    print("per-stage max err vs reference:",
          max(compiled.verification.values()))
    print()

    # -- ablation: generated code vs the reference interpreter --------------
    interp_pipeline = compile_sse_pipeline(verify=False, backend="interpreter")
    print(f"{'stage':8s} {'interp':>9s} {'numpy':>9s} {'tasklets':>9s} "
          f"{'flops':>10s} {'max err':>9s}  description")
    print("-" * 96)
    first_interp = None
    tot_i = tot_n = 0.0
    for stage in compiled.stages:
        t0 = time.perf_counter()
        _, interp = interp_pipeline.run_stage(stage.name, DIMS, arrays, tables)
        t_i = time.perf_counter() - t0
        t0 = time.perf_counter()
        sigma, _ = compiled.run_stage(stage.name, DIMS, arrays, tables)
        t_n = time.perf_counter() - t0
        first_interp = first_interp or t_i
        tot_i += t_i
        tot_n += t_n
        err = np.max(np.abs(sigma - reference))
        print(
            f"{stage.name:8s} {t_i*1e3:7.1f}ms {t_n*1e3:7.2f}ms "
            f"{interp.report.tasklet_invocations:9d} "
            f"{interp.report.flops:10d} {err:9.1e}  {stage.description}"
        )
    print("-" * 96)
    print(f"interpreted fig8 -> fig12s: {first_interp / t_i:.1f}x less work "
          "(same semantics, transformed data movement); "
          f"generated-code speedup: {tot_i / tot_n:.0f}x over interpretation")
    print()

    # -- the generated code the final stage actually runs -------------------
    lines = compiled.source.splitlines()
    body = [i for i, l in enumerate(lines) if "# map" in l]
    print("generated fig12s source (excerpt):")
    for line in lines[body[0]: body[0] + 8]:
        print("   ", line)
    print()

    # -- per-stage modeled data movement (paper §4.1 metric) ----------------
    report = compiled.report(PAPER_DIMS)
    print("modeled at the paper's Table-1 structure "
          f"(NA={PAPER_DIMS['NA']}, NE={PAPER_DIMS['NE']}):")
    print(report.describe())
    print(f"net data-movement reduction: {report.total_reduction:.1f}x")


if __name__ == "__main__":
    main()
