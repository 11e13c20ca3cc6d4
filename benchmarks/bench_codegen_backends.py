"""Execution backends head-to-head: interpreter vs generated numpy code.

Runs every stage of the Fig. 8 → 12 SSE pipeline through both registered
SDFG execution backends on identical inputs, asserts bit-level agreement
to 1e-10 (the backend-equivalence smoke CI runs in fast mode), and — in
full mode — records wall times to ``BENCH_codegen.json`` and asserts the
ISSUE acceptance: generated code at least **50x** faster than
interpretation over the whole pipeline at toy dims.

A second, larger dimension set is timed through the numpy backend only,
demonstrating that code generation makes paper-shaped grids reachable
where the interpreter is hopeless (the interpreter is extrapolated from
its per-tasklet cost, not run; the medium-dims tasklet invocation count
is the product of the final stage's map scope volumes).

``REPRO_BENCH_FAST=1`` keeps the committed JSON record untouched and
skips the wall-clock assertions; the equivalence checks always run.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.report import report
from repro.core import SSE_PIPELINE
from repro.core.sse_sdfg import random_sse_inputs
from repro.sdfg import Tasklet, get_backend

FAST = os.environ.get("REPRO_BENCH_FAST", "").strip() not in ("", "0")

_DIMS = dict(Nkz=3, NE=6, Nqz=2, Nw=2, N3D=2, NA=6, NB=3, Norb=2)
#: medium dims: far beyond interpreter reach, ~a second of generated code
_MEDIUM_DIMS = dict(Nkz=5, NE=64, Nqz=5, Nw=8, N3D=3, NA=16, NB=6, Norb=4)

_OUT = Path(__file__).resolve().parent / "BENCH_codegen.json"

_ARRAYS, _TABLES = random_sse_inputs(_DIMS)


def _time(fn, *args, repeat=3):
    best = np.inf
    out = None
    for _ in range(1 if FAST else repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return out, best


def _tasklet_invocations(sdfg, dims) -> int:
    """Tasklet invocations of one run: per tasklet, the product of its
    enclosing map scopes' iteration volumes."""
    total = 0
    for state in sdfg.states:
        scopes = state.scope_index()
        for node in state.nodes:
            if isinstance(node, Tasklet):
                n = 1
                for entry in scopes.scope_chain(node):
                    n *= entry.map.range.num_elements().evaluate(dims)
                total += n
    return total


def test_backend_equivalence_and_speedup(bench_writer):
    """Every stage agrees across backends; generated code is >= 50x
    faster than interpretation over the pipeline (full mode only)."""
    interp = get_backend("interpreter")
    numpy_be = get_backend("numpy")
    rows = []
    tot = {"interpreter": 0.0, "numpy": 0.0}
    for stage in SSE_PIPELINE.stages():
        ri = interp.compile_stage(stage)
        rn = numpy_be.compile_stage(stage)
        (out_i, exec_i), t_i = _time(ri, _DIMS, _ARRAYS, _TABLES)
        (out_n, _), t_n = _time(rn, _DIMS, _ARRAYS, _TABLES)
        assert np.allclose(out_i, out_n, rtol=1e-10, atol=1e-10), stage.name
        tot["interpreter"] += t_i
        tot["numpy"] += t_n
        rows.append(
            {
                "stage": stage.name,
                "interpreter_seconds": t_i,
                "numpy_seconds": t_n,
                "speedup": t_i / max(t_n, 1e-12),
                "tasklets": exec_i.report.tasklet_invocations,
                "flops": exec_i.report.flops,
                "generated_lines": len(rn.source.splitlines()),
            }
        )

    # Larger dims through generated code only (interpreter extrapolated
    # from its measured per-tasklet cost at toy dims).
    med_arrays, med_tables = random_sse_inputs(_MEDIUM_DIMS)
    final = SSE_PIPELINE.stages()[-1]
    rn = numpy_be.compile_stage(final)
    _, t_m = _time(rn, _MEDIUM_DIMS, med_arrays, med_tables)
    toy_final = rows[-1]
    assert _tasklet_invocations(final.sdfg, _DIMS) == toy_final["tasklets"]
    per_tasklet = toy_final["interpreter_seconds"] / max(
        toy_final["tasklets"], 1
    )
    interp_estimate = per_tasklet * _tasklet_invocations(
        final.sdfg, _MEDIUM_DIMS
    )

    speedup = tot["interpreter"] / max(tot["numpy"], 1e-12)
    record = {
        "toy_dims": dict(_DIMS),
        "stages": rows,
        "total_interpreter_seconds": tot["interpreter"],
        "total_numpy_seconds": tot["numpy"],
        "total_speedup": speedup,
        "medium_dims": dict(_MEDIUM_DIMS),
        "medium_numpy_seconds": t_m,
        "medium_interpreter_seconds_estimated": interp_estimate,
    }
    record = bench_writer("codegen", record, FAST)

    report("\nSDFG execution backends (interpreter vs generated numpy):")
    for r in rows:
        report(
            f"  {r['stage']:8s}: {r['interpreter_seconds']*1e3:9.1f} ms -> "
            f"{r['numpy_seconds']*1e3:7.2f} ms  ({r['speedup']:7.1f}x)"
        )
    report(
        f"  total: {tot['interpreter']*1e3:.0f} ms -> "
        f"{tot['numpy']*1e3:.1f} ms ({speedup:.0f}x); medium dims "
        f"fig12s: {t_m*1e3:.0f} ms generated vs ~{interp_estimate:.0f} s "
        f"interpreted (estimate)"
    )

    # executed work of the untransformed graph at _DIMS, as the
    # interpreter counted it
    assert rows[0]["stage"] == "fig8"
    assert (rows[0]["flops"], rows[0]["tasklets"]) == (787968, 15552)
    if not FAST:
        # ISSUE acceptance: >= 50x over the pipeline at toy dims.
        assert speedup >= 50.0, speedup
        # Paper-shaped dims are reachable: generated code finishes in
        # seconds where even the overhead-only interpreter lower bound
        # (toy per-tasklet cost x medium invocation count — the real
        # interpreter additionally pays for the larger blocks) is worse.
        assert t_m < 10.0
        assert interp_estimate > t_m


def test_generated_source_is_recorded():
    """The numpy backend attaches inspectable source for every stage."""
    numpy_be = get_backend("numpy")
    for stage in SSE_PIPELINE.stages():
        src = numpy_be.compile_stage(stage).source
        assert "def run(dims, arrays, tables=None):" in src
        assert "np.einsum" in src or "_tasklets" in src
