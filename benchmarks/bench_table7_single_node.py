"""Table 7 — single-node runtime of the three algorithm variants (measured).

A scaled-down GF+SSE workload runs through the naive-Python, the
OMEN-structured, and the DaCe-transformed SSE kernels.  The paper (one
Piz Daint node, 1/112 of the Nkz=3 load) reports GF/SSE seconds of
OMEN 144.1/965.5, Python 1342.8/30560.1, DaCe 111.3/96.8 — i.e. the
transformed kernel beats the OMEN structure by ~10x and naive Python by
~300x on SSE.  Shape check here: Python ≫ OMEN > DaCe, with OMEN/DaCe at
least the 2x of the Table-3 flop ratio: both variants run the same GEMM
statements, but OMEN recomputes ∇H·G in every (qz, ω) round and its
per-round product has ``M = Norb`` rows where the transformed kernel
folds ω into ``M = Nw*Norb`` — that structural difference is what is
measured (the paper's remaining factor is layout and batching too).
"""

import pytest

from repro.negf import sigma_sse, sse_flop_estimate
from repro.analysis.report import report

_TIMES = {}


@pytest.mark.parametrize("variant", ["reference", "omen", "dace"])
def test_table7_sse_variants(benchmark, single_node_workload, variant):
    w = single_node_workload
    out = benchmark.pedantic(
        sigma_sse,
        args=(w["Gl"], w["model"].dH, w["Dcl"], w["dev"].neighbors, +1, variant),
        rounds=1 if variant == "reference" else 3,
        iterations=1,
    )
    _TIMES[variant] = benchmark.stats.stats.min
    assert out.shape == w["Gl"].shape
    if len(_TIMES) == 3:
        py, om, da = _TIMES["reference"], _TIMES["omen"], _TIMES["dace"]
        Nkz, NE, NA, Norb, _ = w["Gl"].shape
        Nqz, Nw, _, NB, N3D, _ = w["Dcl"].shape
        gflop = sse_flop_estimate(Nkz, NE, Nqz, Nw, NA, NB, N3D, Norb, "dace") / 1e9
        report(
            f"\nTable 7 (SSE phase, scaled down): Python {py*1e3:.1f} ms, "
            f"OMEN {om*1e3:.1f} ms, DaCe {da*1e3:.1f} ms "
            f"({gflop/da:.1f} GFLOP/s) | "
            f"Python/DaCe = {py/da:.1f}x, OMEN/DaCe = {om/da:.2f}x"
        )
        # Ordering must reproduce the paper's Table 7.
        assert py > om > da
        assert py / da > 30  # naive Python is orders of magnitude slower
        assert om / da >= 2.0  # the Table-3 flop ratio is the floor
