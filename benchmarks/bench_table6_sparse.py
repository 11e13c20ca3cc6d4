"""Table 6 — sparse vs dense 3-matrix multiplication in RGF (measured).

``F[n] @ gR[n+1] @ E[n+1]`` with sparse Hamiltonian blocks and a dense
GF block, at representative size/sparsity.  The paper measures (cuSPARSE,
P100): Dense-MM 203.6 ms, CSRMM 47.1 ms, CSRGEMM 93.0 ms — CSRMM wins by
1.98-4.33x.  The same strategy ordering (CSRMM fastest, Dense-MM slowest
or comparable to CSRGEMM) reproduces on scipy/MKL.
"""

import numpy as np
import pytest

from repro.negf.sparse_kernels import generate_rgf_operands, three_matrix_product

_OPERANDS = generate_rgf_operands(n=768, block_density=0.02, seed=0)
_RESULTS = {}


@pytest.mark.parametrize("method", ["dense", "csrmm", "csrgemm"])
def test_table6_three_matrix_product(benchmark, method):
    F, gR, E = _OPERANDS
    out = benchmark(three_matrix_product, F, gR, E, method)
    _RESULTS[method] = np.asarray(out)
    # All strategies compute the same product.
    ref = _RESULTS.get("csrmm")
    if ref is not None and method != "csrmm":
        assert np.allclose(np.asarray(out), ref, rtol=1e-9, atol=1e-9)
