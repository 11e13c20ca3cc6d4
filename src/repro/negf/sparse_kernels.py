"""Sparse/dense strategies for the RGF 3-matrix product (paper §5.1.2).

A recurring RGF operation multiplies two sparse block-tridiagonal
Hamiltonian blocks with a dense retarded GF block:
``F[n] @ gR[n+1] @ E[n+1]``.  Table 6 compares three strategies:

* ``dense``    — CSR->dense conversion, then two dense GEMMs;
* ``csrmm``    — sparse x dense, then (dense) x sparse (the transposed
  dense-CSR product), keeping ``gR`` dense throughout;
* ``csrgemm``  — all-sparse products, keeping the result (and ``gR``)
  sparse.

On the paper's P100 with cuSPARSE, CSRMM wins by 1.98-4.33x; the same
ordering holds for scipy/MKL on representative sizes and sparsities.

This module is the Table-6 reproduction, on the operands the paper
measures (``benchmarks/bench_table6_sparse.py``); the solver does not
call it.  The production RGF kernel (:mod:`repro.negf.kernels.numpy_opt`)
applies the table's conclusion — sparse coupling, dense ``gR`` — by
contracting over the coupling block's observed support.
"""

from __future__ import annotations

from typing import Literal, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "three_matrix_product",
    "generate_rgf_operands",
    "METHODS",
]

METHODS = ("dense", "csrmm", "csrgemm")


def three_matrix_product(
    F: sp.csr_matrix,
    gR: np.ndarray,
    E: sp.csr_matrix,
    method: Literal["dense", "csrmm", "csrgemm"] = "csrmm",
) -> np.ndarray:
    """Compute ``F @ gR @ E`` with the chosen strategy."""
    if method == "dense":
        return np.asarray(F.todense()) @ gR @ np.asarray(E.todense())
    if method == "csrmm":
        tmp = F @ gR  # CSR x dense -> dense
        return tmp @ E  # dense x CSR (transposed CSRMM) -> dense
    if method == "csrgemm":
        gR_s = sp.csr_matrix(gR)
        out = F @ gR_s @ E
        return np.asarray(out.todense())
    raise ValueError(f"unknown method {method!r}")


def generate_rgf_operands(
    n: int = 768,
    block_density: float = 0.02,
    seed: int = 0,
) -> Tuple[sp.csr_matrix, np.ndarray, sp.csr_matrix]:
    """Representative operands: sparse Hamiltonian blocks, dense gR.

    ``block_density`` mirrors the DFT Hamiltonian fill of
    ``NB·Norb² / (block·Norb)²`` bonds per block (a few percent).
    """
    rng = np.random.default_rng(seed)
    F = sp.random(
        n, n, density=block_density, format="csr", random_state=rng,
        data_rvs=lambda k: rng.standard_normal(k),
    ).astype(np.complex128)
    F = F + 1j * sp.random(
        n, n, density=block_density, format="csr", random_state=rng,
        data_rvs=lambda k: rng.standard_normal(k),
    ).astype(np.complex128)
    E = sp.random(
        n, n, density=block_density, format="csr", random_state=rng,
        data_rvs=lambda k: rng.standard_normal(k),
    ).astype(np.complex128)
    E = E + 1j * sp.random(
        n, n, density=block_density, format="csr", random_state=rng,
        data_rvs=lambda k: rng.standard_normal(k),
    ).astype(np.complex128)
    gR = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return F.tocsr(), gR, E.tocsr()
