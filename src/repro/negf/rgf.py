"""Recursive Green's Function (RGF) solver (paper §2, Svizhenko et al.).

Solves ``M · Gᴿ = I`` and ``G≷ = Gᴿ Σ≷ Gᴬ`` for block-tridiagonal
``M = E·S - H - Σᴿ`` (electrons) or ``M = ω²I - Φ - Πᴿ`` (phonons) in
O(bnum · block³) instead of dense O((bnum·block)³), via one forward
(left-connected) and one backward recursion.

Only the diagonal blocks of Gᴿ/G≷ are produced — exactly what the SSE
phase consumes (§2: "only the diagonal blocks of Σ are retained").  The
solver is validated against dense ``inv``/triple-product references in
``tests/test_rgf.py``.

Conventions: the sub-diagonal blocks are ``M_{n+1,n} = (M_{n,n+1})†``,
which holds for real energies since the retarded self-energies only touch
the diagonal blocks.

The recursion bodies themselves live in :mod:`repro.negf.kernels`:
:func:`rgf_solve_batched` runs the production ``numpy`` kernel (or the
``reference`` oracle, by name) and :func:`rgf_solve` is a batch-of-1
view of the reference kernel, so the serial oracle and the batched
reference can never drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "RGFResult",
    "BatchedRGFResult",
    "rgf_solve",
    "rgf_solve_batched",
    "dense_reference",
    "block_offsets",
]


def _H(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the trailing two axes (batched A†)."""
    return np.conj(np.swapaxes(a, -1, -2))


def interface_support(V: np.ndarray) -> tuple:
    """Row/column ranges ``(r, c)`` of a coupling block ``V[..., n, m]``:
    the bounding range of the rows (columns) where ``V`` is nonzero
    anywhere in the batch, ``slice(0, 0)`` for an all-zero block.  When
    either range covers more than half of its dimension the support is
    the whole block (``slice(None)``).  The one rule of the RGF kernel's
    coupling products and the lead decimation: sub-blocks are views, and
    rows/columns inside a range that ``V`` does not touch hold exact
    zeros, so contracting over the range is exact."""
    n, m = V.shape[-2:]
    nonzero = (V != 0).reshape(-1, n, m).any(axis=0)
    r, c = (np.flatnonzero(nonzero.any(axis=a)) for a in (1, 0))
    r, c = (
        slice(int(i[0]), int(i[-1]) + 1) if i.size else slice(0, 0)
        for i in (r, c)
    )
    if 2 * (r.stop - r.start) > n or 2 * (c.stop - c.start) > m:
        return slice(None), slice(None)
    return r, c


@dataclass
class RGFResult:
    """Diagonal blocks of the retarded/lesser/greater Green's functions."""

    GR: List[np.ndarray]
    Gl: List[np.ndarray]
    Gg: List[np.ndarray]

    @property
    def bnum(self) -> int:
        return len(self.GR)


def block_offsets(blocks: Sequence[np.ndarray]) -> np.ndarray:
    sizes = [b.shape[0] for b in blocks]
    return np.concatenate(([0], np.cumsum(sizes)))


def rgf_solve(
    diag: Sequence[np.ndarray],
    upper: Sequence[np.ndarray],
    sigma_lesser: Optional[Sequence[np.ndarray]] = None,
) -> RGFResult:
    """Forward/backward RGF over the block-tridiagonal system.

    Parameters
    ----------
    diag:
        ``bnum`` diagonal blocks of ``M`` (boundary and scattering
        self-energies already subtracted).
    upper:
        ``bnum - 1`` super-diagonal blocks ``M_{n,n+1}``.
    sigma_lesser:
        Diagonal blocks of ``Σ<`` (boundary injection + scattering).
        When omitted, only ``Gᴿ`` is computed (``Gl``/``Gg`` empty).

    Implemented as a batch-of-1 view of the *reference* kernel — the
    stacked ``linalg.solve``/``@`` calls on ``[1, n, n]`` operands run
    the same per-slice LAPACK/BLAS routines as their 2-D forms, so this
    is bit-identical to the historical serial recursion.
    """
    N = len(diag)
    if len(upper) != N - 1:
        raise ValueError(f"expected {N - 1} upper blocks, got {len(upper)}")
    want_lesser = sigma_lesser is not None
    if want_lesser and len(sigma_lesser) != N:
        raise ValueError("sigma_lesser must have one block per diagonal block")

    res = rgf_solve_batched(
        [np.asarray(d)[None] for d in diag],
        [np.asarray(u)[None] for u in upper],
        [np.asarray(s)[None] for s in sigma_lesser] if want_lesser else None,
        kernel="reference",
    )
    return res.point(0)


@dataclass
class BatchedRGFResult:
    """Diagonal GF blocks of a stack of block-tridiagonal systems.

    Each entry of ``GR``/``Gl``/``Gg`` is a ``[batch, ni, ni]`` tensor:
    the i-th diagonal block for every system in the batch.
    """

    GR: List[np.ndarray]
    Gl: List[np.ndarray]
    Gg: List[np.ndarray]

    @property
    def bnum(self) -> int:
        return len(self.GR)

    @property
    def batch(self) -> int:
        return self.GR[0].shape[0]

    def point(self, b: int) -> RGFResult:
        """The per-system view of batch element ``b``."""
        return RGFResult(
            GR=[g[b] for g in self.GR],
            Gl=[g[b] for g in self.Gl],
            Gg=[g[b] for g in self.Gg],
        )


def rgf_solve_batched(
    diag: Sequence[np.ndarray],
    upper: Sequence[np.ndarray],
    sigma_lesser: Optional[Sequence[np.ndarray]] = None,
    kernel=None,
) -> BatchedRGFResult:
    """RGF over a stack of block-tridiagonal systems at once.

    The batched twin of :func:`rgf_solve`: identical recursions, but every
    block is a ``[batch, ni, nj]`` tensor and the per-block solves and
    products run through NumPy's broadcasted ``linalg.solve``/``@`` —
    one LAPACK/BLAS call per *block index* instead of per grid point.
    This is the paper's observation that the (kz, E) sweep is data
    parallel, applied at the solver level.

    Parameters
    ----------
    diag:
        ``bnum`` stacked diagonal blocks ``[batch, ni, ni]`` of ``M``.
    upper:
        ``bnum - 1`` stacked super-diagonal blocks ``[batch, ni, n_{i+1}]``.
        2-D ``[ni, n_{i+1}]`` entries are allowed and broadcast across the
        batch (e.g. the ω-independent phonon coupling blocks).
    sigma_lesser:
        Stacked diagonal ``Σ<`` blocks ``[batch, ni, ni]``; when omitted
        only ``Gᴿ`` is computed.
    kernel:
        Kernel name (``repro.config.RGF_KERNELS``), an
        :class:`repro.negf.kernels.RGFKernel` instance, or ``None`` for
        the default (``"numpy"``).
    """
    from .kernels import get_kernel

    return get_kernel(kernel).solve(diag, upper, sigma_lesser)


def dense_reference(
    diag: Sequence[np.ndarray],
    upper: Sequence[np.ndarray],
    sigma_lesser: Optional[Sequence[np.ndarray]] = None,
):
    """Dense ``inv(M)`` / ``Gᴿ Σ< Gᴬ`` ground truth for validation."""
    offs = block_offsets(diag)
    n = offs[-1]
    M = np.zeros((n, n), dtype=np.complex128)
    for i, b in enumerate(diag):
        M[offs[i] : offs[i + 1], offs[i] : offs[i + 1]] = b
    for i, u in enumerate(upper):
        M[offs[i] : offs[i + 1], offs[i + 1] : offs[i + 2]] = u
        M[offs[i + 1] : offs[i + 2], offs[i] : offs[i + 1]] = u.conj().T
    GR = np.linalg.inv(M)
    if sigma_lesser is None:
        return GR, None
    S = np.zeros_like(M)
    for i, b in enumerate(sigma_lesser):
        S[offs[i] : offs[i + 1], offs[i] : offs[i + 1]] = b
    Gl = GR @ S @ GR.conj().T
    return GR, Gl
