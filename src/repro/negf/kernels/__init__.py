"""Pluggable RGF solver kernels: the hot path behind every engine tier.

Every Born iteration spends its time in the RGF forward/backward
recursions of :mod:`repro.negf.rgf` and in the batched boundary
decimation of :mod:`repro.negf.boundary`.  This package makes that hot
path a pluggable *kernel* — the unit that the engine, the distributed
runtime, and the scheduler all amortize (the extreme-scale follow-up of
the paper treats the RGF kernel exactly this way):

``reference``
    The seed recursion, verbatim: per-block inverses via
    ``np.linalg.solve(A, I)``.  The bit-exactness oracle —
    :func:`repro.negf.rgf.rgf_solve` is a batch-of-1 view of it.
``numpy``
    Factorizes each diagonal block once (one batched ``getrf`` +
    ``getri`` per block instead of a fresh ``gesv`` against the identity)
    and reuses the explicit factor product across the forward *and*
    backward passes through shared intermediates, with preallocated
    matmul workspaces and ω-independent 2-D coupling blocks kept
    broadcast.  The built-in default.
``csrmm``
    The ``numpy`` kernel plus sparsity detection on the coupling blocks:
    sparse ``V† g V`` foldings run through the paper's §5.1.2 / Table 6
    :func:`repro.negf.sparse_kernels.three_matrix_product` strategies
    (CSRMM keeps ``gR`` dense throughout — the Table-6 winner).
``numba``
    JIT-compiles the batched recursion over a ``prange`` batch loop.
    Registered only when numba is importable; requesting it otherwise
    raises with a clear message (no hard dependency).

Kernel selection is an argument: ``SCBASettings.rgf_kernel`` (default
``numpy``) or ``compile_workload(rgf_kernel=...)`` (default: the planner's
sparsity heuristic).  Every registered kernel is validated against the
serial oracle to ≤ 1e-10 in ``tests/test_kernels.py``;
``benchmarks/bench_rgf_kernels.py`` records the Table-6 ordering inside
the solver and the end-to-end SCBA speedup in ``BENCH_rgf.json``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...config import RGF_KERNELS
from ..rgf import BatchedRGFResult, _H

__all__ = [
    "RGFKernel",
    "KernelError",
    "RGF_KERNELS",
    "available_kernels",
    "get_kernel",
    "register_kernel",
]


class KernelError(ValueError):
    """An RGF kernel cannot be constructed or selected."""


class RGFKernel:
    """One strategy for the batched block-tridiagonal RGF recursion.

    Subclasses implement :meth:`_solve` (the recursions proper) and set
    :attr:`name`; shape validation and the ``G> = G< + Gᴿ - Gᴬ``
    bookkeeping are shared here so all kernels accept exactly the same
    systems and report errors identically.

    :meth:`invert` is the second seam: the batched boundary decimation
    (:func:`repro.negf.boundary.sancho_rubio_batched`) routes its stacked
    inverses through it.  The base implementation keeps the seed's
    ``solve(A, I)`` — each decimation inverse is consumed once, so there
    is no factor reuse to exploit there — but custom kernels (e.g. an
    accelerator offload) can override it.
    """

    name: str = "base"

    # -- public API -----------------------------------------------------------
    def solve(
        self,
        diag: Sequence[np.ndarray],
        upper: Sequence[np.ndarray],
        sigma_lesser: Optional[Sequence[np.ndarray]] = None,
    ) -> BatchedRGFResult:
        """Run the RGF recursions over one stack of systems."""
        want_lesser = sigma_lesser is not None
        self._validate(diag, upper, sigma_lesser)
        GR, Gl = self._solve(list(diag), list(upper), sigma_lesser)
        if not want_lesser:
            return BatchedRGFResult(GR=GR, Gl=[], Gg=[])
        # G> - G< = GR - GA  (fluctuation-dissipation bookkeeping identity).
        Gg = [Gl[n] + GR[n] - _H(GR[n]) for n in range(len(GR))]
        return BatchedRGFResult(GR=GR, Gl=Gl, Gg=Gg)

    def invert(self, a: np.ndarray) -> np.ndarray:
        """Stacked inverse ``a^{-1}`` of ``[..., n, n]`` systems."""
        a = np.asarray(a)
        eye = np.broadcast_to(np.eye(a.shape[-1], dtype=np.complex128), a.shape)
        return np.linalg.solve(a, eye)

    # -- subclass hooks -------------------------------------------------------
    def _solve(
        self,
        diag: List[np.ndarray],
        upper: List[np.ndarray],
        sigma_lesser: Optional[Sequence[np.ndarray]],
    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Return the ``(GR, Gl)`` diagonal-block lists (``Gl`` empty when
        ``sigma_lesser`` is None)."""
        raise NotImplementedError

    # -- shared validation ----------------------------------------------------
    @staticmethod
    def _validate(diag, upper, sigma_lesser) -> None:
        N = len(diag)
        if len(upper) != N - 1:
            raise ValueError(f"expected {N - 1} upper blocks, got {len(upper)}")
        B = diag[0].shape[0]
        for i, d in enumerate(diag):
            if d.ndim != 3 or d.shape[0] != B or d.shape[-1] != d.shape[-2]:
                raise ValueError(
                    f"diag[{i}] must be [batch={B}, n, n], got {d.shape}"
                )
        if sigma_lesser is not None:
            if len(sigma_lesser) != N:
                raise ValueError(
                    "sigma_lesser must have one block per diagonal block"
                )
            for i, sl in enumerate(sigma_lesser):
                if sl.shape != diag[i].shape:
                    raise ValueError(
                        f"sigma_lesser[{i}] shape {sl.shape} != "
                        f"diag shape {diag[i].shape}"
                    )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


_REGISTRY: Dict[str, Callable[[], RGFKernel]] = {}


def register_kernel(name: str, factory: Callable[[], RGFKernel]) -> None:
    """Register a kernel factory under ``name`` (last wins)."""
    _REGISTRY[name] = factory


def available_kernels() -> Tuple[str, ...]:
    """Names of all currently registered kernels (built-in + custom).

    ``numba`` appears only when the numba package is importable.
    """
    return tuple(_REGISTRY)


def get_kernel(name: Optional[str] = None) -> RGFKernel:
    """Instantiate a kernel by name (``None`` → ``"numpy"``)."""
    if isinstance(name, RGFKernel):
        return name
    if name is None:
        name = "numpy"
    if name not in _REGISTRY:
        hint = (
            " (the numba kernel requires the optional numba package, "
            "which is not installed)"
            if name == "numba" and name in RGF_KERNELS
            else ""
        )
        raise KernelError(
            f"unknown RGF kernel {name!r}; expected one of "
            f"{available_kernels()}{hint}"
        )
    return _REGISTRY[name]()


from .reference import ReferenceKernel  # noqa: E402
from .numpy_opt import NumpyKernel  # noqa: E402
from .csrmm import CsrmmKernel  # noqa: E402
from .compiled import HAVE_NUMBA, NumbaKernel  # noqa: E402

register_kernel("reference", ReferenceKernel)
register_kernel("numpy", NumpyKernel)
register_kernel("csrmm", CsrmmKernel)
if HAVE_NUMBA:
    register_kernel("numba", NumbaKernel)
