"""RGF solver kernels: the oracle and the one production recursion.

Every Born iteration spends its time in the RGF forward/backward
recursions behind :func:`repro.negf.rgf.rgf_solve_batched`.  That hot
path is one *kernel* — the unit that the engine and the distributed
runtime both amortize (the extreme-scale follow-up of the paper
treats RGF exactly this way: one tuned kernel):

``reference``
    The seed recursion, verbatim: per-block inverses via
    ``np.linalg.solve(A, I)``, every coupling product a dense chained
    matmul.  The bit-exactness oracle —
    :func:`repro.negf.rgf.rgf_solve` is a batch-of-1 view of it, and
    :class:`repro.negf.engine.SerialEngine` is pinned to it.
``numpy``
    The production kernel and the default.  Factorizes each diagonal
    block once (one batched ``getrf`` + ``getri`` instead of a fresh
    ``gesv`` against the identity), shares the backward intermediates,
    and contracts every coupling product over the block's *observed*
    nonzero support — the paper's §5.1.2 / Table 6 point (sparse
    inter-slab blocks, ``gᴿ`` kept dense) read off the operands
    themselves; see :mod:`repro.negf.kernels.numpy_opt`.

The name is an argument: ``SCBASettings.rgf_kernel`` or
``compile_workload(rgf_kernel=...)``, both defaulting to ``numpy``; it
exists so a run can be repeated on the oracle.  ``numpy`` is validated
against ``reference`` and the dense ground truth to ≤ 1e-10 in
``tests/test_kernels.py``; ``benchmarks/bench_rgf_kernels.py`` records
the end-to-end SCBA speedup in ``BENCH_rgf.json``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...config import RGF_KERNELS
from ..rgf import BatchedRGFResult, _H

__all__ = [
    "RGFKernel",
    "KernelError",
    "RGF_KERNELS",
    "get_kernel",
]


class KernelError(ValueError):
    """An RGF kernel cannot be constructed or selected."""


class RGFKernel:
    """One strategy for the batched block-tridiagonal RGF recursion.

    Subclasses implement :meth:`_solve` (the recursions proper) and set
    :attr:`name`; shape validation and the ``G> = G< + Gᴿ - Gᴬ``
    bookkeeping are shared here so all kernels accept exactly the same
    systems and report errors identically.
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


from .reference import ReferenceKernel  # noqa: E402
from .numpy_opt import NumpyKernel  # noqa: E402

_KERNELS = {"reference": ReferenceKernel, "numpy": NumpyKernel}


def get_kernel(name: Optional[str] = None) -> RGFKernel:
    """Instantiate a kernel by name (``None`` → ``"numpy"``); an
    :class:`RGFKernel` instance passes through."""
    if isinstance(name, RGFKernel):
        return name
    try:
        return _KERNELS["numpy" if name is None else name]()
    except KeyError:
        raise KernelError(
            f"unknown RGF kernel {name!r}; expected one of {RGF_KERNELS}"
        ) from None
