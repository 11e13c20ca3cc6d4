"""Factorization-reuse numpy kernel: the production RGF recursion.

Three structural inefficiencies of the reference recursion are removed
while producing the same diagonal blocks to ≤ 1e-10:

* **Invert once, reuse everywhere.**  The reference forms every
  left-connected inverse with ``np.linalg.solve(A, I)`` and then
  re-multiplies it into each downstream product.  Here each diagonal
  block is inverted once per solve with ``np.linalg.inv``, which is the
  same LAPACK call: numpy's ``inv`` *is* ``gesv`` against the identity
  (≈ 8/3 n³ flops), so forming the inverse costs what the reference's
  does.  The gain is that this one inverse is reused across the forward
  *and* backward passes through shared intermediates, plus the thin
  coupling products below.

* **Shared backward intermediates.**  With ``P = gᴿ V``, ``W = P Gᴿ₊``
  and ``X = W V†`` the four backward updates collapse to

  ===========  ==================================  =====
  quantity     expression                          gemms
  ===========  ==================================  =====
  ``Gᴿ``       ``gᴿ + X gᴿ``                       4
  ``t1``       ``(P G<₊) P†``                      2
  ``t2``       ``X g<``                            1
  ``t3``       ``(X (g<)†)†``                      1
  ===========  ==================================  =====

  8 gemms per block instead of the reference's 16 (each ``t`` term and
  the ``Gᴿ`` update are written as independent 4-gemm chains there).

* **Coupling products over the observed support.**  Only the bonds
  crossing a slab interface populate ``V = M[n,n+1]`` (paper §5.1.2:
  the inter-slab blocks are sparse, ``gᴿ`` is dense — multiply sparse x
  dense and keep ``gᴿ`` dense): on a generated device ``V`` is nonzero
  on (last layer of slab n) x (first layer of slab n+1), ``1/slab_width``
  of each dimension.  :class:`Coupling` reads the row/column ranges
  ``r x c`` that bound the nonzeros off each block
  (:func:`~repro.negf.rgf.interface_support`), keeps the dense
  sub-block ``V[r, c]``, and every product of the recursion contracts
  over the support instead of the block:

  ==========  ==================================  ==============
  quantity    expression                          flops ~
  ==========  ==================================  ==============
  fold        ``V† g[r,r] V`` into ``[c,c]``      ``s³``
  ``P``       ``gᴿ[:,r] V``                       ``n·s²``
  ``X``       ``P Gᴿ₊[c,c] V†``                   ``n·s²``
  ``Gᴿ``      ``gᴿ + X gᴿ[r,:]``                  ``n²·s``
  ``t1..t3``  as above on the thin ``P``, ``X``   ``n²·s`` each
  ==========  ==================================  ==============

  (``n`` the block width, ``s`` the support width.)

  The one rule: when a range covers more than half of its dimension,
  the support *is* the whole block (``r = c = :``) and the same
  statements run on whole-block views — which are the dense formulas
  above.  The lead decimation (:mod:`repro.negf.boundary`) reads the
  same rule's column range as the face it decimates on.

Matmul workspaces are preallocated per (role, shape) and reused across
the recursion steps, and ω-independent 2-D coupling blocks stay 2-D so
their products broadcast (one ``V†`` conjugation per block, not per
batch element).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..rgf import _H, interface_support
from . import RGFKernel

__all__ = ["NumpyKernel", "Coupling"]


class Coupling:
    """One super-diagonal block ``V = M[n,n+1]`` on its observed support.

    ``r``/``c`` are the :func:`~repro.negf.rgf.interface_support`
    slices of ``V``; ``rr``/``cc`` select the square
    ``[..., r, r]``/``[..., c, c]`` sub-blocks of a stacked operand.
    ``V`` and ``Vh`` hold ``V[r, c]`` and its conjugate transpose (2-D
    couplings stay 2-D and broadcast across the batch).
    """

    def __init__(self, V: np.ndarray):
        self.r, self.c = interface_support(V)
        self.rr = (..., self.r, self.r)
        self.cc = (..., self.c, self.c)
        self.V = np.ascontiguousarray(V[..., self.r, self.c])
        self.Vh = np.ascontiguousarray(_H(self.V))

    def fold(self, g: np.ndarray) -> np.ndarray:
        """The nonzero ``[c, c]`` sub-block of ``V† g V``."""
        return self.Vh @ g[self.rr] @ self.V


class NumpyKernel(RGFKernel):
    """The production recursion (see module docstring)."""

    name = "numpy"

    # -- factorization --------------------------------------------------------
    @staticmethod
    def _factorize(a: np.ndarray) -> np.ndarray:
        """One batched inverse per block (``gesv`` against the identity,
        as numpy's ``inv`` is); both passes multiply against it."""
        return np.linalg.inv(a)

    # -- the recursions -------------------------------------------------------
    def _solve(
        self,
        diag: List[np.ndarray],
        upper: List[np.ndarray],
        sigma_lesser: Optional[Sequence[np.ndarray]],
    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        N = len(diag)
        want_lesser = sigma_lesser is not None
        V = [Coupling(u) for u in upper]

        # Preallocated matmul workspaces, keyed by (role, shape).  Each
        # role's buffer is fully consumed before the role recurs, so one
        # buffer per (role, shape) is safe across all recursion steps.
        ws: Dict[Tuple, np.ndarray] = {}

        def mm(role: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
            shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (
                a.shape[-2],
                b.shape[-1],
            )
            key = (role, shape)
            buf = ws.get(key)
            if buf is None:
                buf = ws[key] = np.empty(shape, dtype=np.complex128)
            return np.matmul(a, b, out=buf)

        # Forward pass: left-connected Green's functions.  The folded
        # coupling term touches only the [c, c] sub-block of block n.
        gR: List[np.ndarray] = [self._factorize(diag[0])]
        gl: List[np.ndarray] = []
        if want_lesser:
            gl.append(mm("gS", gR[0], sigma_lesser[0]) @ _H(gR[0]))
        for n in range(1, N):
            c = V[n - 1]
            A = diag[n].copy()
            A[c.cc] -= c.fold(gR[n - 1])
            gR.append(self._factorize(A))
            if want_lesser:
                S = sigma_lesser[n].copy()
                S[c.cc] += c.fold(gl[n - 1])
                gl.append(mm("gS", gR[n], S) @ _H(gR[n]))

        # Backward pass: fully-connected diagonal blocks through the
        # shared intermediates P = gᴿV (column support c) and
        # X = P Gᴿ₊ V† (column support r), both kept thin.
        GR: List[Optional[np.ndarray]] = [None] * N
        Gl: List[Optional[np.ndarray]] = [None] * N
        GR[N - 1] = gR[N - 1]
        if want_lesser:
            Gl[N - 1] = gl[N - 1]
        for n in range(N - 2, -1, -1):
            c = V[n]
            gRn = gR[n]
            P = gRn[..., c.r] @ c.V
            X = mm("X", mm("W", P, GR[n + 1][c.cc]), c.Vh)
            GR[n] = gRn + mm("XG", X, gRn[..., c.r, :])
            if want_lesser:
                gln = gl[n]
                t1 = mm("t1", mm("PG", P, Gl[n + 1][c.cc]), _H(P))
                t2 = mm("t2", X, gln[..., c.r, :])
                t3 = _H(mm("t3", X, _H(gln[..., c.r])))
                Gl[n] = gln + t1 + t2 + t3

        return list(GR), (list(Gl) if want_lesser else [])
