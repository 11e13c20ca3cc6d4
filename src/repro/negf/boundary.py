"""Open boundary conditions: surface Green's functions and lead self-energies.

OMEN computes open boundary conditions with a contour-integral/eigenvalue
solver; the textbook alternative is Sancho-Rubio decimation.  Both are
implemented here and cross-validated:

* :func:`sancho_rubio_batched` — iterative decimation for a stack of
  energies, robust default; :func:`sancho_rubio` is its batch-of-1 view;
* :func:`transfer_matrix_modes` — companion-linearized quadratic eigenvalue
  problem (the mode/contour approach): selects decaying/outgoing Bloch
  modes and assembles the surface GF, mirroring OMEN's boundary kernel.

The decimation runs on the coupling's interface support ``r x c``
(:func:`~repro.negf.rgf.interface_support`, the RGF kernel's rule):
``alpha = -(z S01 - H01)`` lives on ``r x c``, ``beta``
on ``c x r``, and each update keeps its support — ``αgβ`` on ``[r, r]``
reads ``g[c, c]``, ``βgα`` on ``[c, c]`` reads ``g[r, r]``, ``αgα`` reads
``g[c, r]``, ``βgβ`` reads ``g[r, c]`` — so a step's eight GEMMs do
``4·|r|·|c|·(|r|+|c|)`` multiply-adds instead of ``8·n³`` (``n³`` at
``slab_width`` 2); only the inverse of the bulk block stays ``n x n``.
The scalar solvers are batch-of-1 views of the batched ones, and must
be: near a band edge at small η the decimation amplifies a ~1e-16
change of summation order into ~1e-10 relative in Σ, so the serial and
batched engines meet their 1e-10 contract only by issuing the same GEMMs.

For electrons the lead blocks derive from ``E·S - H``; for phonons from
``ω² I - Φ`` (pass ``z = (ω + iη)²`` and the dynamical-matrix blocks).
"""

from __future__ import annotations

from typing import Literal, Tuple

import numpy as np
import scipy.linalg as sla

from .rgf import _H, interface_support

__all__ = [
    "sancho_rubio",
    "sancho_rubio_batched",
    "transfer_matrix_modes",
    "surface_greens_function",
    "lead_self_energy",
    "lead_self_energy_batched",
]


def sancho_rubio(
    z: complex,
    H00: np.ndarray,
    H01: np.ndarray,
    S00: np.ndarray | None = None,
    S01: np.ndarray | None = None,
    eta: float = 1e-6,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> np.ndarray:
    """Surface Green's function by Sancho-Rubio decimation.

    Solves ``g = (z S00 - H00 - (z S01 - H01) g (z S01 - H01)†)^{-1}``
    for the semi-infinite lead, doubling the decimated cell each step
    (quadratic convergence).  A batch-of-1 view of
    :func:`sancho_rubio_batched`.
    """
    return sancho_rubio_batched(
        np.array([z]), H00, H01, S00, S01, eta, tol, max_iter
    )[0]


def sancho_rubio_batched(
    z: np.ndarray,
    H00: np.ndarray,
    H01: np.ndarray,
    S00: np.ndarray | None = None,
    S01: np.ndarray | None = None,
    eta: float | np.ndarray = 1e-6,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> np.ndarray:
    """Sancho-Rubio decimation for a whole stack of energies at once.

    ``z`` is a 1-D array of ``B`` energies (``eta`` may be a matching
    array, e.g. the frequency-dependent phonon broadening); one decimation
    recursion runs for the entire stack and iterates until *every* entry
    converges.  Post-convergence updates shrink quadratically (the
    coupling norm is already < ``tol``), so each entry agrees with its
    own batch-of-1 solve to far better than the 1e-10 engine equivalence
    tolerance.  The support is read off the coupling passed in (the
    adjoint for a left lead).  Returns ``[B, n, n]`` surface GFs; a
    ``RuntimeError`` names the unconverged energies.
    """
    n = H00.shape[0]
    S00 = np.eye(n) if S00 is None else S00
    S01 = np.zeros_like(H01) if S01 is None else S01
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    eta = np.broadcast_to(np.asarray(eta, dtype=float), z.shape)
    zc = (z + 1j * eta)[:, None, None]

    eps_s = zc * S00 - H00  # surface blocks [B, n, n]
    eps = eps_s.copy()  # bulk blocks
    alpha = -(zc * S01 - H01)  # coupling to the next cell
    r, c = interface_support(alpha)
    rr, cc, rc, cr = (..., r, r), (..., c, c), (..., r, c), (..., c, r)
    alpha = alpha[rc]  # [B, |r|, |c|]
    beta = _H(alpha)  # [B, |c|, |r|]

    eye = np.broadcast_to(np.eye(n, dtype=np.complex128), eps.shape)
    norm = np.full(z.shape, np.inf)
    for _ in range(max_iter):
        g_bulk = np.linalg.solve(eps, eye)
        agb = alpha @ g_bulk[cc] @ beta
        bga = beta @ g_bulk[rr] @ alpha
        eps_s[rr] -= agb
        eps[rr] -= agb
        eps[cc] -= bga
        alpha = alpha @ g_bulk[cr] @ alpha
        beta = beta @ g_bulk[rc] @ beta
        norm = np.maximum(*(np.linalg.norm(m, axis=(1, 2)) for m in (alpha, beta)))
        if (norm < tol).all():
            break
    else:
        bad = np.flatnonzero(~(norm < tol))
        raise RuntimeError(
            f"Sancho-Rubio decimation did not converge in max_iter={max_iter} "
            f"steps: {bad.size} of {z.size} energies unconverged, first at "
            f"z={z[bad[0]]:.6g} (eta={eta[bad[0]]:.3g}); largest remaining "
            f"coupling norm {norm.max():.3e} (tol {tol:.1e})"
        )
    return np.linalg.solve(eps_s, eye)


def transfer_matrix_modes(
    z: complex,
    H00: np.ndarray,
    H01: np.ndarray,
    S00: np.ndarray | None = None,
    S01: np.ndarray | None = None,
    eta: float = 1e-6,
) -> np.ndarray:
    """Surface Green's function from the Bloch-mode eigenproblem.

    The lead satisfies ``(A λ² + B λ + A†) ψ = 0`` with
    ``A = z S01 - H01`` and ``B = z S00 - H00`` per period.  Companion
    linearization yields 2n generalized eigenpairs; the n modes with
    |λ| < 1 (decaying into the lead) build the surface Green's function
    ``g = (B + A Φ Λ Φ^{-1})^{-1}`` — the eigen/contour strategy used for
    OMEN's boundary conditions.
    """
    n = H00.shape[0]
    S00 = np.eye(n) if S00 is None else S00
    S01 = np.zeros_like(H01) if S01 is None else S01
    zc = z + 1j * eta

    B = zc * S00 - H00
    C = zc * S01 - H01  # inter-cell block M_{n,n+1}

    # Bulk Bloch equation C†φ + Bλφ + Cλ²φ = 0, linearized as
    # [ -B  -C† ; I  0 ] v = λ [ C  0 ; 0  I ] v  with  v = (λφ, φ).
    zero = np.zeros((n, n), dtype=np.complex128)
    eye = np.eye(n, dtype=np.complex128)
    lhs = np.block([[-B, -C.conj().T], [eye, zero]])
    rhs = np.block([[C, zero], [zero, eye]])
    lam, vec = sla.eig(lhs, rhs)

    finite = np.isfinite(lam)
    lam, vec = lam[finite], vec[:, finite]
    order = np.argsort(np.abs(lam))
    lam, vec = lam[order], vec[:, order]
    # Decaying (and evanescent) modes: |λ| < 1 (η pushes propagating modes
    # slightly inside the unit circle for retarded boundary conditions).
    sel = np.abs(lam) < 1.0
    if sel.sum() < n:  # pragma: no cover - safeguard for degenerate cases
        sel = np.zeros_like(sel)
        sel[:n] = True
    lam_d = lam[sel][:n]
    phi = vec[n:, sel][:, :n]  # bottom half carries φ

    # ψ_{m+1} = F ψ_m for the decaying solution: g = (B + C F)^{-1}.
    F = phi @ np.diag(lam_d) @ np.linalg.pinv(phi)
    return np.linalg.solve(B + C @ F, np.eye(n))


def surface_greens_function(
    z: complex,
    H00: np.ndarray,
    H01: np.ndarray,
    S00: np.ndarray | None = None,
    S01: np.ndarray | None = None,
    eta: float = 1e-6,
    method: Literal["sancho-rubio", "transfer-matrix"] = "sancho-rubio",
) -> np.ndarray:
    """Dispatch between the two boundary solvers: a batch-of-1 view of
    :func:`_surface_gfs`."""
    return _surface_gfs(np.array([z]), H00, H01, S00, S01, eta, method)[0]


def _surface_gfs(z, H00, H01, S00, S01, eta, method) -> np.ndarray:
    """``[B, n, n]`` surface GFs of a stack of energies — the one dispatch
    between the solvers.  Sancho-Rubio shares one decimation recursion
    across the stack (the engine's hot path); the transfer-matrix method
    has no batched dense eigensolver and solves point by point."""
    eta = np.broadcast_to(np.asarray(eta, dtype=float), z.shape)
    if method == "sancho-rubio":
        return sancho_rubio_batched(z, H00, H01, S00, S01, eta=eta)
    if method == "transfer-matrix":
        return np.stack([
            transfer_matrix_modes(zi, H00, H01, S00, S01, float(ei))
            for zi, ei in zip(z, eta)
        ])
    raise ValueError(f"unknown boundary method {method!r}")


def lead_self_energy(
    z: complex,
    H00: np.ndarray,
    H01: np.ndarray,
    side: Literal["left", "right"],
    S00: np.ndarray | None = None,
    S01: np.ndarray | None = None,
    eta: float = 1e-6,
    method: Literal["sancho-rubio", "transfer-matrix"] = "sancho-rubio",
) -> np.ndarray:
    """Retarded boundary self-energy of a semi-infinite lead.

    With ``τ = z S01 - H01`` the bulk inter-cell block (pointing towards
    +x), the right lead gives ``Σ_R = τ g_R τ†`` with ``g_R`` the surface
    GF of the +x-extending chain; the left lead is the mirror image:
    ``Σ_L = τ† g_L τ`` with ``g_L`` from the chain built on ``τ†``.  A
    batch-of-1 view of :func:`lead_self_energy_batched`.
    """
    return lead_self_energy_batched(
        np.array([z]), H00, H01, side, S00, S01, eta, method
    )[0]


def lead_self_energy_batched(
    z: np.ndarray,
    H00: np.ndarray,
    H01: np.ndarray,
    side: Literal["left", "right"],
    S00: np.ndarray | None = None,
    S01: np.ndarray | None = None,
    eta: float | np.ndarray = 1e-6,
    method: Literal["sancho-rubio", "transfer-matrix"] = "sancho-rubio",
) -> np.ndarray:
    """Stacked retarded lead self-energies for a batch of energies.

    The Sancho-Rubio path shares one decimation recursion across the whole
    stack (the engine's hot path); the transfer-matrix method solves point
    by point (both via :func:`_surface_gfs`).  Returns ``[B, n, n]`` with
    the conventions of :func:`lead_self_energy`.
    """
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    eta = np.broadcast_to(np.asarray(eta, dtype=float), z.shape)
    S01_eff = np.zeros_like(H01) if S01 is None else S01
    tau = (z + 1j * eta)[:, None, None] * S01_eff - H01
    if side == "left":  # the chain built on τ†
        H01, S01 = H01.conj().T, None if S01 is None else S01.conj().T
    g = _surface_gfs(z, H00, H01, S00, S01, eta, method)
    return tau @ g @ _H(tau) if side == "right" else _H(tau) @ g @ tau
