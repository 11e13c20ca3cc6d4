"""Open boundary conditions: surface Green's functions and lead self-energies.

OMEN computes open boundary conditions with a contour-integral/eigenvalue
solver; the textbook alternative is Sancho-Rubio decimation.  Both are
implemented here and cross-validated:

* :func:`sancho_rubio_batched` — iterative decimation for a stack of
  energies, robust default; :func:`sancho_rubio` is its batch-of-1 view;
* :func:`transfer_matrix_modes` — companion-linearized quadratic eigenvalue
  problem (the mode/contour approach): selects decaying/outgoing Bloch
  modes and assembles the surface GF, mirroring OMEN's boundary kernel.

The decimation runs on the chain of interface faces.  The coupling
``alpha = -(z S01 - H01)`` lives on its interface support ``r x c``
(:func:`~repro.negf.rgf.interface_support`, the RGF kernel's rule), so
the rest ``K`` of a cell couples only to its own face ``c`` and to the
next cell's.  Eliminating ``K`` once per energy (one ``|K|``-wide inverse)
leaves a uniform nearest-neighbour chain of faces, and every decimation
step factorizes and multiplies ``|c|``-wide blocks instead of the whole
``n``-wide cell (``|c| = n / slab_width`` on a generated device; the
whole cell at ``slab_width`` 1).  A lead self-energy reads the face only,
``Σ = τ[:, c] g[c, c] τ[:, c]†``; :func:`sancho_rubio_batched` closes the
whole cell's surface GF with one final ``n``-wide solve.
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
    adjoint for a left lead).  Returns ``[B, n, n]`` surface GFs: the
    face chain's ``g[c, c]`` (:func:`_face_decimation`) closes the cell in
    one solve, ``g = (M - α g[c, c] β on [r, r])^{-1}``.  A
    ``RuntimeError`` names the unconverged energies.
    """
    g_face, M, alpha, r, c = _face_decimation(
        z, H00, H01, S00, S01, eta, tol, max_iter
    )
    alpha = alpha[..., r, c]
    M[..., r, r] -= alpha @ g_face @ _H(alpha)
    return np.linalg.solve(M, np.broadcast_to(np.eye(M.shape[-1]), M.shape))


def _face_decimation(z, H00, H01, S00, S01, eta, tol=1e-12, max_iter=200):
    """The decimation on the chain of interface faces (see the module
    docstring) -> ``(g[c, c], M, α, r, c)``.  ``K`` is empty for a
    whole-block support (the loop on whole cells), ``c`` for a zero
    coupling."""
    n = H00.shape[0]
    S00 = np.eye(n) if S00 is None else S00
    S01 = np.zeros_like(H01) if S01 is None else S01
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    eta = np.broadcast_to(np.asarray(eta, dtype=float), z.shape)
    zc = (z + 1j * eta)[:, None, None]

    M = zc * S00 - H00  # on-site blocks [B, n, n]
    a = -(zc * S01 - H01)  # coupling to the next cell [B, n, n]
    r, c = interface_support(a)
    K = np.delete(np.arange(n), np.arange(n)[c])
    g_K = np.linalg.inv(M[:, K[:, None], K])
    McK, aKc = M[:, c, K], a[:, K, c]
    X, Y = g_K @ M[:, K, c], g_K @ aKc
    eps_s = M[:, c, c] - McK @ X  # surface face
    eps = eps_s - _H(aKc) @ Y  # bulk face
    alpha = a[:, c, c] - McK @ Y  # face -> next face
    beta = _H(a[:, c, c]) - _H(aKc) @ X  # face -> previous face

    eye = np.broadcast_to(np.eye(eps.shape[-1], dtype=np.complex128), eps.shape)
    norm = np.full(z.shape, np.inf)
    for _ in range(max_iter):
        g_bulk = np.linalg.solve(eps, eye)
        agb = alpha @ g_bulk @ beta
        eps_s -= agb
        eps -= agb
        eps -= beta @ g_bulk @ alpha
        alpha = alpha @ g_bulk @ alpha
        beta = beta @ g_bulk @ beta
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
    return np.linalg.solve(eps_s, eye), M, a, r, c


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
    """The whole cell's surface GF: Sancho-Rubio closes its face GF over
    the cell, the transfer-matrix method solves the whole cell anyway."""
    if method == "sancho-rubio":
        return sancho_rubio(z, H00, H01, S00, S01, eta)
    return _surface_gfs(np.array([z]), H00, H01, S00, S01, eta, method)[0][0]


def _surface_gfs(z, H00, H01, S00, S01, eta, method) -> Tuple[np.ndarray, slice]:
    """``([B, f, f] g, F)``: surface GFs of a stack of energies on the face
    ``F`` of the cell that the previous cell couples into — the one
    dispatch between the solvers.  Sancho-Rubio shares one face-chain
    recursion across the stack (the engine's hot path); the
    transfer-matrix method has no batched dense eigensolver and solves
    the whole cell point by point (``F`` the whole cell)."""
    eta = np.broadcast_to(np.asarray(eta, dtype=float), z.shape)
    if method == "sancho-rubio":
        g, *_, c = _face_decimation(z, H00, H01, S00, S01, eta)
        return g, c
    if method == "transfer-matrix":
        return np.stack([
            transfer_matrix_modes(zi, H00, H01, S00, S01, float(ei))
            for zi, ei in zip(z, eta)
        ]), slice(None)
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
        tau = _H(tau)
    g, F = _surface_gfs(z, H00, H01, S00, S01, eta, method)
    tau = tau[..., F]  # τ only reaches the chain's surface cell on F
    return tau @ g @ _H(tau)
