"""Scattering self-energies (paper Eqs. 3-5) — the SSE phase.

One tile kernel, written once.  The Σ≷/Π≷ mathematics lives in four
contraction primitives (:func:`hd_tensor`, :func:`grad_h_g`,
:func:`sigma_round`, :func:`pi_round`), the open energy axis in one
function (:func:`shifted_rows`), and the ``(qz, ω)`` loop of the
transformed algorithm of §4.2 — ``∇H·G`` computed once, reused by every
round — in :func:`sigma_tile`/:func:`pi_tile`, which run on any energy
tile of a halo window.  The §4.1 ``TE x TA`` tiles of
:mod:`repro.parallel.schedules` call exactly these functions on their
sub-domain; the schedules and the runtime contract no tensor themselves.

Every contraction is a batched-strided GEMM (``np.matmul``) on operands
laid out for it — the Fig. 10-12 result: the transformed kernel is not
only "∇H·G once" but a GEMM in the right layout.  ``∇H·G`` is held
atom-major with the contraction axes adjacent,
``gh[a, (b,i,orb), kz, E, orb]``; per evaluation (grid symbols; ``E`` the
rows of the energy window):

=========================  =======  ============  =============  ==============
GEMM                       batch    M             K              N
=========================  =======  ============  =============  ==============
``∇H·G`` (once)            NA*NB    N3D*Norb      Norb           Nkz*E*Norb
Σ≷, per qz (ω folded)      NA       Nw*Norb       NB*N3D*Norb    Nkz*E*Norb
Π≷ G-G, per qz (ω folded)  NA       Nw*Norb**2    Nkz*E          NB*Norb**2
=========================  =======  ============  =============  ==============

The Σ≷ GEMM executes one ``Norb³`` product per ``(kz, E, qz, ω, a, b, i)``,
so :func:`sse_flop_estimate` (Table 3) stays the executed count — up to
the rows the open energy axis shifts off the grid, which the GEMM
multiplies and the shift-add discards (``≈ (Nw-1)/(2 NE)`` extra, 9 % at
NE=40, Nw=8).  Temporaries are per qz: the Σ≷ product is ``Nw/(NB*N3D)``
of ``∇H·G``, the Π≷ stack ``Nw*Norb²*Nkz*E`` per atom; nothing is rolled
or copied per round.  Π≷ contracts G·G first, which costs ``Norb/N3D`` of
the Σ-style order (∇H·G first) in flops — to be revisited above
``Norb ≈ 2 N3D`` (e.g. ``paper_10240``).

Σ≷ variants of :func:`sigma_sse`, one semantics:

* ``dace`` — the tile that covers the whole domain (the default);
* ``sdfg`` — the same algorithm *executed from the optimized graph*:
  the Fig. 8 → 12 pipeline's final stage is lowered by an SDFG
  execution backend (:mod:`repro.sdfg.backends`, generated numpy code
  by default) and driven directly — the paper's "generated code replaces
  the hand-written kernel" step.  The graph kernel is periodic in
  energy, so the open (zero-padded) energy axis is realized by embedding
  G≷ in a ``NE + Nw - 1`` energy window whose top slots are zero; the
  result matches ``dace``/``reference`` to float tolerance;
* ``reference`` — direct loops over the full 8-D index space (the
  oracle; small problems only);
* ``omen`` — the Table-7 baseline, function-level only (no driver
  setting selects it): the same primitives, but ``∇H·G`` *recomputed*
  in every ``(qz, ω)`` round (the 2x flop overhead of the paper's
  Table 3).

Index conventions (physical):

* momentum is periodic — ``kz - qz`` wraps modulo ``Nkz`` (``Nqz <= Nkz``
  on matching grids);
* energy is open — contributions with ``E - ω`` (or ``E + ω``) outside the
  grid are dropped (zero padding).  ``shift_sign=+1`` consumes
  ``G(E - ω)`` (phonon emission), ``shift_sign=-1`` consumes ``G(E + ω)``
  (absorption); the SCBA driver combines both for detailed balance while
  the benchmarks exercise single paper-form calls.

The phonon Green's function enters pre-combined per Eq. (3):
``Dcomb = D_ba - D_bb - D_aa + D_ab`` (:func:`preprocess_phonon_green`).
"""

from __future__ import annotations

from typing import Literal, Optional

import numpy as np

__all__ = [
    "preprocess_phonon_green",
    "hd_tensor",
    "grad_h_g",
    "sigma_round",
    "pi_round",
    "shifted_rows",
    "sigma_tile",
    "pi_tile",
    "sigma_sse",
    "pi_sse",
    "retarded_from_lesser_greater",
    "sse_flop_estimate",
]

Variant = Literal["reference", "omen", "dace", "sdfg"]


def _sdfg_kernel(backend=None):
    """The pipeline-compiled Σ≷ kernel (final fig12s stage only), cached
    per execution backend.  Imported lazily: ``repro.core`` layers on
    top of ``repro.sdfg`` and is only needed when the sdfg variant
    runs."""
    from ..core.recipe import compiled_sse_kernel

    return compiled_sse_kernel(backend)


def preprocess_phonon_green(
    D: np.ndarray, neigh: np.ndarray, rev: np.ndarray
) -> np.ndarray:
    """Combine phonon GF blocks per Eq. (3).

    ``D`` has shape ``[Nqz, Nw, NA, NB+1, N3D, N3D]`` with block 0 the
    on-site ``D_aa`` and block ``1+b`` the bond ``D_{a, neigh[a,b]}``.
    Returns ``Dcomb[q, w, a, b] = D_ba - D_bb - D_aa + D_ab`` of shape
    ``[Nqz, Nw, NA, NB, N3D, N3D]``.
    """
    Nq, Nw, NA, NBp1, N3D, _ = D.shape
    NB = NBp1 - 1
    nb = neigh  # (NA, NB)
    D_ab = D[:, :, :, 1:]  # [q,w,a,b,i,j]
    D_aa = D[:, :, :, :1]  # broadcast over b
    D_bb = D[:, :, nb, 0]  # [q,w,a,b,i,j] via fancy index on atom axis
    # D_ba: at atom nb[a,b], the bond pointing back to a is rev[a,b].
    D_ba = D[:, :, nb, 1 + rev]  # [q,w,a,b,i,j]
    return D_ba - D_bb - D_aa + D_ab


def shifted_rows(lo: int, hi: int, w: int, sign: int, NE: int):
    """The open energy axis: source rows feeding ``Σ(E)``, ``E ∈ [lo, hi)``.

    ``sign=+1`` consumes ``G(E - w)``, ``sign=-1`` consumes ``G(E + w)``;
    rows that fall off the ``[0, NE)`` grid are dropped (zero padding).
    Returns ``(src_lo, src_hi, dst_off)``: the global source rows
    ``[src_lo, src_hi)`` land on the tile rows starting at ``dst_off``
    (relative to ``lo``).  The range is empty once ``w`` shifts the whole
    tile off the grid.
    """
    if sign > 0:
        src_lo, src_hi = max(0, lo - w), max(0, hi - w)
        return src_lo, src_hi, src_lo + w - lo
    return min(NE, lo + w), min(NE, hi + w), 0


# -- contraction primitives ---------------------------------------------------
def hd_tensor(dH, Dcomb) -> np.ndarray:
    """``Σ_j Dcomb[q,w,a,b,i,j] * dH[a,b,j]`` as the Σ≷ GEMM's left operand.

    One batched GEMM ``Dcomb[a,b,(q,w,i),j] @ dH[a,b,j,(y,z)]`` followed by
    the (small) permutation into ``hd[q, a, w, z, (b,i,y)]`` — shape
    ``[Nqz, NA, Nw, Norb, NB*N3D*Norb]`` — so that ``hd[q]`` *is* the
    ``[a, (w,z), (b,i,y)]`` matrix stack of :func:`sigma_tile` and
    ``hd[q, :, w]`` the one-round row of :func:`sigma_round`.
    """
    Nqz, Nw, NA, NB, N3D, _ = Dcomb.shape
    No = dH.shape[-1]
    hd = np.matmul(
        Dcomb.transpose(2, 3, 0, 1, 4, 5).reshape(NA, NB, Nqz * Nw * N3D, N3D),
        dH.reshape(NA, NB, N3D, No * No),
    ).reshape(NA, NB, Nqz, Nw, N3D, No, No)
    return np.ascontiguousarray(hd.transpose(2, 0, 3, 6, 1, 4, 5)).reshape(
        Nqz, NA, Nw, No, NB * N3D * No
    )


def grad_h_g(G_b, dH) -> np.ndarray:
    """``∇H·G`` (Fig. 10b-d), atom-major with the contraction axes adjacent.

    ``G_b`` is the neighbor-gathered GF ``G[:, :, neigh]`` of shape
    ``[k,E,a,b,orb,orb]``.  One batched GEMM
    ``dH[a,b,(i,z),y] @ G_b[a,b,y,(k,E,x)]`` (batch ``NA*NB``,
    ``M = N3D*Norb``, ``K = Norb``, ``N = Nkz*E*Norb``) writes the result
    directly as ``gh[a, (b,i,z), k, E, x]`` — shape
    ``[NA, NB*N3D*Norb, Nkz, E, Norb]``, the Fig. 11 layout: for one atom
    the ``(bond, direction, orbital)`` axes Σ≷ sums over are one GEMM
    ``K`` axis and ``(kz, E, orbital)`` one contiguous ``N`` axis.
    """
    Nkz, NE, NA, NB, No, _ = G_b.shape
    N3D = dH.shape[2]
    return np.matmul(
        dH.transpose(0, 1, 2, 4, 3).reshape(NA, NB, N3D * No, No),
        G_b.transpose(2, 3, 5, 0, 1, 4).reshape(NA, NB, No, Nkz * NE * No),
    ).reshape(NA, NB * N3D * No, Nkz, NE, No)


def sigma_round(gh_rows, hd_qw) -> np.ndarray:
    """One ``(qz, ω)`` round of Σ≷ on aligned rows: ``[k,E,a,orb,orb]``.

    ``gh_rows`` are the ``∇H·G`` rows (:func:`grad_h_g` layout) already at
    ``(kz - qz, E ∓ ω)``; ``hd_qw`` is one ``hd[q, :, w]`` row of
    :func:`hd_tensor`.  The round is the tile kernel on a one-round slab
    (``Nqz = Nw = 1``: no shift), so the GEMM has ``M = Norb`` only.
    """
    return sigma_tile(gh_rows, hd_qw[None, :, None], +1, gh_rows.shape[3])


def pi_round(G_own_rows, G_other_b_rows, dH, dH_ba) -> np.ndarray:
    """One ``(qz, ω)`` round of Π≷ on aligned rows: ``[a,1+b,i,j]``.

    ``G_own_rows`` is ``G≷`` at ``(kz + qz, E + ω)`` (``[k,E,a,orb,orb]``),
    ``G_other_b_rows`` the neighbor-gathered ``G≶`` at ``(kz, E)``
    (``[k,E,a,b,orb,orb]``), ``dH_ba = dH[neigh, rev]``.  Block ``1+b`` is
    the bond term (Eq. 5); block 0 folds the on-site term (Eq. 4: minus
    the sum over neighbors).  The round is :func:`pi_tile` on a one-round
    slab.
    """
    n = G_own_rows.shape[1]
    return pi_tile(G_own_rows, G_other_b_rows, dH, dH_ba, 1, 1, n)[0, 0]


# -- the tile kernel ----------------------------------------------------------
def sigma_tile(gh, hd, sign, NE, etile=None, win_lo=0) -> np.ndarray:
    """Σ≷ on the energy tile ``etile = (lo, hi)``: ``[k, hi-lo, a, orb, orb]``.

    The transformed algorithm: ``gh`` (:func:`grad_h_g`) is computed once
    by the caller over a halo window of global rows starting at
    ``win_lo`` and reused by every ``(qz, ω)`` round; ``hd`` is the
    :func:`hd_tensor` of the tile's atoms.  The default tile is the whole
    ``[0, NE)`` domain.

    Per ``qz`` one batched GEMM folds ω and the bond/direction/orbital
    sum: ``hd[q] as [a,(w,z),(b,i,y)] @ gh as [a,(b,i,y),(k,E,x)] ->
    T[a,w,z,k,E,x]`` (batch ``NA``, ``M = Nw*Norb``, ``K = NB*N3D*Norb``,
    ``N = Nkz*E_win*Norb``), then ``Nw*Nkz`` contiguous shift-adds place
    ``T``'s rows: the energy shift is a :func:`shifted_rows` slice and the
    ``kz - qz`` wrap an index on the small result, never a copy of ``gh``.
    The GEMM multiplies every window row by every ω; rows shifted off the
    open energy axis (or off the tile) are computed and discarded —
    ``≈ (Nw-1)/(2 NE)`` extra flops on the whole domain.  One qz at a
    time keeps the temporary ``T`` at ``Nw/(NB*N3D)`` of ``gh``; it is
    allocated once and rewritten by every qz.
    """
    lo, hi = etile or (0, NE)
    Nqz, NA, Nw, No, K = hd.shape
    Nkz, E_win = gh.shape[2:4]
    gh = gh.reshape(NA, K, Nkz * E_win * No)
    Sigma = np.zeros((NA, No, Nkz, hi - lo, No), dtype=np.complex128)
    T = np.empty((NA, Nw, No, Nkz, E_win, No), dtype=np.complex128)
    for q in range(Nqz):
        np.matmul(
            hd[q].reshape(NA, Nw * No, K), gh, out=T.reshape(NA, Nw * No, -1)
        )
        for w in range(Nw):
            s_lo, s_hi, off = shifted_rows(lo, hi, w, sign, NE)
            dst = slice(off, off + s_hi - s_lo)
            src = slice(s_lo - win_lo, s_hi - win_lo)
            for k in range(Nkz):
                Sigma[:, :, (k + q) % Nkz, dst] += T[:, w, :, k, src]
    return np.ascontiguousarray(Sigma.transpose(2, 3, 0, 4, 1))


def pi_tile(
    G_own, G_other_b, dH, dH_ba, Nqz, Nw, NE, etile=None, win_lo=0
) -> np.ndarray:
    """Π≷ partial of the energy tile ``etile``: ``[q, w, a, 1+b, i, j]``.

    The tile owns the shifted rows ``E + ω ∈ [lo, hi)`` of ``G_own``
    (``[k, E_win, a, orb, orb]``) and pairs them with the halo rows ``E``
    of the neighbor-gathered ``G_other_b`` (``[k, E_win, a, b, orb,
    orb]``); both windows start at global row ``win_lo``.  Partials of a
    partition of the energy axis sum to the whole-domain Π≷ (the default
    tile).

    Per ``qz``: the zero-filled shifted stack ``Gs[a,(w,y,z),(k,E)] =
    G_own[k+qz, E+ω, a, y, z]`` (small: no bond axis) times
    ``G_other_b as [a,(k,E),(b,u,x)]`` (a strided view, no copy) is one
    G-G correlation GEMM ``C[a,(w,y,z),(b,u,x)]`` (batch ``NA``,
    ``M = Nw*Norb²``, ``K = Nkz*E_win``, ``N = NB*Norb²``); two small
    GEMMs then close the trace with ``dH[a,b,j,z,u]`` and
    ``dH_ba[a,b,i,x,y]``, and Eq. 4 folds the on-site block.  Contracting
    G·G first costs ``Norb/N3D`` of the Σ-style order (∇H·G first) in
    flops (see the module docstring).  ``Gs``, ``C`` and its permutation
    are allocated once and rewritten by every qz.
    """
    lo, hi = etile or (0, NE)
    NA, NB, N3D, No, _ = dH.shape
    Nkz, E_win = G_own.shape[:2]
    O2 = No * No
    other = G_other_b.reshape(Nkz * E_win, NA, NB * O2).transpose(1, 0, 2)
    own = np.ascontiguousarray(G_own.transpose(2, 3, 4, 0, 1)).reshape(
        NA, O2, Nkz, E_win
    )
    dH_zu_j = dH.reshape(NA, NB, N3D, O2).transpose(0, 1, 3, 2)
    dH_ba_i_xy = dH_ba.reshape(NA, NB, N3D, O2)
    Gs = np.zeros((NA, Nw, O2, Nkz, E_win), dtype=np.complex128)
    C = np.empty((NA, Nw * O2, NB * O2), dtype=np.complex128)
    Ct = np.empty((NA, NB, No, No, Nw, No, No), dtype=np.complex128)
    Pi = np.empty((Nqz, Nw, NA, NB + 1, N3D, N3D), dtype=np.complex128)
    for q in range(Nqz):
        for w in range(Nw):
            s_lo, s_hi, _ = shifted_rows(lo, hi, w, +1, NE)
            dst = slice(s_lo - win_lo, s_hi - win_lo)  # rows E ...
            src = slice(s_lo + w - win_lo, s_hi + w - win_lo)  # ... pair E + ω
            for k in range(Nkz):
                Gs[:, w, :, k, dst] = own[:, :, (k + q) % Nkz, src]
        np.matmul(Gs.reshape(NA, Nw * O2, Nkz * E_win), other, out=C)
        # C[a,w,y,z,b,u,x] -> [a,b,(x,y,w),(z,u)]: both trace closures are
        # then plain GEMMs, the first leaving (x,y) leading for the second.
        Ct[...] = C.reshape(NA, Nw, No, No, NB, No, No).transpose(0, 4, 6, 2, 1, 3, 5)
        R = np.matmul(Ct.reshape(NA, NB, O2 * Nw, O2), dH_zu_j)
        bond = np.matmul(dH_ba_i_xy, R.reshape(NA, NB, O2, Nw * N3D))
        Pi[q, :, :, 1:] = bond.reshape(NA, NB, N3D, Nw, N3D).transpose(3, 0, 1, 2, 4)
    Pi[:, :, :, 0] = -Pi[:, :, :, 1:].sum(axis=3)
    return Pi


def sigma_sse(
    G: np.ndarray,
    dH: np.ndarray,
    Dcomb: np.ndarray,
    neigh: np.ndarray,
    shift_sign: int = +1,
    variant: Variant = "dace",
    backend: Optional[str] = None,
) -> np.ndarray:
    """One Σ≷ evaluation (Eq. 3 / Fig. 5 kernel).

    Parameters
    ----------
    G:
        Electron GF diagonal blocks ``[Nkz, NE, NA, Norb, Norb]``.
    dH:
        Hamiltonian derivative ``[NA, NB, N3D, Norb, Norb]``.
    Dcomb:
        Combined phonon GF ``[Nqz, Nw, NA, NB, N3D, N3D]``.
    neigh:
        ``[NA, NB]`` neighbor indices (the ``f(a, b)`` indirection).
    backend:
        SDFG execution backend for ``variant="sdfg"`` (``"numpy"`` /
        ``"interpreter"``; ``None`` means ``"numpy"``).
        Ignored by the other variants.
    """
    if variant == "reference":
        return _sigma_reference(G, dH, Dcomb, neigh, shift_sign)
    if variant == "omen":
        return _sigma_omen(G, dH, Dcomb, neigh, shift_sign)
    if variant == "dace":
        return _sigma_dace(G, dH, Dcomb, neigh, shift_sign)
    if variant == "sdfg":
        return _sigma_sdfg(G, dH, Dcomb, neigh, shift_sign, backend)
    raise ValueError(f"unknown variant {variant!r}")


def _sigma_reference(G, dH, Dcomb, neigh, sign) -> np.ndarray:
    Nkz, NE, NA, No, _ = G.shape
    Nqz, Nw, _, NB, N3D, _ = Dcomb.shape
    Sigma = np.zeros_like(G)
    for k in range(Nkz):
        for E in range(NE):
            for q in range(Nqz):
                for w in range(Nw):
                    Es = E - sign * w
                    if Es < 0 or Es >= NE:
                        continue
                    ks = (k - q) % Nkz
                    for i in range(N3D):
                        for j in range(N3D):
                            for a in range(NA):
                                for b in range(NB):
                                    f = neigh[a, b]
                                    gh = G[ks, Es, f] @ dH[a, b, i]
                                    hd = dH[a, b, j] * Dcomb[q, w, a, b, i, j]
                                    Sigma[k, E, a] += gh @ hd
    return Sigma


def _sigma_omen(G, dH, Dcomb, neigh, sign) -> np.ndarray:
    """Per-(qz, ω) rounds, recomputing ∇H·G(E∓ω, kz-qz) every round."""
    NE = G.shape[1]
    Nqz, Nw = Dcomb.shape[:2]
    Sigma = np.zeros_like(G)
    hd = hd_tensor(dH, Dcomb)
    G_b = G[:, :, neigh]  # [k,E,a,b,No,No]
    for q in range(Nqz):
        Gq = np.roll(G_b, q, axis=0)  # index (k - q) mod Nkz
        for w in range(Nw):
            s_lo, s_hi, off = shifted_rows(0, NE, w, sign, NE)
            Sigma[:, off : off + s_hi - s_lo] += sigma_round(
                grad_h_g(Gq[:, s_lo:s_hi], dH), hd[q, :, w]
            )
    return Sigma


def _sigma_dace(G, dH, Dcomb, neigh, sign) -> np.ndarray:
    """Transformed algorithm: the tile that covers the whole domain."""
    return sigma_tile(
        grad_h_g(G[:, :, neigh], dH), hd_tensor(dH, Dcomb), sign, G.shape[1]
    )


def _sigma_sdfg(G, dH, Dcomb, neigh, sign, backend=None) -> np.ndarray:
    """Σ≷ driven by the compiled Fig. 8 → 12 pipeline (final stage).

    The graph treats both offset axes as periodic; the physical open
    energy axis is recovered exactly by embedding G≷ in a zero-padded
    window of ``NE + Nw - 1`` energy slots: every wrapped read then
    lands in the padding and contributes nothing.  ``shift_sign=-1``
    (absorption, ``G(E + ω)``) is the same kernel on the energy-reversed
    window, with the result reversed back.
    """
    Nkz, NE, NA, No, _ = G.shape
    Nqz, Nw, _, NB, N3D, _ = Dcomb.shape
    NEp = NE + Nw - 1
    Gp = np.zeros((Nkz, NEp, NA, No, No), dtype=np.complex128)
    Gp[:, :NE] = G if sign > 0 else G[:, ::-1]
    dims = dict(
        Nkz=Nkz, NE=NEp, Nqz=Nqz, Nw=Nw, N3D=N3D, NA=NA, NB=NB, Norb=No
    )
    kern = _sdfg_kernel(backend)
    sigma = kern(
        dims, {"G": Gp, "dH": dH, "D": Dcomb}, {"__neigh__": neigh}
    )[:, :NE]
    return sigma if sign > 0 else sigma[:, ::-1]


def pi_sse(
    G_plus: np.ndarray,
    G_minus: np.ndarray,
    dH: np.ndarray,
    neigh: np.ndarray,
    rev: np.ndarray,
    Nqz: int,
    Nw: int,
    variant: Variant = "dace",
) -> np.ndarray:
    """One Π≷ evaluation (Eqs. 4-5).

    ``Π≷[q,w,a,0]`` is the on-site block (Eq. 4, minus sign, summed over
    neighbors) and ``Π≷[q,w,a,1+b]`` the bond block (Eq. 5):

    ``Π≷_ab(ω, qz) = Σ_{kz} Σ_E tr{ ∇iH_ba G≷_aa(E+ω, kz+qz)
    ∇jH_ab G≶_bb(E, kz) }``

    Parameters
    ----------
    G_plus:
        ``G≷`` — shifted to ``(E + ω, kz + qz)`` internally.
    G_minus:
        ``G≶`` — the opposite-sign GF, evaluated at ``(E, kz)``.
    """
    if variant == "reference":
        return _pi_reference(G_plus, G_minus, dH, neigh, rev, Nqz, Nw)
    if variant in ("dace", "sdfg"):
        # The paper's graph recipe covers Σ≷; Π≷ (Eqs. 4-5) always runs
        # the hand-vectorized kernel, also under the sdfg variant.
        return _pi_vectorized(G_plus, G_minus, dH, neigh, rev, Nqz, Nw)
    raise ValueError(f"unknown variant {variant!r}")


def _pi_reference(Gp, Gm, dH, neigh, rev, Nqz, Nw) -> np.ndarray:
    Nkz, NE, NA, No, _ = Gp.shape
    _, NB, N3D, _, _ = dH.shape
    Pi = np.zeros((Nqz, Nw, NA, NB + 1, N3D, N3D), dtype=np.complex128)
    for q in range(Nqz):
        for w in range(Nw):
            for k in range(Nkz):
                for E in range(NE):
                    if E + w >= NE:
                        continue
                    kp = (k + q) % Nkz
                    for a in range(NA):
                        for b in range(NB):
                            nb = neigh[a, b]
                            r = rev[a, b]
                            for i in range(N3D):
                                for j in range(N3D):
                                    val = np.trace(
                                        dH[nb, r, i]
                                        @ Gp[kp, E + w, a]
                                        @ dH[a, b, j]
                                        @ Gm[k, E, nb]
                                    )
                                    Pi[q, w, a, 1 + b, i, j] += val
                                    Pi[q, w, a, 0, i, j] -= val
    return Pi


def _pi_vectorized(Gp, Gm, dH, neigh, rev, Nqz, Nw) -> np.ndarray:
    return pi_tile(
        Gp, Gm[:, :, neigh], dH, dH[neigh, rev], Nqz, Nw, Gp.shape[1]
    )


def retarded_from_lesser_greater(less: np.ndarray, greater: np.ndarray) -> np.ndarray:
    """The paper's retarded approximation ``Σᴿ ≈ (Σ> - Σ<)/2`` [Lake et al.]."""
    return 0.5 * (greater - less)


def sse_flop_estimate(
    Nkz: int, NE: int, Nqz: int, Nw: int, NA: int, NB: int, N3D: int, Norb: int,
    variant: Variant = "dace",
) -> float:
    """Complex-flop estimate matching the §4.3 model structure.

    One complex ``Norb³`` matmul costs ``8 Norb³`` real flops; OMEN performs
    two per (kz,E,qz,ω,i,a,b) point, the transformed variant one plus a
    (qz,ω)-independent term.
    """
    unit = 8.0 * Norb**3 * NA * NB * N3D
    full = unit * Nkz * NE * Nqz * Nw
    if variant == "omen":
        return 2.0 * full
    if variant in ("dace", "sdfg"):
        # The sdfg variant executes the same transformed algorithm
        # (generated from the optimized graph), so the model coincides.
        return full + unit * Nkz * NE
    raise ValueError(f"no flop model for variant {variant!r}")
