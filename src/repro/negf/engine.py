"""Spectral-grid execution engine: pluggable RGF sweeps over (kz, E)/(qz, ω).

The paper's central observation is that the NEGF solver is an
embarrassingly parallel sweep over momentum-energy grid points whose cost
is dominated by data movement, not FLOPs.  The seed ``SCBASimulation``
instead ran nested Python ``for`` loops over every ``(kz, E)`` electron
and ``(qz, ω)`` phonon point, re-assembling each system and re-deriving
the iteration-invariant boundary self-energies on every Born iteration.

This module turns that sweep into an explicit execution layer:

* :class:`SpectralGrid` — the grid/geometry context (energies, momenta,
  frequencies, atom→block scatter maps) shared by every backend; it also
  memoizes the assembled ``H(kz)/S(kz)/Φ(qz)`` operator blocks, which
  depend only on the structure and momentum — one assembly per momentum
  point serves every Born iteration and every sweep point;
* :class:`BoundaryCache` — memoizes the lead self-energies across SCBA
  iterations (they depend only on the grid point, never on the
  iteration) and the lead-resolved blocks of scattering-free rows
  (below), and exposes solve/hit counters;
* :class:`SerialEngine` — the seed per-point loop, kept as the
  bit-exactness oracle;
* :class:`BatchedEngine` — the production path: one stacked
  block-tridiagonal system per momentum row, solved with
  :func:`repro.negf.rgf.rgf_solve_batched` and boundary conditions from
  the batched Sancho-Rubio recursion.  The rank workers of the
  distributed runtime (:mod:`repro.runtime`) each hold one over their own
  ``(kz, E-chunk)`` shard — that runtime, not an engine, is how a sweep
  runs in several processes.

Bias, gate and temperature (not :data:`repro.api.STRUCTURAL_FIELDS`)
change only lead occupations, never ``M = E·S - H - Σᴸ - Σᴿ``.  Without
scattering, ``G< = f_L A_L + f_R A_R`` (``A_α = Gᴿ iΓ_α Gᴬ``), ``G> = G< +
Gᴿ - Gᴬ``, ``D< = n_B A``, and the contact currents are combinations of
``Tr[Γ_α A_β]`` and ``Tr[Γ_α(Gᴿ - Gᴬ)]``.  So :class:`BatchedEngine`
solves a scattering-free row's first visit directly, its second once
per lead at unit occupation, reduced at once to atom tensors and traces
kept in the :class:`BoundaryCache`, and later visits are linear
combinations in fresh arrays: no assembly, RGF or scatter.

Backends are selected with ``SCBASettings.engine`` (default ``batched``);
``tests/test_engine.py`` pins batched == serial to 1e-10.  The batched
backend solves its stacked systems through the RGF kernel named by
``SCBASettings.rgf_kernel`` (:mod:`repro.negf.kernels`: the production
``numpy`` recursion, or ``reference`` to repeat a run on the oracle),
while :class:`SerialEngine` stays pinned to the ``reference`` kernel —
it is the oracle everything else is validated against.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import EXECUTION_BACKENDS
from ..telemetry.spans import trace
from .boundary import lead_self_energy_batched
from .kernels import get_kernel
from .rgf import _H, rgf_solve, rgf_solve_batched

__all__ = [
    "SpectralGrid",
    "BoundaryCache",
    "GridEngine",
    "SerialEngine",
    "BatchedEngine",
    "make_engine",
    "energy_grid",
    "fermi",
    "bose",
]


def fermi(E: np.ndarray, mu: float, kT: float) -> np.ndarray:
    """Fermi-Dirac occupation (numerically safe for large arguments)."""
    x = np.clip((np.asarray(E, dtype=float) - mu) / max(kT, 1e-12), -700, 700)
    return 1.0 / (1.0 + np.exp(x))


def bose(w: np.ndarray, kT: float) -> np.ndarray:
    """Bose-Einstein occupation; ω -> 0 regularized."""
    w = np.maximum(np.asarray(w, dtype=float), 1e-9)
    x = np.clip(w / max(kT, 1e-12), 1e-9, 700)
    return 1.0 / np.expm1(x)


def _trace_mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``Tr[a_k b_k]`` per stack entry in O(n²), without forming ``a_k b_k``."""
    return np.einsum("bij,bji->b", a, b)


def energy_grid(settings) -> Tuple[np.ndarray, float]:
    """The uniform energy grid of ``settings`` and its spacing ``dE``."""
    energies = np.linspace(settings.e_min, settings.e_max, settings.NE)
    dE = energies[1] - energies[0] if settings.NE > 1 else 1.0
    return energies, dE


class SpectralGrid:
    """Grid and geometry context of one simulation, shared by all backends.

    Holds the (kz, E) electron and (qz, ω) phonon grids plus the
    atom → (RGF block, orbital slice, vibration slice) scatter map — the
    per-simulation state every engine needs to assemble and distribute
    the spectral sweep.
    """

    def __init__(self, model, settings):
        self.model = model
        self.s = settings
        dev = model.structure
        self.NA = dev.NA
        self.NB = dev.NB
        self.Norb = model.Norb
        self.N3D = model.N3D
        self.energies, self.dE = energy_grid(settings)
        self.kz_grid = 2.0 * np.pi * np.arange(settings.Nkz) / settings.Nkz - np.pi
        self.qz_grid = self.kz_grid[: settings.Nqz]
        #: phonon frequencies aligned with energy-grid shifts: ω_m = (m+1) dE
        self.omegas = (np.arange(settings.Nw) + 1) * self.dE
        self.rev = dev.reverse_neighbor()
        self.atom_slices = self._build_atom_slices()
        self._el_ops: Dict[int, Tuple] = {}
        self._ph_ops: Dict[int, object] = {}

    # -- assembled operators ---------------------------------------------------
    def electron_operators(self, ik: int):
        """Assembled ``(H(kz), S(kz))`` for ``kz_grid[ik]``, memoized.

        The operators depend only on the structure and the momentum —
        never on bias, temperature, or the Born iteration — so one
        assembly serves every solve and every sweep point routed through
        this grid.
        """
        if ik not in self._el_ops:
            kz = self.kz_grid[ik]
            self._el_ops[ik] = (
                self.model.hamiltonian_blocks(kz),
                self.model.overlap_blocks(kz),
            )
        return self._el_ops[ik]

    def phonon_operators(self, iq: int):
        """Assembled ``Φ(qz)`` for ``qz_grid[iq]``, memoized as above."""
        if iq not in self._ph_ops:
            self._ph_ops[iq] = self.model.dynamical_blocks(self.qz_grid[iq])
        return self._ph_ops[iq]

    def assembly_counts(self) -> Dict[str, int]:
        """The operator assemblies this grid made (one per memo entry)."""
        n, n_ph = len(self._el_ops), len(self._ph_ops)
        return dict(assemblies_H=n, assemblies_S=n, assemblies_Phi=n_ph)

    def _build_atom_slices(self) -> List[Tuple[int, slice, slice]]:
        """Per atom: (block index, orbital slice in block, N3D slice)."""
        dev = self.model.structure
        local = {}
        counters: Dict[int, int] = {}
        for a in range(self.NA):
            blk = int(dev.block_of[a])
            i = counters.get(blk, 0)
            counters[blk] = i + 1
            local[a] = (blk, i)
        out = []
        for a in range(self.NA):
            blk, i = local[a]
            out.append(
                (
                    blk,
                    slice(i * self.Norb, (i + 1) * self.Norb),
                    slice(i * self.N3D, (i + 1) * self.N3D),
                )
            )
        return out


def _lead_pair(where: str, z, eta, method, left: tuple, right: tuple):
    """``(Σ_L, Σ_R)`` of one grid row from each lead's ``(H00, H01, S00,
    S01)``.  A decimation that does not converge re-raises naming the
    lead side and ``where`` (the momentum index) beside the energy."""
    out = []
    for side, (H00, H01, S00, S01) in (("left", left), ("right", right)):
        try:
            out.append(lead_self_energy_batched(
                z, H00, H01, side, S00, S01, eta=eta, method=method
            ))
        except RuntimeError as err:
            raise RuntimeError(f"{side} lead at {where}: {err}") from err
    return out


class BoundaryCache:
    """Memoized open-boundary self-energies with solve accounting.

    Lead self-energies depend only on the grid point ``(kz, E)`` /
    ``(qz, ω)`` — never on the Born iteration — yet the seed recomputed
    them on every iteration.  The cache keys on the grid indices and
    counts per-point boundary *solves* (two per point: left + right lead)
    and cache hits, so tests can assert the solver runs exactly once per
    grid point per run.
    """

    def __init__(self, settings):
        self.s = settings
        self._el: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        self._ph: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        #: per-point solver invocations (left + right each count one)
        self.el_solves = 0
        self.ph_solves = 0
        #: per-point (pair) cache hits
        self.el_hits = 0
        self.ph_hits = 0
        #: scattering-free rows ``(kind, momentum, grid indices)``: visit
        #: count, then the lead-resolved tensors (see :class:`BatchedEngine`)
        self.rows: Dict[Tuple, object] = {}

    def counters(self) -> Dict[str, int]:
        """The solve/hit counters as a dict (summable across caches)."""
        return {
            "el_solves": self.el_solves,
            "el_hits": self.el_hits,
            "ph_solves": self.ph_solves,
            "ph_hits": self.ph_hits,
        }

    def row_visit(self, key: Tuple):
        """A scattering-free row's visits so far (0, 1), then its stored
        tensors — whose points count as lead self-energy hits."""
        visit = self.rows.get(key, 0)
        if isinstance(visit, int):
            self.rows[key] = visit + 1
        elif key[0] == "el":
            self.el_hits += len(key[2])
        else:
            self.ph_hits += len(key[2])
        return visit

    # -- electrons -----------------------------------------------------------
    def electron_row(self, ik: int, e_idx: np.ndarray, E: np.ndarray, H, S):
        """Stacked (Σ_L, Σ_R) for the energies ``E = energies[e_idx]``.

        Missing points are filled with one batched Sancho-Rubio recursion
        per lead (the transfer-matrix method falls back to a loop inside
        :func:`lead_self_energy_batched`).
        """
        s = self.s
        missing = [
            j for j, iE in enumerate(e_idx) if (ik, int(iE)) not in self._el
        ]
        self.el_hits += len(e_idx) - len(missing)
        if missing:
            with trace(
                "boundary.solve",
                kind="electron",
                ik=int(ik),
                points=len(missing),
            ):
                sl, sr = _lead_pair(
                    f"ik={ik}", E[missing], s.eta, s.boundary_method,
                    (H.diag[0], H.upper[0], S.diag[0], S.upper[0]),
                    (H.diag[-1], H.upper[-1], S.diag[-1], S.upper[-1]),
                )
            self.el_solves += 2 * len(missing)
            for j, m in enumerate(missing):
                self._el[(ik, int(e_idx[m]))] = (sl[j], sr[j])
        sig_L = np.stack([self._el[(ik, int(iE))][0] for iE in e_idx])
        sig_R = np.stack([self._el[(ik, int(iE))][1] for iE in e_idx])
        return sig_L, sig_R

    # -- phonons ---------------------------------------------------------------
    @staticmethod
    def _phonon_z_eta(w: np.ndarray, eta: float):
        """The (z, η_eff) convention of the seed phonon boundary call."""
        z = ((np.asarray(w) + 1j * eta) ** 2).real
        eta_eff = np.maximum(eta, 2 * np.asarray(w) * eta)
        return z, eta_eff

    def phonon_row(self, iq: int, w_idx: np.ndarray, w: np.ndarray, Phi):
        """Stacked (Π_L, Π_R) for the frequencies ``w = omegas[w_idx]``."""
        s = self.s
        missing = [
            j for j, iw in enumerate(w_idx) if (iq, int(iw)) not in self._ph
        ]
        self.ph_hits += len(w_idx) - len(missing)
        if missing:
            with trace(
                "boundary.solve",
                kind="phonon",
                iq=int(iq),
                points=len(missing),
            ):
                z, eta_eff = self._phonon_z_eta(w[missing], s.eta)
                pl, pr = _lead_pair(
                    f"iq={iq}", z, eta_eff, s.boundary_method,
                    (Phi.diag[0], Phi.upper[0], None, None),
                    (Phi.diag[-1], Phi.upper[-1], None, None),
                )
            self.ph_solves += 2 * len(missing)
            for j, m in enumerate(missing):
                self._ph[(iq, int(w_idx[m]))] = (pl[j], pr[j])
        pi_L = np.stack([self._ph[(iq, int(iw))][0] for iw in w_idx])
        pi_R = np.stack([self._ph[(iq, int(iw))][1] for iw in w_idx])
        return pi_L, pi_R


class GridEngine:
    """Base class of the execution backends.

    A backend consumes per-atom scattering self-energies and produces the
    grid-resolved Green's-function tensors plus contact currents — the
    GF phase of one Born iteration (Fig. 2/6 of the paper).
    """

    name = "base"

    #: backends that ignore ``SCBASettings.rgf_kernel`` pin this instead
    #: (the serial oracle must stay on the reference recursion)
    pinned_kernel: Optional[str] = None

    def __init__(self, grid: SpectralGrid):
        self.grid = grid
        #: resolved RGF kernel instance for this backend's solves
        self.kernel = get_kernel(self.pinned_kernel or grid.s.rgf_kernel)
        self.boundary = BoundaryCache(grid.s)

    def solve_electrons(self, sigma_r, sigma_l, sigma_g):
        """RGF over the (kz, E) grid -> (Gl, Gg, I_left, I_right)."""
        raise NotImplementedError

    def solve_phonons(self, pi_r, pi_l):
        """RGF over the (qz, ω) grid -> (Dl, Dg) bond tensors."""
        raise NotImplementedError

    # -- result allocation -----------------------------------------------------
    def _alloc_electrons(self):
        g, s = self.grid, self.grid.s
        shape = (s.Nkz, s.NE, g.NA, g.Norb, g.Norb)
        return (
            np.zeros(shape, dtype=np.complex128),
            np.zeros(shape, dtype=np.complex128),
            np.zeros((s.Nkz, s.NE)),
            np.zeros((s.Nkz, s.NE)),
        )

    def _alloc_phonons(self):
        g, s = self.grid, self.grid.s
        shape = (s.Nqz, s.Nw, g.NA, g.NB + 1, g.N3D, g.N3D)
        return (
            np.zeros(shape, dtype=np.complex128),
            np.zeros(shape, dtype=np.complex128),
        )


class SerialEngine(GridEngine):
    """The seed per-point loop — the bit-exactness oracle.

    Identical to the original ``SCBASimulation`` solver loops except that
    the boundary self-energies go through the shared :class:`BoundaryCache`
    as one-point rows (the decimation is one code path; see
    :mod:`repro.negf.boundary`).  The RGF kernel is pinned to
    ``reference`` regardless of ``SCBASettings.rgf_kernel`` — this backend
    *is* the oracle the other kernels are validated against.
    """

    name = "serial"
    pinned_kernel = "reference"

    # -- electrons -----------------------------------------------------------
    def solve_electrons(self, sigma_r, sigma_l, sigma_g):
        g = self.grid
        Gl, Gg, I_L, I_R = self._alloc_electrons()
        for ik in range(len(g.kz_grid)):
            H, S = g.electron_operators(ik)
            for iE, E in enumerate(g.energies):
                diag, upper, sless, extras = self._electron_system(
                    H, S, E, ik, iE, sigma_r, sigma_l, sigma_g
                )
                res = rgf_solve(diag, upper, sless)
                self._scatter_to_atoms(res, Gl, Gg, ik, iE)
                I_L[ik, iE], I_R[ik, iE] = self._contact_currents(res, extras)
        return Gl, Gg, I_L, I_R

    def _electron_system(self, H, S, E, ik, iE, sigma_r, sigma_l, sigma_g):
        g, s = self.grid, self.grid.s
        diag = []
        for i, (h, sv) in enumerate(zip(H.diag, S.diag)):
            diag.append((E + 1j * s.eta) * sv - h)
        upper = [E * u_s - u_h for u_h, u_s in zip(H.upper, S.upper)]

        row = self.boundary.electron_row(ik, [iE], np.array([E]), H, S)
        sig_L, sig_R = row[0][0], row[1][0]
        diag[0] = diag[0] - sig_L
        diag[-1] = diag[-1] - sig_R

        gam_L = 1j * (sig_L - sig_L.conj().T)
        gam_R = 1j * (sig_R - sig_R.conj().T)
        fL = fermi(E, s.mu_left, s.kT_el)
        fR = fermi(E, s.mu_right, s.kT_el)
        sless = [np.zeros_like(b) for b in diag]
        sless[0] = sless[0] + 1j * fL * gam_L
        sless[-1] = sless[-1] + 1j * fR * gam_R

        if sigma_r is not None:
            for a, (blk, orb, _) in enumerate(g.atom_slices):
                diag[blk][orb, orb] -= sigma_r[ik, iE, a]
                sless[blk][orb, orb] += sigma_l[ik, iE, a]
        extras = dict(gam_L=gam_L, gam_R=gam_R, fL=fL, fR=fR)
        return diag, upper, sless, extras

    def _scatter_to_atoms(self, res, Gl, Gg, ik, iE):
        for a, (blk, orb, _) in enumerate(self.grid.atom_slices):
            Gl[ik, iE, a] = res.Gl[blk][orb, orb]
            Gg[ik, iE, a] = res.Gg[blk][orb, orb]

    def _contact_currents(self, res, extras) -> Tuple[float, float]:
        """Meir-Wingreen integrand at both contacts.

        ``I = Tr[Σ< G> - Σ> G<]`` with the *boundary* self-energies; in the
        ballistic limit ``I_L = -I_R`` (flux conservation).
        """
        gl0, gg0 = res.Gl[0], res.Gg[0]
        glN, ggN = res.Gl[-1], res.Gg[-1]
        gam_L, gam_R = extras["gam_L"], extras["gam_R"]
        fL, fR = extras["fL"], extras["fR"]
        sl_L, sg_L = 1j * fL * gam_L, -1j * (1 - fL) * gam_L
        sl_R, sg_R = 1j * fR * gam_R, -1j * (1 - fR) * gam_R
        i_l = np.trace(sl_L @ gg0 - sg_L @ gl0)
        i_r = np.trace(sl_R @ ggN - sg_R @ glN)
        return float(i_l.real), float(i_r.real)

    # -- phonons ---------------------------------------------------------------
    def solve_phonons(self, pi_r, pi_l):
        g, s = self.grid, self.grid.s
        Dl, Dg = self._alloc_phonons()
        dev = g.model.structure
        for iq in range(len(g.qz_grid)):
            Phi = g.phonon_operators(iq)
            for iw, w in enumerate(g.omegas):
                z = (w + 1j * s.eta) ** 2
                diag = [z * np.eye(b.shape[0]) - b for b in Phi.diag]
                upper = [-u for u in Phi.upper]

                row = self.boundary.phonon_row(iq, [iw], np.array([w]), Phi)
                pi_L, pi_R = row[0][0], row[1][0]
                diag[0] = diag[0] - pi_L
                diag[-1] = diag[-1] - pi_R

                nb = bose(w, s.kT_ph)
                gam_L = 1j * (pi_L - pi_L.conj().T)
                gam_R = 1j * (pi_R - pi_R.conj().T)
                pless = [np.zeros_like(b) for b in diag]
                pless[0] = pless[0] + 1j * nb * gam_L
                pless[-1] = pless[-1] + 1j * nb * gam_R

                if pi_r is not None:
                    self._add_phonon_scattering(diag, pless, pi_r, pi_l, iq, iw)

                res = rgf_solve(diag, upper, pless)
                self._scatter_phonons(res, Dl, Dg, iq, iw, dev)
        return Dl, Dg

    def _add_phonon_scattering(self, diag, pless, pi_r, pi_l, iq, iw):
        """Insert Π self-energy blocks (on-site + intra-slab bonds)."""
        g = self.grid
        dev = g.model.structure
        for a, (blk, _, vib) in enumerate(g.atom_slices):
            diag[blk][vib, vib] -= pi_r[iq, iw, a, 0]
            pless[blk][vib, vib] += pi_l[iq, iw, a, 0]
            for b in range(g.NB):
                c = int(dev.neighbors[a, b])
                blk_c, _, vib_c = g.atom_slices[c]
                if blk_c != blk:
                    continue  # cross-slab bond blocks dropped (see scba doc)
                diag[blk][vib, vib_c] -= pi_r[iq, iw, a, 1 + b]
                pless[blk][vib, vib_c] += pi_l[iq, iw, a, 1 + b]

    def _scatter_phonons(self, res, Dl, Dg, iq, iw, dev):
        g = self.grid
        for a, (blk, _, vib) in enumerate(g.atom_slices):
            Dl[iq, iw, a, 0] = res.Gl[blk][vib, vib]
            Dg[iq, iw, a, 0] = res.Gg[blk][vib, vib]
            for b in range(g.NB):
                c = int(dev.neighbors[a, b])
                blk_c, _, vib_c = g.atom_slices[c]
                if blk_c != blk:
                    continue
                Dl[iq, iw, a, 1 + b] = res.Gl[blk][vib, vib_c]
                Dg[iq, iw, a, 1 + b] = res.Gg[blk][vib, vib_c]


class BatchedEngine(GridEngine):
    """Stacked-tensor backend: one batched RGF solve per momentum row.

    All energies (frequencies) of one kz (qz) become the batch axis of a
    ``[batch, bnum, n, n]`` block-tridiagonal system; assembly, boundary
    conditions, the RGF recursions, the atom scatter, and the contact
    currents are all broadcasted tensor operations.
    Scattering-free rows reuse one retarded solve across visits (see
    the module docstring).
    """

    name = "batched"

    def _solve(self, diag, upper, sless, **attrs):
        with trace("rgf.batch", **attrs, batch=len(diag[0])):
            return rgf_solve_batched(diag, upper, sless, kernel=self.kernel)

    # -- electrons -----------------------------------------------------------
    def solve_electrons(self, sigma_r, sigma_l, sigma_g):
        g, s = self.grid, self.grid.s
        Gl, Gg, I_L, I_R = self._alloc_electrons()
        e_idx = np.arange(s.NE)
        for ik in range(len(g.kz_grid)):
            sr = None if sigma_r is None else sigma_r[ik]
            sl = None if sigma_l is None else sigma_l[ik]
            with trace("engine.electron_row", ik=ik, batch=s.NE):
                Gl[ik], Gg[ik], I_L[ik], I_R[ik] = self.electron_row(
                    ik, e_idx, sr, sl
                )
        return Gl, Gg, I_L, I_R

    def _electron_atoms(self, blocks):
        """Per-atom ``[nE, NA, Norb, Norb]`` diagonal blocks of ``blocks``."""
        g = self.grid
        out = np.zeros((len(blocks[0]), g.NA, g.Norb, g.Norb), complex)
        for a, (blk, orb, _) in enumerate(g.atom_slices):
            out[:, a] = blocks[blk][:, orb, orb]
        return out

    def electron_row(self, ik, e_idx, sigma_r_row, sigma_l_row):
        """Solve the stacked electron systems of one kz / energy subset.

        ``sigma_*_row`` are pre-sliced ``[nE, NA, Norb, Norb]`` scattering
        tensors for exactly the ``e_idx`` energies (or None).
        """
        g, s = self.grid, self.grid.s
        e_idx = np.asarray(e_idx)
        E = g.energies[e_idx]
        f = np.stack([fermi(E, mu, s.kT_el) for mu in (s.mu_left, s.mu_right)], 1)
        if sigma_r_row is None:
            key = ("el", int(ik), tuple(e_idx.tolist()))
            visit = self.boundary.row_visit(key)
            if not isinstance(visit, int):
                return _electron_combination(*visit, f)
        H, S = g.electron_operators(ik)

        zE = (E + 1j * s.eta)[:, None, None]
        diag = [zE * sv[None] - h[None] for h, sv in zip(H.diag, S.diag)]
        upper = [
            E[:, None, None] * u_s[None] - u_h[None]
            for u_h, u_s in zip(H.upper, S.upper)
        ]

        sig_L, sig_R = self.boundary.electron_row(ik, e_idx, E, H, S)
        diag[0] = diag[0] - sig_L
        diag[-1] = diag[-1] - sig_R

        gam_L = 1j * (sig_L - _H(sig_L))
        gam_R = 1j * (sig_R - _H(sig_R))

        def injection(occ_L, occ_R):
            sless = [np.zeros_like(b) for b in diag]
            sless[0] = sless[0] + 1j * occ_L * gam_L
            sless[-1] = sless[-1] + 1j * occ_R * gam_R
            return sless

        if sigma_r_row is None and visit == 1:
            # unit injection per lead β -> A_β and the contact traces
            # C[α, β] = Tr[Γ_α(A_β + δ_αβ(Gᴿ - Gᴬ))]; each solve is freed
            A, C = [], np.empty((len(E), 2, 2), complex)
            for beta, occ in enumerate(((1.0, 0.0), (0.0, 1.0))):
                res = self._solve(
                    diag, upper, injection(*occ), kind="electron", ik=int(ik)
                )
                for alpha, (blk, gam) in enumerate(((0, gam_L), (-1, gam_R))):
                    G = res.Gg if alpha == beta else res.Gl  # G> = G< + Gᴿ - Gᴬ
                    C[:, alpha, beta] = _trace_mm(gam, G[blk])
                A.append(self._electron_atoms(res.Gl))
                GR = self._electron_atoms(res.GR)
                del res, G
            blocks = (A[0], A[1], GR - _H(GR), C)
            self.boundary.rows[key] = blocks
            return _electron_combination(*blocks, f)

        fL, fR = f[:, 0, None, None], f[:, 1, None, None]
        sless = injection(fL, fR)
        if sigma_r_row is not None:
            for a, (blk, orb, _) in enumerate(g.atom_slices):
                diag[blk][:, orb, orb] -= sigma_r_row[:, a]
                sless[blk][:, orb, orb] += sigma_l_row[:, a]

        res = self._solve(diag, upper, sless, kind="electron", ik=int(ik))
        sl_L, sg_L = 1j * fL * gam_L, -1j * (1 - fL) * gam_L
        sl_R, sg_R = 1j * fR * gam_R, -1j * (1 - fR) * gam_R
        I_L = (_trace_mm(sl_L, res.Gg[0]) - _trace_mm(sg_L, res.Gl[0])).real
        I_R = (_trace_mm(sl_R, res.Gg[-1]) - _trace_mm(sg_R, res.Gl[-1])).real
        atoms = self._electron_atoms
        return atoms(res.Gl), atoms(res.Gg), I_L, I_R

    # -- phonons ---------------------------------------------------------------
    def solve_phonons(self, pi_r, pi_l):
        g, s = self.grid, self.grid.s
        Dl, Dg = self._alloc_phonons()
        w_idx = np.arange(s.Nw)
        for iq in range(len(g.qz_grid)):
            pr = None if pi_r is None else pi_r[iq]
            pl = None if pi_l is None else pi_l[iq]
            with trace("engine.phonon_row", iq=iq, batch=s.Nw):
                Dl[iq], Dg[iq] = self.phonon_row(iq, w_idx, pr, pl)
        return Dl, Dg

    @cached_property
    def _phonon_bonds(self) -> List[Tuple[int, int, int, slice, slice]]:
        """``(atom, slot, block, rows, cols)`` of the on-site (slot 0) and
        intra-slab bond (1 + b) blocks; cross-slab bonds are dropped."""
        g = self.grid
        neigh = g.model.structure.neighbors
        out = []
        for a, (blk, _, vib) in enumerate(g.atom_slices):
            out.append((a, 0, blk, vib, vib))
            for b in range(g.NB):
                blk_c, _, vib_c = g.atom_slices[int(neigh[a, b])]
                if blk_c == blk:
                    out.append((a, 1 + b, blk, vib, vib_c))
        return out

    def _phonon_atoms(self, blocks):
        """Per-atom ``[nW, NA, NB+1, N3D, N3D]`` bond blocks of ``blocks``."""
        g = self.grid
        shape = (len(blocks[0]), g.NA, g.NB + 1, g.N3D, g.N3D)
        out = np.zeros(shape, complex)
        for a, slot, blk, rows, cols in self._phonon_bonds:
            out[:, a, slot] = blocks[blk][:, rows, cols]
        return out

    def phonon_row(self, iq, w_idx, pi_r_row, pi_l_row):
        """Solve the stacked phonon systems of one qz / frequency subset.

        ``pi_*_row`` are pre-sliced ``[nW, NA, NB+1, N3D, N3D]`` scattering
        tensors for exactly the ``w_idx`` frequencies (or None).
        """
        g, s = self.grid, self.grid.s
        w_idx = np.asarray(w_idx)
        w = g.omegas[w_idx]
        nb = bose(w, s.kT_ph)[:, None, None]
        if pi_r_row is None:
            key = ("ph", int(iq), tuple(w_idx.tolist()))
            visit = self.boundary.row_visit(key)
            if not isinstance(visit, int):
                return _phonon_combination(*visit, nb)
        Phi = g.phonon_operators(iq)

        z = ((w + 1j * s.eta) ** 2)[:, None, None]
        diag = [z * np.eye(b.shape[0])[None] - b[None] for b in Phi.diag]
        # ω-independent couplings: 2-D blocks broadcast inside the solver.
        upper = [-u for u in Phi.upper]

        pi_L, pi_R = self.boundary.phonon_row(iq, w_idx, w, Phi)
        diag[0] = diag[0] - pi_L
        diag[-1] = diag[-1] - pi_R

        # D< = n_B A: the second visit solves at unit occupation
        unit = pi_r_row is None and visit == 1
        occ = 1.0 if unit else nb
        gam_L = 1j * (pi_L - _H(pi_L))
        gam_R = 1j * (pi_R - _H(pi_R))
        pless = [np.zeros_like(b) for b in diag]
        pless[0] = pless[0] + 1j * occ * gam_L
        pless[-1] = pless[-1] + 1j * occ * gam_R

        if pi_r_row is not None:
            for a, slot, blk, rows, cols in self._phonon_bonds:
                diag[blk][:, rows, cols] -= pi_r_row[:, a, slot]
                pless[blk][:, rows, cols] += pi_l_row[:, a, slot]

        res = self._solve(diag, upper, pless, kind="phonon", iq=int(iq))
        if unit:
            A = self._phonon_atoms(res.Gl)
            blocks = (A, self._phonon_atoms(res.Gg) - A)  # Dᴿ - Dᴬ = D> - D<
            self.boundary.rows[key] = blocks
            return _phonon_combination(*blocks, nb)
        return self._phonon_atoms(res.Gl), self._phonon_atoms(res.Gg)


def _electron_combination(A_L, A_R, B, C, f):
    """Fresh ``(G<, G>, I_L, I_R)`` of a scattering-free row at occupations
    ``f = [f_L, f_R]``: ``I_α = Re(i Σ_β C[α, β] f_β)``."""
    Gl = f[:, 0, None, None, None] * A_L + f[:, 1, None, None, None] * A_R
    I = (1j * np.einsum("eab,eb->ea", C, f)).real
    return Gl, Gl + B, I[:, 0], I[:, 1]


def _phonon_combination(A, B, nb):
    """Fresh ``(D<, D>)`` of a scattering-free phonon row."""
    Dl = nb[..., None, None] * A
    return Dl, Dl + B


_ENGINES = {
    SerialEngine.name: SerialEngine,
    BatchedEngine.name: BatchedEngine,
}


def make_engine(name: str, grid: SpectralGrid) -> GridEngine:
    """Instantiate the execution backend ``name`` for ``grid``."""
    try:
        cls = _ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; expected one of {EXECUTION_BACKENDS}"
        ) from None
    return cls(grid)
