"""Synthetic DFT-like operator construction (stand-in for CP2K/SIESTA).

The paper obtains ``H(kz)``, ``S(kz)`` (electrons), ``Φ(qz)`` (phonons) and
``∇H`` from a DFT package with a localized (Gaussian) basis.  All algorithms
downstream depend only on the operators' *structure* — Hermitian block
tridiagonal with ``Norb x Norb`` (or ``N3D x N3D``) atom blocks and
``NB``-neighbor sparsity — so we generate deterministic synthetic operators
with exactly those properties:

* hopping decays with bond length; on-site blocks dominate (diagonally
  dominant -> well-conditioned RGF);
* ``H(kz) = H_plane + Hz e^{i kz} + Hz† e^{-i kz}`` captures the periodic
  z direction of the fin (momentum dependence);
* ``S(kz)`` is an identity-plus-small-overlap matrix (positive definite);
* ``Φ`` is a spring-constant model obeying the acoustic sum rule
  ``Φ_aa = -Σ_b Φ_ab`` at ``qz = 0``;
* ``∇H[a, b, i]`` scales the hopping block by the bond direction, matching
  the ``∇_i H_ab`` derivative blocks of Eqs. (3-5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .structure import DeviceStructure

__all__ = ["HamiltonianModel", "BlockTridiagonal", "build_hamiltonian_model"]


@dataclass
class BlockTridiagonal:
    """A Hermitian block-tridiagonal operator.

    ``diag[i]`` are the ``(ni, ni)`` diagonal blocks and ``upper[i]`` the
    ``(ni, n_{i+1})`` super-diagonal blocks; the sub-diagonal is implied by
    Hermiticity (``lower[i] = upper[i]†``).
    """

    diag: List[np.ndarray]
    upper: List[np.ndarray]

    @property
    def bnum(self) -> int:
        return len(self.diag)

    @property
    def n(self) -> int:
        return sum(b.shape[0] for b in self.diag)

    def lower(self, i: int) -> np.ndarray:
        return self.upper[i].conj().T

    def to_dense(self) -> np.ndarray:
        sizes = [b.shape[0] for b in self.diag]
        offs = np.concatenate(([0], np.cumsum(sizes)))
        n = offs[-1]
        out = np.zeros((n, n), dtype=np.complex128)
        for i, b in enumerate(self.diag):
            out[offs[i] : offs[i + 1], offs[i] : offs[i + 1]] = b
        for i, u in enumerate(self.upper):
            out[offs[i] : offs[i + 1], offs[i + 1] : offs[i + 2]] = u
            out[offs[i + 1] : offs[i + 2], offs[i] : offs[i + 1]] = u.conj().T
        return out


def _orbital_block(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    """A deterministic dense coupling block with decaying magnitude."""
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * m / np.sqrt(n)


@dataclass
class HamiltonianModel:
    """All per-structure operators needed by one QT simulation."""

    structure: DeviceStructure
    Norb: int
    #: on-site orbital energies (NA, Norb, Norb) — Hermitian blocks
    onsite: np.ndarray
    #: hopping blocks per bond (NA, NB, Norb, Norb): H_{a, neigh[a,b]}
    hopping: np.ndarray
    #: z-direction coupling per atom (NA, Norb, Norb)
    z_coupling: np.ndarray
    #: overlap per bond (NA, NB, Norb, Norb)
    overlap: np.ndarray
    #: Hamiltonian derivative (NA, NB, N3D, Norb, Norb)
    dH: np.ndarray
    #: spring constants per bond (NA, NB)
    springs: np.ndarray
    #: phonon z-direction spring (scalar)
    z_spring: float
    N3D: int = 3

    # -- electrons ---------------------------------------------------------
    def hamiltonian_blocks(self, kz: float) -> BlockTridiagonal:
        """Assemble H(kz) in block-tridiagonal form."""
        return self._assemble(
            self.onsite
            + self.z_coupling * np.exp(1j * kz)
            + np.transpose(self.z_coupling, (0, 2, 1)).conj() * np.exp(-1j * kz),
            self.hopping,
            self.Norb,
        )

    def overlap_blocks(self, kz: float) -> BlockTridiagonal:
        """Assemble S(kz): identity + small bond overlaps."""
        NA = self.structure.NA
        eye = np.broadcast_to(np.eye(self.Norb), (NA, self.Norb, self.Norb)).copy()
        return self._assemble(eye.astype(np.complex128), self.overlap, self.Norb)

    # -- phonons --------------------------------------------------------------
    def dynamical_blocks(self, qz: float) -> BlockTridiagonal:
        """Assemble Φ(qz): spring-constant dynamical matrix.

        Bond (a, b) contributes ``-k_ab (d̂ d̂ᵀ + 0.25 I)`` off-diagonal and
        the acoustic-sum-rule counterpart on the diagonal; the periodic z
        bond adds ``2 kz_spring (1 - cos qz)`` to the diagonal.
        """
        s = self.structure
        NA, NB = s.neighbors.shape
        onsite = np.zeros((NA, self.N3D, self.N3D), dtype=np.complex128)
        offdiag = np.zeros((NA, NB, self.N3D, self.N3D), dtype=np.complex128)
        # Iterate over *unique* bonds only (neighbor lists of edge atoms are
        # padded with duplicates) so the acoustic sum rule matches the
        # assembled off-diagonal blocks exactly and Φ(0) stays PSD.
        seen = set()
        for a in range(NA):
            for b in range(NB):
                c = int(s.neighbors[a, b])
                key = (min(a, c), max(a, c))
                if key in seen or c == a:
                    continue
                seen.add(key)
                v = s.neighbor_vectors[a, b]
                norm = np.linalg.norm(v)
                if norm == 0:
                    continue
                d = v / norm
                k = self.springs[a, b]
                block = k * (np.outer(d, d) + 0.25 * np.eye(self.N3D))
                offdiag[a, b] = -block
                onsite[a] += block
                onsite[c] += block
        for a in range(NA):
            onsite[a] += (
                2.0 * self.z_spring * (1.0 - np.cos(qz)) * np.eye(self.N3D)
            )
        return self._assemble(onsite, offdiag, self.N3D)

    # -- assembly helper ---------------------------------------------------------
    def _assemble(
        self, onsite: np.ndarray, bonds: np.ndarray, nb_orb: int
    ) -> BlockTridiagonal:
        s = self.structure
        bnum = s.bnum
        sizes = s.block_sizes * nb_orb
        offs = np.concatenate(([0], np.cumsum(sizes)))
        # Local index of each atom inside its block.
        local = np.zeros(s.NA, dtype=np.int64)
        counters = {}
        for a in range(s.NA):
            blk = int(s.block_of[a])
            local[a] = counters.get(blk, 0)
            counters[blk] = local[a] + 1

        diag = [
            np.zeros((sizes[i], sizes[i]), dtype=np.complex128) for i in range(bnum)
        ]
        upper = [
            np.zeros((sizes[i], sizes[i + 1]), dtype=np.complex128)
            for i in range(bnum - 1)
        ]

        def put_bond(a: int, c: int, block: np.ndarray):
            """Insert H_{ac} = block (and implicitly H_{ca} = block†)."""
            ba, bc = int(s.block_of[a]), int(s.block_of[c])
            ia, ic = local[a] * nb_orb, local[c] * nb_orb
            if ba == bc:
                diag[ba][ia : ia + nb_orb, ic : ic + nb_orb] += block
                diag[ba][ic : ic + nb_orb, ia : ia + nb_orb] += block.conj().T
            elif bc == ba + 1:
                # The sub-diagonal is implied by Hermiticity.
                upper[ba][ia : ia + nb_orb, ic : ic + nb_orb] += block
            elif bc == ba - 1:
                upper[bc][ic : ic + nb_orb, ia : ia + nb_orb] += block.conj().T
            else:  # pragma: no cover - excluded by structure validation
                raise ValueError("bond spans non-adjacent blocks")

        for a in range(s.NA):
            blk = int(s.block_of[a])
            ia = local[a] * nb_orb
            diag[blk][ia : ia + nb_orb, ia : ia + nb_orb] += onsite[a]
        seen = set()
        for a in range(s.NA):
            for b in range(s.NB):
                c = int(s.neighbors[a, b])
                key = (min(a, c), max(a, c))
                if key in seen or c == a:
                    continue
                seen.add(key)
                put_bond(a, c, bonds[a, b])
        return BlockTridiagonal(diag, upper)


def build_hamiltonian_model(
    structure: DeviceStructure,
    Norb: int = 2,
    N3D: int = 3,
    hopping_scale: float = 0.5,
    onsite_center: float = 0.0,
    seed: int = 1234,
) -> HamiltonianModel:
    """Deterministic synthetic operators for a device structure."""
    rng = np.random.default_rng(seed)
    s = structure
    NA, NB = s.neighbors.shape

    onsite = np.zeros((NA, Norb, Norb), dtype=np.complex128)
    for a in range(NA):
        levels = onsite_center + np.linspace(-0.5, 0.5, Norb)
        block = np.diag(levels).astype(np.complex128)
        mix = _orbital_block(rng, Norb, 0.05)
        onsite[a] = block + mix + mix.conj().T

    hopping = np.zeros((NA, NB, Norb, Norb), dtype=np.complex128)
    overlap = np.zeros((NA, NB, Norb, Norb), dtype=np.complex128)
    dH = np.zeros((NA, NB, N3D, Norb, Norb), dtype=np.complex128)
    springs = np.zeros((NA, NB))
    for a in range(NA):
        for b in range(NB):
            v = s.neighbor_vectors[a, b]
            dist = max(np.linalg.norm(v), 1.0)
            decay = np.exp(-(dist - 1.0))
            t = _orbital_block(rng, Norb, hopping_scale * decay)
            hopping[a, b] = t
            overlap[a, b] = 0.05 * decay * np.eye(Norb)
            springs[a, b] = decay
            for i in range(N3D):
                # ∇_i H_ab: hopping modulated by the bond direction.
                dH[a, b, i] = t * (v[i] / dist if i < len(v) else 0.0)

    z_coupling = np.zeros((NA, Norb, Norb), dtype=np.complex128)
    for a in range(NA):
        z_coupling[a] = _orbital_block(rng, Norb, 0.15)

    model = HamiltonianModel(
        structure=structure,
        Norb=Norb,
        onsite=onsite,
        hopping=hopping,
        z_coupling=z_coupling,
        overlap=overlap,
        dH=dH,
        springs=springs,
        z_spring=0.3,
        N3D=N3D,
    )
    # Edge atoms pad their neighbor lists with duplicate bonds; duplicated
    # slots must carry identical operator blocks both before and after the
    # Hermitian symmetrization so that every (a, b) entry is consistent.
    _deduplicate_bonds(model)
    _symmetrize_bonds(model)
    _deduplicate_bonds(model)
    return model


def _deduplicate_bonds(model: HamiltonianModel) -> None:
    """Copy each atom's first-occurrence bond blocks onto duplicate slots."""
    s = model.structure
    for a in range(s.NA):
        first: dict = {}
        for b in range(s.NB):
            c = int(s.neighbors[a, b])
            if c in first:
                src = first[c]
                model.hopping[a, b] = model.hopping[a, src]
                model.overlap[a, b] = model.overlap[a, src]
                model.springs[a, b] = model.springs[a, src]
                model.dH[a, b] = model.dH[a, src]
            else:
                first[c] = b


def _symmetrize_bonds(model: HamiltonianModel) -> None:
    """Enforce H_{ba} = H_{ab}† consistency on shared bonds.

    Bonds are stored per atom; both endpoints must agree on the block for
    the assembled operator to be Hermitian.  The (a < c) endpoint's block
    is canonical.
    """
    s = model.structure
    rev = s.reverse_neighbor()
    for a in range(s.NA):
        for b in range(s.NB):
            c = int(s.neighbors[a, b])
            r = int(rev[a, b])
            if c <= a or r < 0:
                continue
            model.hopping[c, r] = model.hopping[a, b].conj().T
            model.overlap[c, r] = model.overlap[a, b].conj().T
            model.springs[c, r] = model.springs[a, b]
            for i in range(model.N3D):
                # ∇H_{ba} = (∇H_{ab})† with the opposite bond direction.
                model.dH[c, r, i] = -model.dH[a, b, i].conj().T
