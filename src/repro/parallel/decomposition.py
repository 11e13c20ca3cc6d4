"""Data decompositions of the Green's-function tensors (paper §4.1).

Two layouts:

* :class:`OmenDecomposition` — the "natural" momentum x energy grid the
  domain scientists chose: rank ``(kz, c)`` owns ``G≷[kz, chunk_c, :]``
  for all atoms.
* :class:`DaceDecomposition` — the communication-avoiding ``TE x TA``
  tiling over energies and atoms derived from the tiled-map memlet
  propagation: rank ``(te, ta)`` owns all momenta for its energy tile and
  atom tile, and *needs* the ``±Nω`` energy halo plus the neighbor-closure
  atom halo.

Halos are computed from the actual neighbor table (exact data
requirements); for banded neighbor structures the atom halo has at most
``NB`` atoms, recovering the closed-form ``NA/TA + NB`` footprint of the
paper's model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

__all__ = ["OmenDecomposition", "DaceDecomposition", "partition_spectral_grid"]


@dataclass(frozen=True)
class OmenDecomposition:
    """Momentum x energy ownership: ``P = Nkz * n_chunks``."""

    Nkz: int
    NE: int
    P: int

    def __post_init__(self):
        if self.P % self.Nkz != 0:
            raise ValueError(f"P={self.P} must be a multiple of Nkz={self.Nkz}")
        if self.NE % self.n_chunks != 0:
            raise ValueError(
                f"NE={self.NE} must be divisible by {self.n_chunks} chunks"
            )

    @property
    def n_chunks(self) -> int:
        return self.P // self.Nkz

    @property
    def chunk(self) -> int:
        return self.NE // self.n_chunks

    def rank_of(self, kz: int, chunk_index: int) -> int:
        return kz * self.n_chunks + chunk_index

    def coords(self, rank: int) -> Tuple[int, int]:
        return rank // self.n_chunks, rank % self.n_chunks

    def energy_slice(self, rank: int) -> slice:
        _, c = self.coords(rank)
        return slice(c * self.chunk, (c + 1) * self.chunk)

    def owner_of_energy(self, kz: int, E: int) -> int:
        return self.rank_of(kz % self.Nkz, E // self.chunk)


@dataclass(frozen=True)
class DaceDecomposition:
    """Energy x atom tiles (all momenta local): ``P = TE * TA``."""

    NE: int
    NA: int
    TE: int
    TA: int
    Nw: int

    def __post_init__(self):
        if self.NE % self.TE != 0:
            raise ValueError(f"TE={self.TE} must divide NE={self.NE}")
        if self.NA % self.TA != 0:
            raise ValueError(f"TA={self.TA} must divide NA={self.NA}")

    @property
    def P(self) -> int:
        return self.TE * self.TA

    @property
    def e_tile(self) -> int:
        return self.NE // self.TE

    @property
    def a_tile(self) -> int:
        return self.NA // self.TA

    def coords(self, rank: int) -> Tuple[int, int]:
        return rank // self.TA, rank % self.TA

    def rank_of(self, te: int, ta: int) -> int:
        return te * self.TA + ta

    def energy_tile(self, rank: int) -> slice:
        te, _ = self.coords(rank)
        return slice(te * self.e_tile, (te + 1) * self.e_tile)

    def energy_window(self, rank: int) -> slice:
        """Tile plus the ±Nω halo, clamped to the grid (zero padding)."""
        t = self.energy_tile(rank)
        return slice(max(0, t.start - self.Nw), min(self.NE, t.stop + self.Nw))

    def atom_tile(self, rank: int) -> np.ndarray:
        _, ta = self.coords(rank)
        return np.arange(ta * self.a_tile, (ta + 1) * self.a_tile)

    def atom_closure(self, rank: int, neighbors: np.ndarray) -> np.ndarray:
        """Tile atoms plus every neighbor they couple to (sorted, unique)."""
        tile = self.atom_tile(rank)
        ext = np.unique(np.concatenate([tile, neighbors[tile].ravel()]))
        return ext

    def local_index(self, ext: np.ndarray) -> np.ndarray:
        """Map global atom index -> position in the closure array."""
        lookup = -np.ones(int(ext.max()) + 1, dtype=np.int64)
        lookup[ext] = np.arange(len(ext))
        return lookup


def partition_spectral_grid(
    Nkz: int, NE: int, max_ranks: int
) -> OmenDecomposition:
    """The largest momentum x energy-chunk decomposition within a budget.

    Used by the plan layer (``repro.api.plan``) to lay the distributed
    runtime's ``(kz, E-chunk)`` ranks out: picks the largest
    ``P = Nkz * n_chunks <= max_ranks`` with ``n_chunks`` dividing ``NE``,
    falling back to one chunk per momentum (``P = Nkz``, always valid).
    """
    best = OmenDecomposition(Nkz=Nkz, NE=NE, P=Nkz)
    for n_chunks in range(2, NE + 1):
        if Nkz * n_chunks > max_ranks:
            break
        if NE % n_chunks:
            continue
        best = OmenDecomposition(Nkz=Nkz, NE=NE, P=Nkz * n_chunks)
    return best
