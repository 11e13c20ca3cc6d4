"""Synthetic device structures (stand-in for the paper's Si FinFET slices).

The paper simulates 2-D x-y slices of Si FinFETs whose z direction is
periodic (Fig. 1b): ``NA`` atoms, each with ``NB`` neighbors, partitioned
into ``bnum`` slabs along the transport direction x so that the
Hamiltonian is block tridiagonal.  We generate a rectangular lattice with
the same structural properties:

* atoms live on an ``nx x ny`` grid (``NA = nx * ny``), y periodic
  (mimicking the fin cross-section), x open towards the contacts;
* neighbor lists follow increasing |offset| (so "atoms with neighboring
  indices are very often neighbors in the coupling matrix", §4.1);
* slabs of ``slab_width`` columns form the RGF blocks; the neighbor
  cutoff never exceeds one slab, guaranteeing block tridiagonality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

__all__ = ["DeviceStructure", "build_device"]

# Relative (dx, dy) neighbor offsets in preference order, nearest first.
# Each ± pair is adjacent so that every even-length prefix is closed under
# negation (symmetric bond sets by construction).
_NEIGHBOR_OFFSETS: Tuple[Tuple[int, int], ...] = (
    (0, 1),
    (0, -1),
    (1, 0),
    (-1, 0),
    (1, 1),
    (-1, -1),
    (1, -1),
    (-1, 1),
)


@dataclass
class DeviceStructure:
    """An atomistic 2-D device slice.

    Attributes
    ----------
    nx, ny:
        Lattice extent: transport direction (x) and cross-section (y,
        periodic).
    slab_width:
        Columns per RGF block.
    positions:
        ``(NA, 2)`` float array of atom coordinates (lattice units).
    neighbors:
        ``(NA, NB)`` int array: ``neighbors[a, b]`` is the atom index of
        the b-th neighbor of atom ``a``.
    neighbor_vectors:
        ``(NA, NB, 3)`` float array of bond vectors ``R_b - R_a`` (the z
        component is 0 for in-plane bonds).
    block_of:
        ``(NA,)`` int array mapping each atom to its RGF block.
    """

    nx: int
    ny: int
    slab_width: int
    positions: np.ndarray
    neighbors: np.ndarray
    neighbor_vectors: np.ndarray
    block_of: np.ndarray

    @property
    def NA(self) -> int:
        return self.nx * self.ny

    @property
    def NB(self) -> int:
        return self.neighbors.shape[1]

    @property
    def bnum(self) -> int:
        return int(self.block_of.max()) + 1

    @property
    def block_sizes(self) -> np.ndarray:
        """Number of atoms per RGF block."""
        return np.bincount(self.block_of, minlength=self.bnum)

    def atoms_in_block(self, i: int) -> np.ndarray:
        return np.nonzero(self.block_of == i)[0]

    # -- derived tables ------------------------------------------------------
    def reverse_neighbor(self) -> np.ndarray:
        """``rev[a, b]`` = index c such that ``neighbors[neighbors[a,b], c] == a``.

        Needed by the SSE preprocessing (``D_ba`` lookups).  -1 when the
        bond is not symmetric (does not happen for generated structures).
        """
        NA, NB = self.neighbors.shape
        rev = np.full((NA, NB), -1, dtype=np.int64)
        for a in range(NA):
            for b in range(NB):
                nb = self.neighbors[a, b]
                back = np.nonzero(self.neighbors[nb] == a)[0]
                if back.size:
                    rev[a, b] = back[0]
        return rev

    def validate(self) -> None:
        """Structural invariants: connectivity + block tridiagonality."""
        nbr = self.neighbors
        reached = np.zeros(self.NA, dtype=bool)
        reached[0] = True
        while True:  # grow along bonds in either direction until closed
            grown = reached | reached[nbr].any(axis=1)
            grown[nbr[reached]] = True
            if (grown == reached).all():
                break
            reached = grown
        if not reached.all():
            raise ValueError("device structure is disconnected")
        far = np.argwhere(np.abs(self.block_of[nbr] - self.block_of[:, None]) > 1)
        if far.size:
            a, nb = far[0][0], nbr[tuple(far[0])]
            raise ValueError(
                f"bond {a}-{nb} spans non-adjacent blocks "
                f"{self.block_of[a]}..{self.block_of[nb]} (not block tridiagonal)"
            )


def build_device(
    nx_cols: int = 12,
    ny_rows: int = 4,
    NB: int = 8,
    slab_width: int = 2,
) -> DeviceStructure:
    """Generate a rectangular 2-D device slice.

    ``NB`` caps at the 8-neighborhood of the lattice; edge columns pad
    their missing x-neighbors with additional in-column bonds so that all
    atoms have exactly ``NB`` entries (as the dense [NA, NB] tensors of
    the paper require).
    """
    if nx_cols % slab_width != 0:
        raise ValueError("slab_width must divide nx_cols")
    if NB not in (4, 6, 8):
        # The offset subset must be closed under negation for the bond set
        # to be symmetric, and must contain x-bonds for connectivity:
        # offsets come in ± pairs, so NB is even and at least 4.
        raise ValueError("NB must be 4, 6 or 8 for the 2-D lattice")
    if ny_rows < 3:
        raise ValueError("ny_rows must be at least 3 (periodic y)")

    NA = nx_cols * ny_rows

    def idx(ix: int, iy: int) -> int:
        return ix * ny_rows + (iy % ny_rows)

    positions = np.zeros((NA, 2))
    for ix in range(nx_cols):
        for iy in range(ny_rows):
            positions[idx(ix, iy)] = (ix, iy)

    # Every atom draws from the same offset subset, so the bond *set* is
    # symmetric by construction (the reverse offset is valid whenever the
    # forward one is).  Contact-edge columns have fewer valid offsets and
    # pad their lists by cycling duplicates of their own bonds, which keeps
    # the reverse-neighbor table well defined.
    offsets = _NEIGHBOR_OFFSETS[:NB]
    neighbors = np.zeros((NA, NB), dtype=np.int64)
    vectors = np.zeros((NA, NB, 3))
    for ix in range(nx_cols):
        for iy in range(ny_rows):
            a = idx(ix, iy)
            found: List[Tuple[int, Tuple[int, int]]] = []
            for dx, dy in offsets:
                jx = ix + dx
                if jx < 0 or jx >= nx_cols:
                    continue  # open boundary towards contacts
                found.append((idx(jx, iy + dy), (dx, dy)))
            if not found:  # pragma: no cover - excluded by NB >= 2
                raise ValueError("atom with no neighbors")
            k = 0
            while len(found) < NB:
                found.append(found[k])
                k += 1
            for b, (nb, (dx, dy)) in enumerate(found[:NB]):
                neighbors[a, b] = nb
                # Wrap the periodic y displacement to the nearest image.
                wy = dy - ny_rows if dy > ny_rows // 2 else dy
                vectors[a, b] = (dx, wy, 0.0)

    block_of = np.repeat(np.arange(nx_cols // slab_width), slab_width * ny_rows)

    dev = DeviceStructure(
        nx=nx_cols,
        ny=ny_rows,
        slab_width=slab_width,
        positions=positions,
        neighbors=neighbors,
        neighbor_vectors=vectors,
        block_of=block_of,
    )
    dev.validate()
    return dev
