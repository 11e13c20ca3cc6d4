"""Deriving the communication-avoiding distribution from the SDFG (§4.1).

This module performs the paper's §4.1 derivation *mechanically*:

1. tile the SSE map over the decomposition dimensions (Fig. 7, left),
2. propagate every tasklet memlet outward through the tiled scope —
   automatic for the affine ``kz - qz`` / ``E - ω`` offsets, via the
   performance engineer's :class:`IndirectionHook` for ``f(a, b)``,
3. read the per-tile data footprints off the propagated memlets, and
4. evaluate them for concrete tile sizes to obtain the per-process
   communication requirements that drive the exhaustive tile search.

The derived footprints are cross-validated against the closed-form §4.1
byte formulas in ``tests/test_distribution.py`` — the demonstration that
the data-centric view *generates* the communication model rather than
assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..config import SimulationParameters
from ..sdfg import (
    Map,
    Memlet,
    Range,
    neighbor_indirection_hook,
    propagate_memlet,
    symbols,
)
from ..sdfg.nodes import MapEntry, Tasklet
from ..sdfg.transformations import MapTiling
from .sse_sdfg import build_sse_sigma_sdfg, find_map_entry

__all__ = ["TileFootprint", "derive_sse_footprints", "footprint_bytes"]

#: Symbolic tile sizes of the decomposed dimensions (energy, atoms).
_TILE_SIZES = {"E": "sE", "a": "sa"}

_COMPLEX = 16


@dataclass
class TileFootprint:
    """Per-tile data requirements of the tiled SSE map.

    Each entry is the propagated memlet of one input/output container:
    its subset covers everything one ``(tE, ta)`` tile touches, so its
    volume is the data that must reside on (or be communicated to) the
    owning process.
    """

    memlets: Dict[str, Memlet]

    def unique_elements(self, name: str, env: Dict[str, int]) -> int:
        """Number of distinct elements of ``name`` the tile accesses."""
        return self.memlets[name].subset.num_elements().evaluate(env)

    def bytes(self, name: str, env: Dict[str, int]) -> int:
        return _COMPLEX * self.unique_elements(name, env)


def derive_sse_footprints() -> TileFootprint:
    """Tile the Σ≷ SDFG map and propagate all memlets through it.

    Returns symbolic per-tile footprints in terms of the problem sizes
    (``Nkz``, ``NE``, ...) and tile sizes (``sE``, ``sa``).
    """
    sd = build_sse_sigma_sdfg()
    st = sd.states[0]
    entry = find_map_entry(st, "sse")

    tiling = MapTiling(
        entry, {k: symbols(v)[0] for k, v in _TILE_SIZES.items()}
    )
    tiling.apply_checked(sd, st)
    inner = entry.map  # the tiled (element) map

    NA, NB = symbols("NA NB")
    hook = neighbor_indirection_hook(NA, NB, atom_param="a")

    tasklets = [
        n for n in st.scope_index().scope_children(entry) if isinstance(n, Tasklet)
    ]
    out: Dict[str, Memlet] = {}
    for t in tasklets:
        edges = [
            d["memlet"]
            for _, _, d in list(st.in_edges(t)) + list(st.out_edges(t))
            if d.get("memlet") is not None
        ]
        for mem in edges:
            shape = sd.arrays[mem.data].shape
            prop = propagate_memlet(mem, inner, array_shape=shape, hooks=[hook])
            if mem.data in out:
                sub = out[mem.data].subset.cover_union(prop.subset)
                out[mem.data] = Memlet(
                    mem.data, sub, accesses=out[mem.data].accesses + prop.accesses
                )
            else:
                out[mem.data] = prop
    return TileFootprint(out)


def footprint_bytes(
    p: SimulationParameters,
    TE: int,
    TA: int,
    footprint: Optional[TileFootprint] = None,
) -> Dict[str, int]:
    """Concrete per-tile byte requirements for a (TE, TA) decomposition.

    The tiled map is evaluated at an interior tile (``tE = TE//2``,
    ``ta = TA//2``) so that the symbolic ``Min``/``Max`` clamps resolve to
    the generic (halo-carrying) case.
    """
    fp = footprint or derive_sse_footprints()
    env = dict(
        Nkz=p.Nkz, NE=p.NE, Nqz=p.Nqz, Nw=p.Nw, N3D=p.N3D,
        NA=p.NA, NB=p.NB, Norb=p.Norb,
        sE=p.NE // TE, sa=p.NA // TA,
        tE=TE // 2, ta=TA // 2,
    )
    return {name: fp.bytes(name, env) for name in fp.memlets}
