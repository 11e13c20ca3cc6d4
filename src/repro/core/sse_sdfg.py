"""The scattering-self-energy (Σ≷) SDFG — paper Figs. 5 and 8.

Builds the *initial* dataflow representation of Eq. (3): an 8-dimensional
map over ``(kz, E, qz, ω, i, j, a, b)`` whose body performs

1. ``∇HG≷ = G≷[kz - qz, E - ω, f(a, b)] @ ∇H[a, b, i]``,
2. ``∇HD≷ = ∇H[a, b, j] * D≷[qz, ω, a, b, i, j]``,
3. ``Σ≷[kz, E, a] += ∇HG≷ @ ∇HD≷`` (write-conflict resolution: Sum).

Each memlet is written as Fig. 8 labels its edge and read with
:meth:`~repro.sdfg.Memlet.parse`: ``G[kz - qz, E - w, __neigh__[a, b],
0:Norb, 0:Norb]`` is the figure's ``G[kz − qz, E − ω, f(a, b), :, :]``,
with the neighbor lookup ``f`` spelled as the indirection table it reads
and each ``:`` as the half-open slice it covers.  ``repr`` of an edge's
memlet prints that notation, which ``Memlet.parse`` reads back.

Index conventions: the momentum axis ``kz - qz`` and the energy axis
``E - ω`` are both treated as periodic here (negative indices wrap), so
that all transformation stages — which reorganize these accesses — remain
exactly comparable.  The physical kernel in :mod:`repro.negf.sse` instead
zero-pads the energy axis; the dataflow structure is identical.

``D≷`` is assumed to be *preprocessed* to the 4-term combination
``D[l,n] - D[l,l] - D[n,n] + D[n,l]`` of Eq. (3), as stated in §4.2.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..sdfg import SDFG, Map, MapEntry, MapExit, Memlet, Range, SDFGState, Tasklet, symbols

__all__ = [
    "SSE_SYMBOLS",
    "build_sse_sigma_sdfg",
    "sse_sigma_reference",
    "random_sse_inputs",
    "find_map_entry",
]

SSE_SYMBOLS = ("Nkz", "NE", "Nqz", "Nw", "N3D", "NA", "NB", "Norb")


def build_sse_sigma_sdfg(name: str = "sse_sigma") -> SDFG:
    """Construct the Fig. 8 SDFG of the Σ≷ computation."""
    Nkz, NE, Nqz, Nw, N3D, NA, NB, Norb = symbols(" ".join(SSE_SYMBOLS))
    P = Memlet.parse

    sd = SDFG(name)
    for s in SSE_SYMBOLS:
        sd.add_symbol(s)
    sd.add_array("G", (Nkz, NE, NA, Norb, Norb))
    sd.add_array("dH", (NA, NB, N3D, Norb, Norb))
    sd.add_array("D", (Nqz, Nw, NA, NB, N3D, N3D))
    sd.add_array("Sigma", (Nkz, NE, NA, Norb, Norb))
    sd.add_transient("dHG", (Norb, Norb))
    sd.add_transient("dHD", (Norb, Norb))

    st = sd.add_state("sse", is_start=True)
    m = Map(
        "sse",
        ["kz", "E", "qz", "w", "i", "j", "a", "b"],
        Range.parse("[0:Nkz, 0:NE, 0:Nqz, 0:Nw, 0:N3D, 0:N3D, 0:NA, 0:NB]"),
    )
    me, mx = MapEntry(m), MapExit(m)

    t1 = Tasklet(
        "dHG_mult",
        ["g", "h"],
        ["gh"],
        lambda g, h: {"gh": g @ h},
        flops=lambda g, h: 8 * g.shape[-1] ** 3,
        op="xy,yz->xz",
    )
    t2 = Tasklet(
        "dHD_scale",
        ["h", "d"],
        ["hd"],
        lambda h, d: {"hd": h * d},
        flops=lambda h, d: 6 * h.shape[-1] ** 2,
        op="xy,->xy",
    )
    t3 = Tasklet(
        "sigma_acc",
        ["gh", "hd"],
        ["out"],
        lambda gh, hd: {"out": gh @ hd},
        flops=lambda gh, hd: 8 * gh.shape[-1] ** 3,
        op="xy,yz->xz",
    )

    aG, adH, aD, aS, an_gh, an_hd = (
        st.add_access(n) for n in ("G", "dH", "D", "Sigma", "dHG", "dHD")
    )
    for acc in (aG, adH, aD):
        st.add_edge(acc, me, Memlet.full(acc.data, sd.arrays[acc.data].shape))

    # Fig. 8's edge labels; f(a, b) is the neighbor table __neigh__[a, b]
    st.add_edge(me, t1, P("G[kz - qz, E - w, __neigh__[a, b], 0:Norb, 0:Norb]"), dst_conn="g")
    st.add_edge(me, t1, P("dH[a, b, i, 0:Norb, 0:Norb]"), dst_conn="h")
    st.add_edge(me, t2, P("dH[a, b, j, 0:Norb, 0:Norb]"), dst_conn="h")
    st.add_edge(me, t2, P("D[qz, w, a, b, i, j]"), dst_conn="d")
    st.add_edge(t1, an_gh, P("dHG[0:Norb, 0:Norb]"), src_conn="gh")
    st.add_edge(an_gh, t3, P("dHG[0:Norb, 0:Norb]"), dst_conn="gh")
    st.add_edge(t2, an_hd, P("dHD[0:Norb, 0:Norb]"), src_conn="hd")
    st.add_edge(an_hd, t3, P("dHD[0:Norb, 0:Norb]"), dst_conn="hd")
    st.add_edge(t3, mx, P("Sigma[kz, E, a, 0:Norb, 0:Norb] (CR: Sum)"), src_conn="out")
    st.add_edge(mx, aS, P("Sigma[0:Nkz, 0:NE, 0:NA, 0:Norb, 0:Norb] (CR: Sum)"))

    sd.validate()
    return sd


def sse_sigma_reference(
    G: np.ndarray,
    dH: np.ndarray,
    D: np.ndarray,
    neigh_idx: np.ndarray,
) -> np.ndarray:
    """Direct numpy-loop evaluation of the Fig. 5 kernel (ground truth).

    Both offset axes wrap periodically, matching the SDFG conventions.
    """
    Nkz, NE, NA, Norb, _ = G.shape
    Nqz, Nw, _, NB, N3D, _ = D.shape
    Sigma = np.zeros_like(G)
    for k in range(Nkz):
        for E in range(NE):
            for q in range(Nqz):
                for w in range(Nw):
                    for i in range(N3D):
                        for j in range(N3D):
                            for a in range(NA):
                                for b in range(NB):
                                    f = neigh_idx[a, b]
                                    gh = G[(k - q) % Nkz, (E - w) % NE, f] @ dH[a, b, i]
                                    hd = dH[a, b, j] * D[q, w, a, b, i, j]
                                    Sigma[k, E, a] += gh @ hd
    return Sigma


def random_sse_inputs(
    dims: Dict[str, int], seed: int = 0
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Random input tensors + a ring-topology neighbor table."""
    rng = np.random.default_rng(seed)
    Nkz, NE = dims["Nkz"], dims["NE"]
    Nqz, Nw = dims["Nqz"], dims["Nw"]
    N3D, NA, NB, Norb = dims["N3D"], dims["NA"], dims["NB"], dims["Norb"]

    def c(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    arrays = {
        "G": c(Nkz, NE, NA, Norb, Norb),
        "dH": c(NA, NB, N3D, Norb, Norb),
        "D": c(Nqz, Nw, NA, NB, N3D, N3D),
        "Sigma": np.zeros((Nkz, NE, NA, Norb, Norb), dtype=np.complex128),
    }
    # b-th neighbor of atom a: the nearby atoms on a ring (periodic chain),
    # mirroring the paper's "atoms with neighboring indices are very often
    # neighbors in the coupling matrix".
    neigh = np.zeros((NA, NB), dtype=np.int64)
    for a in range(NA):
        for b in range(NB):
            off = (b // 2 + 1) * (1 if b % 2 == 0 else -1)
            neigh[a, b] = (a + off) % NA
    tables = {"__neigh__": neigh}
    return arrays, tables


def find_map_entry(
    state: SDFGState, label_substring: str, top_level: bool = False
) -> MapEntry:
    """Locate a map entry whose label contains the given substring."""
    pool = state.scope_index().top_level_maps() if top_level else [
        n for n in state.nodes if isinstance(n, MapEntry)
    ]
    hits = [n for n in pool if label_substring in n.map.label]
    if len(hits) != 1:
        raise KeyError(
            f"expected exactly one map matching {label_substring!r}, found {len(hits)}"
        )
    return hits[0]
