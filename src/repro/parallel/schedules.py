"""Executable SSE communication schedules (paper §4.1) on simulated MPI.

Both schedules move the *actual* Green's-function data between per-rank
stores and compute the *actual* scattering self-energies, so their results
are directly comparable (bit-level, up to float summation order) with the
serial kernels of :mod:`repro.negf.sse` while every transferred byte is
metered (see ``tests/test_parallel.py``).

The schedules are *resident exchange objects* — :class:`OmenExchange` and
:class:`DaceExchange` hold the decomposition, the communication plan, and
the phonon-row ownership map, and execute one Σ≷/Π≷ exchange per call
against per-rank :class:`RankSSEStore` stores reached through a transport
(``call``/``call_all``/``charge``).  This is what lets the distributed
SCBA runtime (:mod:`repro.runtime`) run the exchange *inside* the Born
loop, including the Π≷/D≷ feedback path: Π≷ rows are reduced to their
(qz, ω) owners, which solve the phonon Green's functions feeding the next
iteration's rounds.

This module only moves data: every contraction, the open-energy window
arithmetic and the (qz, ω) tile loop are :mod:`repro.negf.sse`'s
(:func:`~repro.negf.sse.sigma_tile`/:func:`~repro.negf.sse.pi_tile` and
their primitives), called here on each rank's sub-domain.

**OMEN schedule** — ``Nqz*Nw`` rounds; in each round the phonon GF
``D≷(qz, ω)`` is broadcast from its owner, every rank receives the
shifted electron GF windows ``G≷(E∓ω, kz-qz)`` it needs (lesser/greater x
emission/absorption — the paper's "replicated 2·Nqz·Nω times"), computes
its Σ contribution locally, and the partial ``Π≷(qz, ω)`` are reduced to
their owner.

**DaCe schedule** — a single ``alltoallv`` redistributes ``G≷`` from the
GF layout (momentum x energy) into ``TE x TA`` tiles with ``±Nω`` energy
halo and neighbor-closure atom halo; each rank runs the transformed
(∇H·G-reuse) kernel on its tile; Σ≷ tiles return with a second
``alltoallv`` and Π≷ partials (restricted to each rank's atom tile) are
reduced to the row owners.

Physics conventions follow :func:`repro.negf.sse.sigma_sse`: zero-padded
energy axis, periodic momentum, emission+absorption pairing
(Σ< ~ G<(E-ω)D< + G<(E+ω)D>).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..negf.sse import (
    grad_h_g,
    hd_tensor,
    pi_round,
    pi_tile,
    shifted_rows,
    sigma_round,
    sigma_tile,
)
from .decomposition import DaceDecomposition, OmenDecomposition

__all__ = [
    "RankSSEStore",
    "OmenExchange",
    "DaceExchange",
    "default_round_owner",
]


def default_round_owner(Nw: int, P: int) -> Callable[[int, int], int]:
    """Round-robin ownership of the (qz, ω) phonon rows: ``(q*Nw + w) % P``.

    The owner broadcasts ``D≷(qz, ω)`` in its OMEN round, receives the
    reduced ``Π≷(qz, ω)``, and — in the distributed runtime — solves that
    row's phonon Green's function for the next Born iteration.
    """
    return lambda q, w: (q * Nw + w) % P


# --------------------------------------------------------------------------
# Per-rank store: shard state + the rank-local SSE compute steps
# --------------------------------------------------------------------------
class RankSSEStore:
    """One rank's G≷/D≷ shard plus the SSE compute steps of the schedules.

    The exchange objects talk to ranks exclusively through this protocol
    (via a transport's ``call``), so the same schedule logic drives plain
    stores (``tests/conftest.py``) and the resident
    :class:`repro.runtime.RankWorker` processes of the distributed SCBA
    loop.

    Shard layout: the rank owns the ``(k, esl)`` electron rows of an
    :class:`~repro.parallel.decomposition.OmenDecomposition`
    (``Gl``/``Gg`` of shape ``[nE_local, NA, No, No]``) and the combined
    phonon rows ``Dc[(q, w)] = [2, NA, NB, N3D, N3D]`` assigned by the
    round-owner map.
    """

    def __init__(
        self,
        rank: int,
        k: int,
        esl: slice,
        NE: int,
        dH: np.ndarray,
        neigh: np.ndarray,
        rev: np.ndarray,
    ):
        self.rank = rank
        self.k = k
        self.esl = esl
        self.NE = NE
        self.dH = dH
        self.neigh = neigh
        self.rev = rev
        self.dH_ba = dH[neigh, rev]
        self.NA, self.NB = neigh.shape
        self.N3D = dH.shape[2]
        self.Norb = dH.shape[-1]
        #: electron shard [nE_local, NA, No, No] (set by owner code)
        self.Gl: Optional[np.ndarray] = None
        self.Gg: Optional[np.ndarray] = None
        #: combined phonon rows this rank owns: {(q, w): [2, NA, NB, N3D, N3D]}
        self.Dc: Dict[Tuple[int, int], np.ndarray] = {}
        #: raw (unscaled) Σ≷ accumulators of the running exchange
        self._acc_Sl: Optional[np.ndarray] = None
        self._acc_Sg: Optional[np.ndarray] = None
        #: raw reduced Π≷ rows of the running exchange (owned rows only)
        self.pi_raw: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}

    @property
    def n_local(self) -> int:
        return self.esl.stop - self.esl.start

    def sse_begin(self) -> None:
        """Zero the Σ accumulators and Π rows for a fresh exchange."""
        shape = (self.n_local, self.NA, self.Norb, self.Norb)
        self._acc_Sl = np.zeros(shape, dtype=np.complex128)
        self._acc_Sg = np.zeros(shape, dtype=np.complex128)
        self.pi_raw = {}

    # -- shard access (both ≷ components travel together) ----------------------
    def g_rows(self, lo: int, hi: int) -> np.ndarray:
        """``[2, hi-lo, NA, No, No]`` stacked G≶/G≷ rows (global energies)."""
        sl = slice(lo - self.esl.start, hi - self.esl.start)
        return np.stack([self.Gl[sl], self.Gg[sl]])

    # -- OMEN steps ------------------------------------------------------------
    def omen_d_round(self, q: int, w: int) -> np.ndarray:
        """The owned combined phonon row of one round."""
        return self.Dc[(q, w)]

    def omen_apply_round(
        self,
        q: int,
        w: int,
        d_pack: np.ndarray,
        G_em: Optional[np.ndarray],
        G_ab: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Consume one round's windows: accumulate Σ, return Π partials."""
        hd_l, hd_g = hd_tensor(self.dH, d_pack[:, None])[:, :, 0]  # ≷ as qz axis
        shape = (self.NA, self.NB + 1, self.N3D, self.N3D)
        pl = np.zeros(shape, dtype=np.complex128)
        pg = np.zeros(shape, dtype=np.complex128)
        # Emission window G(E-ω) pairs Σ< with D<, Σ> with D>; the
        # absorption window G(E+ω) crosses them.
        for sign, G_win, hds in (
            (+1, G_em, (hd_l, hd_g)), (-1, G_ab, (hd_g, hd_l))
        ):
            if G_win is None:  # the whole window fell off the grid
                continue
            s_lo, s_hi, off = shifted_rows(
                self.esl.start, self.esl.stop, w, sign, self.NE
            )
            dst = slice(off, off + s_hi - s_lo)
            G_b = G_win[:, None][:, :, :, self.neigh]  # [≷,1,E,a,b,No,No]
            for acc, rows_b, hd in zip(
                (self._acc_Sl, self._acc_Sg), G_b, hds
            ):
                acc[dst] += sigma_round(grad_h_g(rows_b, self.dH), hd)[0]
            if sign > 0:
                # Π partials: own rows are the shifted (E+ω, kz+qz) points,
                # paired with the emission-window data already received.
                pl = pi_round(self.Gl[None, dst], G_b[1], self.dH, self.dH_ba)
                pg = pi_round(self.Gg[None, dst], G_b[0], self.dH, self.dH_ba)
        return pl, pg

    def store_pi_round(self, q: int, w: int, pl: np.ndarray, pg: np.ndarray):
        """Owner-side: keep the reduced raw Π≷ row of one round."""
        self.pi_raw[(q, w)] = (pl, pg)

    # -- DaCe steps --------------------------------------------------------------
    def dace_g_blocks(
        self, plan: Sequence[Tuple[int, int, np.ndarray]]
    ) -> List[np.ndarray]:
        """Slice the own shard for the first alltoallv: one block per target.

        ``plan`` entries are ``(lo, hi, ext)``: global energy overlap with
        the target's halo window and its atom closure.
        """
        out = []
        for lo, hi, ext in plan:
            sl = slice(lo - self.esl.start, hi - self.esl.start)
            out.append(np.stack([self.Gl[sl][:, ext], self.Gg[sl][:, ext]]))
        return out

    def dace_d_rows(
        self, rows: Sequence[Tuple[int, int]], tiles: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Owned combined phonon rows sliced to every rank's atom tile."""
        return [
            np.stack([self.Dc[(q, w)][:, tile] for (q, w) in rows], axis=1)
            for tile in tiles
        ]

    def dace_compute(
        self,
        spec: Dict,
        g_blocks: Sequence[Tuple[int, int, int, np.ndarray]],
        d_pack: np.ndarray,
    ):
        """Run the transformed (∇H·G-reuse) kernel on this rank's tile.

        ``spec`` carries the tile geometry; ``g_blocks`` are
        ``(k_src, lo, hi, block)`` pieces of the halo window; ``d_pack``
        is the assembled ``[2, Nqz, Nw, a_tile, NB, N3D, N3D]`` combined
        phonon tensor of the tile.  Returns per-destination Σ blocks and
        the tile-restricted Π≷ partials.
        """
        win_lo, win_hi = spec["win"]
        etile = spec["etile"]
        ext = np.asarray(spec["ext"])
        tile = np.asarray(spec["tile"])
        Nkz, NE = spec["Nkz"], spec["NE"]
        Nqz, Nw = spec["Nqz"], spec["Nw"]
        No = self.Norb

        G_ext = np.zeros(
            (2, Nkz, win_hi - win_lo, len(ext), No, No), dtype=np.complex128
        )
        for k_src, lo, hi, blk in g_blocks:
            G_ext[:, k_src, lo - win_lo : hi - win_lo] = blk

        lookup = -np.ones(int(ext.max()) + 1, dtype=np.int64)
        lookup[ext] = np.arange(len(ext))
        tl = lookup[tile]  # tile atoms in local coords
        neigh_loc = lookup[self.neigh[tile]]  # (a_tile, NB) local neighbor idx
        dH_t, dH_ba_t = self.dH[tile], self.dH_ba[tile]
        Gl_b, Gg_b = G_ext[:, :, :, neigh_loc]  # [k,E_win,a_tile,b,No,No]

        # ∇H·G computed ONCE per tile over the whole halo window (the
        # transformed algorithm's reuse; contrast with the OMEN rounds).
        gh_l, gh_g = grad_h_g(Gl_b, dH_t), grad_h_g(Gg_b, dH_t)
        hd_l, hd_g = hd_tensor(dH_t, d_pack[0]), hd_tensor(dH_t, d_pack[1])
        # Same pairing and order as SCBASimulation.scattering_self_energies:
        # Σ< ~ G<(E-ω)D< + G<(E+ω)D>, Σ> ~ G>(E-ω)D> + G>(E+ω)D<.
        sig = np.stack([
            sigma_tile(gh_l, hd_l, +1, NE, etile, win_lo)
            + sigma_tile(gh_l, hd_g, -1, NE, etile, win_lo),
            sigma_tile(gh_g, hd_g, +1, NE, etile, win_lo)
            + sigma_tile(gh_g, hd_l, -1, NE, etile, win_lo),
        ])
        # Π partials over (tile atoms, own rows E+ω in the energy tile).
        Gl_t, Gg_t = G_ext[:, :, :, tl]
        pl = pi_tile(Gl_t, Gg_b, dH_t, dH_ba_t, Nqz, Nw, NE, etile, win_lo)
        pg = pi_tile(Gg_t, Gl_b, dH_t, dH_ba_t, Nqz, Nw, NE, etile, win_lo)

        et_lo = etile[0]
        dest_blocks = {
            i: sig[:, k_i, lo - et_lo : hi - et_lo]
            for i, k_i, lo, hi in spec["dests"]
        }
        return dest_blocks, pl, pg

    def dace_accum_sigma(
        self, pieces: Sequence[Tuple[np.ndarray, int, int, np.ndarray]]
    ) -> None:
        """Accumulate returned Σ tile blocks into the own shard."""
        for tile, lo, hi, blk in pieces:
            sl = slice(lo - self.esl.start, hi - self.esl.start)
            self._acc_Sl[sl][:, tile] += blk[0]
            self._acc_Sg[sl][:, tile] += blk[1]

    def dace_store_pi(self, entries) -> None:
        """Owner-side: assemble reduced Π rows from per-tile partials."""
        shape = (self.NA, self.NB + 1, self.N3D, self.N3D)
        for q, w, pieces in entries:
            Pl = np.zeros(shape, dtype=np.complex128)
            Pg = np.zeros(shape, dtype=np.complex128)
            for tile, pl, pg in pieces:
                Pl[tile] += pl
                Pg[tile] += pg
            self.pi_raw[(q, w)] = (Pl, Pg)


# --------------------------------------------------------------------------
# OMEN schedule
# --------------------------------------------------------------------------
class OmenExchange:
    """Resident OMEN exchange: per-(qz, ω) broadcast + window rounds.

    One instance holds the momentum x energy decomposition and the
    phonon-row owner map; :meth:`run_iteration` executes one full Σ≷/Π≷
    exchange against the rank stores behind ``transport`` — callable every
    Born iteration on refreshed shards.
    """

    def __init__(
        self,
        decomp: OmenDecomposition,
        Nqz: int,
        Nw: int,
        owner_of: Optional[Callable[[int, int], int]] = None,
    ):
        self.decomp = decomp
        self.Nqz = Nqz
        self.Nw = Nw
        self.owner_of = owner_of or default_round_owner(Nw, decomp.P)

    def run_iteration(self, t) -> None:
        d = self.decomp
        P, NE = d.P, d.NE
        for q in range(self.Nqz):
            for w in range(self.Nw):
                owner = self.owner_of(q, w)
                # Broadcast the phonon GF of this round (both ≷ components).
                d_pack = t.call(owner, "omen_d_round", q, w)
                for r in range(P):
                    t.charge(owner, r, d_pack.nbytes)

                pi_l_sum: Optional[np.ndarray] = None
                pi_g_sum: Optional[np.ndarray] = None
                for rank in range(P):
                    k, _ = d.coords(rank)
                    esl = d.energy_slice(rank)
                    ks = (k - q) % d.Nkz
                    em_lo, em_hi, _ = shifted_rows(esl.start, esl.stop, w, +1, NE)
                    ab_lo, ab_hi, _ = shifted_rows(esl.start, esl.stop, w, -1, NE)
                    G_em = self._fetch_window(t, ks, em_lo, em_hi, rank)
                    G_ab = self._fetch_window(t, ks, ab_lo, ab_hi, rank)
                    pl, pg = t.call(
                        rank, "omen_apply_round", q, w, d_pack, G_em, G_ab
                    )
                    t.charge(rank, owner, pl.nbytes)
                    t.charge(rank, owner, pg.nbytes)
                    pi_l_sum = pl if pi_l_sum is None else pi_l_sum + pl
                    pi_g_sum = pg if pi_g_sum is None else pi_g_sum + pg
                t.call(owner, "store_pi_round", q, w, pi_l_sum, pi_g_sum)

    def _fetch_window(
        self, t, ks: int, lo: int, hi: int, dst: int
    ) -> Optional[np.ndarray]:
        """Receive ``G≷[ks, lo:hi]`` from its owners, piece by piece."""
        if hi <= lo:
            return None
        d = self.decomp
        pieces = []
        e = lo
        while e < hi:
            owner = d.owner_of_energy(ks, e)
            stop = min(hi, (e // d.chunk + 1) * d.chunk)
            piece = t.call(owner, "g_rows", e, stop)
            t.charge(owner, dst, piece.nbytes)
            pieces.append(piece)
            e = stop
        return (
            pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)
        )


# --------------------------------------------------------------------------
# DaCe schedule
# --------------------------------------------------------------------------
class DaceExchange:
    """Resident DaCe exchange: the communication-avoiding TE x TA tiles.

    The halo windows, atom closures, and both alltoallv plans are derived
    once from the decompositions; every :meth:`run_iteration` then only
    moves the current shards.  Π≷ partials travel tile-restricted to the
    (qz, ω) row owners given by ``owner_of``.
    """

    def __init__(
        self,
        gf_decomp: OmenDecomposition,
        sse_decomp: DaceDecomposition,
        neigh: np.ndarray,
        Nqz: int,
        Nw: int,
        owner_of: Optional[Callable[[int, int], int]] = None,
    ):
        if gf_decomp.P != sse_decomp.P:
            raise ValueError("communicator and decompositions disagree on P")
        self.gf_decomp = gf_decomp
        self.sse_decomp = sse_decomp
        self.Nqz = Nqz
        self.Nw = Nw
        P = gf_decomp.P
        self.owner_of = owner_of or default_round_owner(Nw, P)
        self.rows = [(q, w) for q in range(Nqz) for w in range(Nw)]
        self.rows_by_owner: Dict[int, List[Tuple[int, int]]] = {}
        for row in self.rows:
            self.rows_by_owner.setdefault(self.owner_of(*row), []).append(row)

        # -- static geometry -------------------------------------------------
        self.k_of = [gf_decomp.coords(i)[0] for i in range(P)]
        self.esl = [gf_decomp.energy_slice(i) for i in range(P)]
        self.windows = [sse_decomp.energy_window(j) for j in range(P)]
        self.etiles = [sse_decomp.energy_tile(j) for j in range(P)]
        self.closures = [sse_decomp.atom_closure(j, neigh) for j in range(P)]
        self.tiles = [sse_decomp.atom_tile(j) for j in range(P)]

        # -- communication plans ---------------------------------------------
        #: first alltoallv (GF layout -> tiles): per source i, (j, lo, hi)
        self.a_plan: List[List[Tuple[int, int, int]]] = []
        for i in range(P):
            esl = self.esl[i]
            plan = []
            for j in range(P):
                win = self.windows[j]
                lo, hi = max(esl.start, win.start), min(esl.stop, win.stop)
                if hi > lo:
                    plan.append((j, lo, hi))
            self.a_plan.append(plan)
        #: second alltoallv (Σ tiles -> GF layout): per tile j, (i, k_i, lo, hi)
        self.c_plan: List[List[Tuple[int, int, int, int]]] = []
        for j in range(P):
            et = self.etiles[j]
            plan = []
            for i in range(P):
                esl = self.esl[i]
                lo, hi = max(esl.start, et.start), min(esl.stop, et.stop)
                if hi > lo:
                    plan.append((i, self.k_of[i], lo, hi))
            self.c_plan.append(plan)

    def compute_spec(self, j: int, Nkz: int, NE: int) -> Dict:
        """The :meth:`RankSSEStore.dace_compute` geometry of tile ``j``."""
        win, et = self.windows[j], self.etiles[j]
        return {
            "win": (win.start, win.stop),
            "etile": (et.start, et.stop),
            "ext": self.closures[j],
            "tile": self.tiles[j],
            "Nkz": Nkz,
            "NE": NE,
            "Nqz": self.Nqz,
            "Nw": self.Nw,
            "dests": self.c_plan[j],
        }

    def run_iteration(self, t) -> None:
        P = self.gf_decomp.P
        Nkz, NE = self.gf_decomp.Nkz, self.gf_decomp.NE

        # ---- Phase A: GF layout -> SSE tiles (one alltoallv) ----------------
        blocks_for: Dict[int, List[Tuple[int, int, int, np.ndarray]]] = {
            j: [] for j in range(P)
        }
        for i in range(P):
            plan = self.a_plan[i]
            out = t.call(
                i,
                "dace_g_blocks",
                [(lo, hi, self.closures[j]) for j, lo, hi in plan],
            )
            for (j, lo, hi), blk in zip(plan, out):
                t.charge(i, j, blk.nbytes)
                blocks_for[j].append((self.k_of[i], lo, hi, blk))

        # The phonon rows reach each tile from their owners.
        d_packs: List[Optional[np.ndarray]] = [None] * P
        for o in sorted(self.rows_by_owner):
            rows = self.rows_by_owner[o]
            out = t.call(o, "dace_d_rows", rows, self.tiles)
            for j, blk in enumerate(out):
                t.charge(o, j, blk.nbytes)
                if d_packs[j] is None:
                    d_packs[j] = np.zeros(
                        (2, self.Nqz, self.Nw) + blk.shape[2:],
                        dtype=np.complex128,
                    )
                for idx, (q, w) in enumerate(rows):
                    d_packs[j][:, q, w] = blk[:, idx]

        # ---- Phase B: local transformed kernel ------------------------------
        args = [
            (self.compute_spec(j, Nkz, NE), blocks_for[j], d_packs[j])
            for j in range(P)
        ]
        results = t.call_all("dace_compute", args)

        # ---- Phase C: Σ tiles back to the GF layout -------------------------
        pieces_for: Dict[int, List] = {i: [] for i in range(P)}
        for j in range(P):
            dest_blocks = results[j][0]
            for i, _k_i, lo, hi in self.c_plan[j]:
                blk = dest_blocks[i]
                t.charge(j, i, blk.nbytes)
                pieces_for[i].append((self.tiles[j], lo, hi, blk))
        for i in range(P):
            if pieces_for[i]:
                t.call(i, "dace_accum_sigma", pieces_for[i])

        # ---- Π partials reduced to the row owners ---------------------------
        entries_for: Dict[int, Dict[Tuple[int, int], List]] = {}
        for j in range(P):
            pl_rows, pg_rows = results[j][1], results[j][2]
            for q, w in self.rows:
                o = self.owner_of(q, w)
                pl, pg = pl_rows[q, w], pg_rows[q, w]
                t.charge(j, o, pl.nbytes)
                t.charge(j, o, pg.nbytes)
                entries_for.setdefault(o, {}).setdefault((q, w), []).append(
                    (self.tiles[j], pl, pg)
                )
        for o, rowmap in entries_for.items():
            t.call(
                o,
                "dace_store_pi",
                [(q, w, pieces) for (q, w), pieces in rowmap.items()],
            )
