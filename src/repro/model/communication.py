"""SSE communication-volume models (paper §4.1, Tables 4-5).

Closed-form per-process byte counts for the two SSE communication schemes:

**OMEN** (momentum x energy decomposition, ``Nqz*Nw`` rounds of
broadcast + point-to-point):

* each process *receives* ``64 * Nkz*(NE/P) * Nqz*Nw * NA*Norb^2`` bytes of
  electron Green's functions ``G≷``, and
* sends+receives ``64 * Nqz*Nw*NA*NB*N3D^2`` bytes of phonon ``D≷``/``Π≷``.

**DaCe** (communication-avoiding ``TE x TA`` tiles exchanged with
``alltoallv``); each process contributes

* ``64 * Nkz*(NE/TE + 2*Nw)*(NA/TA + NB)*Norb^2`` bytes for ``G≷``/``Σ≷``,
* ``64 * Nqz*Nw*(NA/TA + NB)*NB*N3D^2`` bytes for ``D≷``/``Π≷``.

Summed over all ``P = TE*TA`` processes these reproduce every cell of the
paper's Tables 4 and 5 at the printed precision (verified in
``tests/test_models.py``).

Two companion models, :func:`omen_exchange_stats` and
:func:`dace_exchange_stats`, instantiate the same §4.1 accounting for the
*executed* schedules (:class:`~repro.parallel.OmenExchange` /
:class:`~repro.parallel.DaceExchange`): exact per-rank sent/received byte
and message counts of one in-loop SSE exchange, including the window
trimming at the zero-padded energy edges, self-owned (free) transfers,
the exact neighbor-closure halos, and the Π≷/D≷ feedback rows.  The
distributed runtime's measured counters must equal them to the byte
(asserted in ``tests/test_runtime.py`` and
``benchmarks/bench_runtime_scaling.py``); the closed forms above are
their upper bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..config import SimulationParameters
from ..negf.sse import shifted_rows
from ..parallel.decomposition import DaceDecomposition, OmenDecomposition
from ..parallel.schedules import default_round_owner
from ..parallel.simmpi import CommStats

__all__ = [
    "TIB",
    "CommVolume",
    "omen_comm_bytes_per_process",
    "omen_comm_total_bytes",
    "dace_comm_bytes_per_process",
    "dace_comm_total_bytes",
    "comm_volumes",
    "omen_exchange_stats",
    "dace_exchange_stats",
    "residual_allreduce_stats",
]

TIB = 1024.0**4


@dataclass(frozen=True)
class CommVolume:
    """Total SSE communication volume of both algorithm variants (bytes)."""

    omen: float
    dace: float

    @property
    def omen_tib(self) -> float:
        return self.omen / TIB

    @property
    def dace_tib(self) -> float:
        return self.dace / TIB

    @property
    def reduction_factor(self) -> float:
        return self.omen / self.dace


def omen_comm_bytes_per_process(p: SimulationParameters, P: int) -> float:
    """Bytes communicated by one process under OMEN's decomposition."""
    g_recv = 64.0 * p.Nkz * (p.NE / P) * p.Nqz * p.Nw * p.NA * p.Norb**2
    d_xchg = 64.0 * p.Nqz * p.Nw * p.NA * p.NB * p.N3D**2
    return g_recv + d_xchg


def omen_comm_total_bytes(p: SimulationParameters, P: int) -> float:
    """Aggregate OMEN SSE volume: the G≷ replication term is P-independent
    in total (each process holds ``NE/P`` energies), while the D≷/Π≷
    broadcast+reduction term grows linearly with P."""
    return P * omen_comm_bytes_per_process(p, P)


def dace_comm_bytes_per_process(
    p: SimulationParameters, TE: int, TA: int
) -> float:
    """Bytes contributed by one process to the alltoallv exchanges."""
    atoms = p.NA / TA + p.NB
    g_term = 64.0 * p.Nkz * (p.NE / TE + 2.0 * p.Nw) * atoms * p.Norb**2
    d_term = 64.0 * p.Nqz * p.Nw * atoms * p.NB * p.N3D**2
    return g_term + d_term


def dace_comm_total_bytes(p: SimulationParameters, TE: int, TA: int) -> float:
    P = TE * TA
    return P * dace_comm_bytes_per_process(p, TE, TA)


def comm_volumes(
    p: SimulationParameters, P: int, TE: int, TA: int
) -> CommVolume:
    """Both variants' totals for the same process count."""
    if TE * TA != P:
        raise ValueError(f"TE*TA = {TE * TA} must equal P = {P}")
    return CommVolume(
        omen=omen_comm_total_bytes(p, P),
        dace=dace_comm_total_bytes(p, TE, TA),
    )


# --------------------------------------------------------------------------
# Exact per-rank models of the executed exchanges (one SSE iteration)
# --------------------------------------------------------------------------
_C128 = 16  # complex128 bytes


def omen_exchange_stats(
    decomp: OmenDecomposition,
    Nqz: int,
    Nw: int,
    NA: int,
    NB: int,
    Norb: int,
    N3D: int = 3,
    owner_of: Optional[Callable[[int, int], int]] = None,
) -> CommStats:
    """Exact per-rank bytes of one :class:`~repro.parallel.OmenExchange`.

    Per round ``(q, w)``: the owner broadcasts the combined ``D≷`` row to
    every other rank; every rank receives its trimmed emission/absorption
    ``G≷`` windows piecewise from their owners (self-owned pieces are
    free); every non-owner rank sends its two full ``Π≷`` partials to the
    owner.  The closed form :func:`omen_comm_bytes_per_process`
    upper-bounds the G≷ term (no edge trimming, no free self-windows).
    """
    P = decomp.P
    NE = decomp.NE
    owner_of = owner_of or default_round_owner(Nw, P)
    stats = CommStats.zeros(P)
    sent, recv, msgs = stats.sent_bytes, stats.recv_bytes, stats.messages

    d_bytes = 2 * NA * NB * N3D * N3D * _C128
    pi_bytes = NA * (NB + 1) * N3D * N3D * _C128
    row_bytes = 2 * NA * Norb * Norb * _C128  # both ≷ per energy row
    for q in range(Nqz):
        for w in range(Nw):
            owner = owner_of(q, w)
            for r in range(P):
                if r != owner:
                    sent[owner] += d_bytes
                    recv[r] += d_bytes
                    msgs[owner] += 1
            for rank in range(P):
                k, _ = decomp.coords(rank)
                esl = decomp.energy_slice(rank)
                ks = (k - q) % decomp.Nkz
                for sign in (+1, -1):  # emission, absorption window
                    lo, hi, _ = shifted_rows(esl.start, esl.stop, w, sign, NE)
                    e = lo
                    while e < hi:
                        piece_owner = decomp.owner_of_energy(ks, e)
                        stop = min(hi, (e // decomp.chunk + 1) * decomp.chunk)
                        if piece_owner != rank:
                            b = (stop - e) * row_bytes
                            sent[piece_owner] += b
                            recv[rank] += b
                            msgs[piece_owner] += 1
                        e = stop
                if rank != owner:
                    sent[rank] += 2 * pi_bytes
                    recv[owner] += 2 * pi_bytes
                    msgs[rank] += 2
    return stats


def dace_exchange_stats(
    gf_decomp: OmenDecomposition,
    sse_decomp: DaceDecomposition,
    neigh: np.ndarray,
    Nqz: int,
    Nw: int,
    Norb: int,
    N3D: int = 3,
    owner_of: Optional[Callable[[int, int], int]] = None,
) -> CommStats:
    """Exact per-rank bytes of one :class:`~repro.parallel.DaceExchange`.

    Phase A redistributes ``G≷`` into TE x TA tiles (halo windows and
    exact neighbor closures); the phonon rows ship tile-sliced from their
    owners; phase C returns the Σ≷ tiles; Π≷ partials travel
    tile-restricted to the row owners.  The closed form
    :func:`dace_comm_bytes_per_process` upper-bounds these (its
    ``NE/TE + 2Nω`` window ignores edge clamping and its ``NA/TA + NB``
    closure is the banded-structure worst case).
    """
    if gf_decomp.P != sse_decomp.P:
        raise ValueError("decompositions disagree on P")
    P = gf_decomp.P
    NB = neigh.shape[1]
    owner_of = owner_of or default_round_owner(Nw, P)
    stats = CommStats.zeros(P)
    sent, recv, msgs = stats.sent_bytes, stats.recv_bytes, stats.messages

    windows = [sse_decomp.energy_window(j) for j in range(P)]
    etiles = [sse_decomp.energy_tile(j) for j in range(P)]
    closures = [sse_decomp.atom_closure(j, neigh) for j in range(P)]
    a_tile = sse_decomp.a_tile

    # Phase A: GF rows -> halo windows x atom closures.
    for i in range(P):
        esl = gf_decomp.energy_slice(i)
        for j in range(P):
            win = windows[j]
            n = min(esl.stop, win.stop) - max(esl.start, win.start)
            if n > 0 and i != j:
                b = 2 * n * len(closures[j]) * Norb * Norb * _C128
                sent[i] += b
                recv[j] += b
                msgs[i] += 1

    # Combined D≷ rows, tile-sliced, from their owners (one block per pair).
    rows_per_owner = np.zeros(P, dtype=np.int64)
    for q in range(Nqz):
        for w in range(Nw):
            rows_per_owner[owner_of(q, w)] += 1
    d_row_bytes = 2 * a_tile * NB * N3D * N3D * _C128
    for o in range(P):
        if rows_per_owner[o] == 0:
            continue
        for j in range(P):
            if j != o:
                b = int(rows_per_owner[o]) * d_row_bytes
                sent[o] += b
                recv[j] += b
                msgs[o] += 1

    # Phase C: Σ≷ tiles back to the GF layout.
    for j in range(P):
        et = etiles[j]
        for i in range(P):
            esl = gf_decomp.energy_slice(i)
            m = min(esl.stop, et.stop) - max(esl.start, et.start)
            if m > 0 and j != i:
                b = 2 * m * a_tile * Norb * Norb * _C128
                sent[j] += b
                recv[i] += b
                msgs[j] += 1

    # Π≷ partials, tile-restricted, to the row owners (two per row).
    pi_row_bytes = a_tile * (NB + 1) * N3D * N3D * _C128
    for j in range(P):
        for q in range(Nqz):
            for w in range(Nw):
                o = owner_of(q, w)
                if j != o:
                    sent[j] += 2 * pi_row_bytes
                    recv[o] += 2 * pi_row_bytes
                    msgs[j] += 2
    return stats


def residual_allreduce_stats(P: int, n_checks: int) -> CommStats:
    """Bytes of the Born-residual allreduce: 2 float64 per rank per check."""
    stats = CommStats.zeros(P)
    if P > 1 and n_checks > 0:
        stats.sent_bytes[1:] = 16 * n_checks
        stats.recv_bytes[1:] = 16 * n_checks
        stats.messages[1:] = n_checks
        stats.sent_bytes[0] = 16 * n_checks * (P - 1)
        stats.recv_bytes[0] = 16 * n_checks * (P - 1)
        stats.messages[0] = n_checks * (P - 1)
    return stats
