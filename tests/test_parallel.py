"""Simulated MPI, decompositions, and the executable SSE schedules."""

import numpy as np
import pytest

from repro.negf.sse import pi_sse, preprocess_phonon_green, sigma_sse
from repro.parallel import (
    DaceDecomposition,
    DaceExchange,
    OmenDecomposition,
    OmenExchange,
    SimComm,
    partition_spectral_grid,
)
from tests.conftest import close, complex_array, run_exchange


class TestSimComm:
    def test_charge_meters_both_ends(self):
        c = SimComm(3)
        c.charge(0, 2, 40)
        assert c.stats.sent_bytes[0] == 40
        assert c.stats.recv_bytes[2] == 40
        assert c.stats.messages[0] == 1

    def test_self_send_free(self):
        c = SimComm(2)
        c.charge(1, 1, 800)
        assert c.stats.total_bytes == 0

    def test_reset(self):
        c = SimComm(2)
        c.charge(0, 1, 32)
        assert c.stats.total_bytes == 32
        c.reset()
        assert c.stats.total_bytes == 0

    def test_needs_one_rank(self):
        with pytest.raises(ValueError):
            SimComm(0)


class TestDecompositions:
    def test_omen_coords_roundtrip(self):
        d = OmenDecomposition(Nkz=3, NE=12, P=6)
        for r in range(6):
            k, c = d.coords(r)
            assert d.rank_of(k, c) == r

    def test_omen_energy_owner(self):
        d = OmenDecomposition(Nkz=2, NE=8, P=4)
        assert d.owner_of_energy(1, 5) == d.rank_of(1, 1)

    def test_omen_indivisible_raises(self):
        with pytest.raises(ValueError):
            OmenDecomposition(Nkz=3, NE=10, P=4)
        with pytest.raises(ValueError):
            OmenDecomposition(Nkz=2, NE=10, P=8)

    def test_dace_tiles(self):
        d = DaceDecomposition(NE=12, NA=8, TE=3, TA=2, Nw=2)
        assert d.P == 6
        assert d.energy_tile(d.rank_of(1, 0)) == slice(4, 8)
        assert list(d.atom_tile(d.rank_of(0, 1))) == [4, 5, 6, 7]

    def test_dace_window_clamped(self):
        d = DaceDecomposition(NE=12, NA=8, TE=3, TA=2, Nw=3)
        assert d.energy_window(0) == slice(0, 7)
        assert d.energy_window(d.rank_of(2, 0)) == slice(5, 12)

    def test_dace_closure_covers_neighbors(self, ring_neighbors):
        neigh, _ = ring_neighbors
        d = DaceDecomposition(NE=4, NA=8, TE=1, TA=4, Nw=1)
        for r in range(4):
            ext = d.atom_closure(r, neigh)
            tile = d.atom_tile(r)
            assert set(tile).issubset(set(ext))
            assert set(neigh[tile].ravel()).issubset(set(ext))

    def test_dace_local_index(self, ring_neighbors):
        neigh, _ = ring_neighbors
        d = DaceDecomposition(NE=4, NA=8, TE=1, TA=4, Nw=1)
        ext = d.atom_closure(1, neigh)
        lookup = d.local_index(ext)
        for i, atom in enumerate(ext):
            assert lookup[atom] == i

    def test_dace_indivisible_raises(self):
        with pytest.raises(ValueError):
            DaceDecomposition(NE=10, NA=8, TE=3, TA=2, Nw=1)


class TestPartitionSpectralGrid:
    def test_more_ranks_than_grid_points(self):
        """The decomposition caps at one energy point per rank."""
        d = partition_spectral_grid(2, 4, 100)
        assert d.P == 8
        assert d.chunk == 1
        assert d.n_chunks == 4

    def test_uneven_chunk_requests_fall_back_to_divisors(self):
        """Budgets that would split NE unevenly pick the largest divisor."""
        d = partition_spectral_grid(1, 10, 8)
        assert d.P == 5  # 6, 7, 8 chunks do not divide NE=10
        assert d.chunk == 2

    def test_single_rank_budget_keeps_momentum_rows(self):
        """The P = Nkz fallback is always produced, even over budget."""
        d = partition_spectral_grid(3, 10, 1)
        assert d.P == 3
        assert d.n_chunks == 1
        assert d.chunk == 10

    def test_single_point_degenerate_grid(self):
        d = partition_spectral_grid(1, 1, 4)
        assert d.P == 1
        assert d.energy_slice(0) == slice(0, 1)

    def test_every_point_owned_exactly_once(self):
        d = partition_spectral_grid(2, 12, 7)  # largest fit: 2 kz x 3 chunks
        assert d.P == 6
        seen = set()
        for rank in range(d.P):
            k, _ = d.coords(rank)
            esl = d.energy_slice(rank)
            for e in range(esl.start, esl.stop):
                assert d.owner_of_energy(k, e) == rank
                seen.add((k, e))
        assert len(seen) == 2 * 12  # the full (kz, E) grid, no overlaps


@pytest.fixture(scope="module")
def schedule_data():
    rng = np.random.default_rng(21)
    NA, NB, Nkz, NE, Nqz, Nw, N3D, No = 8, 4, 2, 12, 2, 2, 2, 2
    neigh = np.zeros((NA, NB), dtype=np.int64)
    for a in range(NA):
        for b in range(NB):
            off = (b // 2 + 1) * (1 if b % 2 == 0 else -1)
            neigh[a, b] = (a + off) % NA
    rev = np.zeros_like(neigh)
    for a in range(NA):
        for b in range(NB):
            rev[a, b] = np.nonzero(neigh[neigh[a, b]] == a)[0][0]
    Dl = complex_array(rng, Nqz, Nw, NA, NB + 1, N3D, N3D)
    Dg = complex_array(rng, Nqz, Nw, NA, NB + 1, N3D, N3D)
    d = dict(
        Gl=complex_array(rng, Nkz, NE, NA, No, No),
        Gg=complex_array(rng, Nkz, NE, NA, No, No),
        dH=complex_array(rng, NA, NB, N3D, No, No),
        Dcl=preprocess_phonon_green(Dl, neigh, rev),
        Dcg=preprocess_phonon_green(Dg, neigh, rev),
        neigh=neigh,
        rev=rev,
    )
    d["Sl_ref"] = sigma_sse(d["Gl"], d["dH"], d["Dcl"], neigh, +1) + sigma_sse(
        d["Gl"], d["dH"], d["Dcg"], neigh, -1
    )
    d["Sg_ref"] = sigma_sse(d["Gg"], d["dH"], d["Dcg"], neigh, +1) + sigma_sse(
        d["Gg"], d["dH"], d["Dcl"], neigh, -1
    )
    d["Pl_ref"] = pi_sse(d["Gl"], d["Gg"], d["dH"], neigh, rev, Nqz, Nw)
    d["Pg_ref"] = pi_sse(d["Gg"], d["Gl"], d["dH"], neigh, rev, Nqz, Nw)
    return d


def run_omen(d, P):
    od = OmenDecomposition(2, 12, P)
    return run_exchange(OmenExchange(od, *d["Dcl"].shape[:2]), od, d)


def run_dace(d, TE, TA, P=None):
    od = OmenDecomposition(2, 12, P or TE * TA)
    dd = DaceDecomposition(12, 8, TE=TE, TA=TA, Nw=2)
    exchange = DaceExchange(od, dd, d["neigh"], *d["Dcl"].shape[:2])
    return run_exchange(exchange, od, d)


class TestOmenSchedule:
    @pytest.mark.parametrize("P", [2, 4, 8])
    def test_matches_serial(self, schedule_data, P):
        d = schedule_data
        (Sl, Sg, Pl, Pg), _ = run_omen(d, P)
        # same primitives, per-round ∇H·G: float summation order only
        assert close(Sl, d["Sl_ref"])
        assert close(Sg, d["Sg_ref"])
        assert close(Pl, d["Pl_ref"])
        assert close(Pg, d["Pg_ref"])

    def test_g_traffic_matches_model(self, schedule_data):
        """Exact §4.1 accounting of the executed OMEN schedule.

        The model's 64·Nkz·(NE/P)·Nqz·Nω·NA·Norb² electron-GF term counts
        4 windows (≷ x emission/absorption) per round per rank; with exact
        per-window bookkeeping (zero-padded edges trimmed, self-owned
        windows free) the measured bytes must match to the byte.
        """
        d = schedule_data
        P = 4
        od = OmenDecomposition(2, 12, P)
        _, stats = run_omen(d, P)
        Nkz, NE, NA, No, _ = d["Gl"].shape
        Nqz, Nw = d["Dcl"].shape[:2]
        row_bytes = NA * No * No * 16

        expected_g = 0
        for q in range(Nqz):
            for w in range(Nw):
                for rank in range(P):
                    k, _ = od.coords(rank)
                    esl = od.energy_slice(rank)
                    ks = (k - q) % Nkz
                    for lo, hi in (
                        (max(0, esl.start - w), max(0, esl.stop - w)),
                        (min(NE, esl.start + w), min(NE, esl.stop + w)),
                    ):
                        e = lo
                        while e < hi:
                            owner = od.owner_of_energy(ks, e)
                            stop = min(hi, (e // od.chunk + 1) * od.chunk)
                            if owner != rank:
                                # both ≷ tensors travel
                                expected_g += 2 * (stop - e) * row_bytes
                            e = stop

        d_bytes = 2 * 16 * d["Dcl"][0, 0].size
        expected_d = Nqz * Nw * d_bytes * (P - 1)  # bcast: every non-root
        pi_bytes = 2 * 16 * int(np.prod(d["Pl_ref"].shape[2:]))
        expected_pi = Nqz * Nw * pi_bytes * (P - 1)  # reduce: non-root ranks
        assert stats.total_bytes == expected_g + expected_d + expected_pi
        # The closed-form model upper-bounds the trimmed/deduplicated real
        # traffic and is approached as chunks shrink relative to Nω.
        model_g_all_ranks = 64 * Nkz * (NE / P) * Nqz * Nw * NA * No**2 * P
        assert expected_g <= model_g_all_ranks


class TestDaceSchedule:
    @pytest.mark.parametrize("TE,TA", [(2, 2), (4, 2), (2, 4), (6, 1)])
    def test_matches_serial(self, schedule_data, TE, TA):
        d = schedule_data
        (Sl, Sg, Pl, Pg), _ = run_dace(d, TE, TA)
        # one kernel: every tile runs sigma_sse's own rounds on its rows,
        # in sigma_sse's order — a few ulp (einsum's SIMD tail), no more
        assert close(Sl, d["Sl_ref"], rtol=1e-14)
        assert close(Sg, d["Sg_ref"], rtol=1e-14)
        # Π partials are summed across energy tiles
        assert close(Pl, d["Pl_ref"])
        assert close(Pg, d["Pg_ref"])

    def test_moves_less_than_omen(self, schedule_data):
        _, omen = run_omen(schedule_data, 4)
        _, dace = run_dace(schedule_data, 2, 2)
        assert dace.total_bytes < omen.total_bytes

    def test_p_mismatch_raises(self, schedule_data):
        with pytest.raises(ValueError):
            run_dace(schedule_data, 3, 2, P=4)
