"""Cross-module property-based tests on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimulationParameters
from repro.model import (
    comm_volumes,
    dace_comm_total_bytes,
    omen_comm_total_bytes,
    search_tiling,
    sse_flops_dace,
    sse_flops_omen,
)
from repro.negf.sse import (
    grad_h_g,
    hd_tensor,
    pi_tile,
    preprocess_phonon_green,
    shifted_rows,
    sigma_sse,
    sigma_tile,
)
from repro.sdfg import Map, Memlet, Range, propagate_memlet, symbols
from tests.conftest import close


_params = st.builds(
    SimulationParameters,
    Nkz=st.integers(1, 8),
    Nqz=st.just(1),
    NE=st.integers(64, 512),
    Nw=st.integers(4, 32),
    NA=st.integers(256, 4096),
    NB=st.integers(4, 32),
    Norb=st.integers(2, 16),
    bnum=st.integers(4, 16),
).map(lambda p: p.replace(Nqz=p.Nkz))


class TestModelProperties:
    @given(p=_params)
    @settings(max_examples=40, deadline=None)
    def test_dace_flops_never_exceed_omen(self, p):
        assert sse_flops_dace(p) <= sse_flops_omen(p)

    @given(p=_params, P=st.sampled_from([64, 128, 256, 512]))
    @settings(max_examples=40, deadline=None)
    def test_searched_volume_below_omen(self, p, P):
        t = search_tiling(p, P)
        v = comm_volumes(p, P, t.TE, t.TA)
        assert v.dace <= v.omen

    @given(p=_params)
    @settings(max_examples=30, deadline=None)
    def test_omen_volume_monotone_in_p(self, p):
        assert omen_comm_total_bytes(p, 128) <= omen_comm_total_bytes(p, 256)

    @given(p=_params, TE=st.sampled_from([1, 2, 4]), TA=st.sampled_from([8, 16]))
    @settings(max_examples=30, deadline=None)
    def test_dace_volume_positive(self, p, TE, TA):
        assert dace_comm_total_bytes(p, TE, TA) > 0


class TestPropagationProperties:
    @given(
        shift=st.integers(-4, 4),
        n=st.integers(2, 8),
        m=st.integers(1, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_propagated_range_covers_all_accesses(self, shift, n, m):
        """Brute-force enumeration is always inside the propagated box."""
        i, j = symbols("i j")
        mem = Memlet("A", Range([(i + shift * j, i + shift * j)]))
        mp = Map("m", ["i", "j"], Range([(0, n - 1), (0, m - 1)]))
        out = propagate_memlet(mem, mp)
        b, e, _ = out.subset.evaluate({})[0]
        for ii in range(n):
            for jj in range(m):
                assert b <= ii + shift * jj <= e


class TestSSEProperties:
    @given(seed=st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_variants_agree_on_random_inputs(self, seed, ring_neighbors):
        neigh, rev = ring_neighbors
        rng = np.random.default_rng(seed)
        NA, NB = neigh.shape
        Nkz, NE, Nqz, Nw, N3D, No = 2, 5, 2, 2, 2, 2

        def c(*s):
            return rng.standard_normal(s) + 1j * rng.standard_normal(s)

        G = c(Nkz, NE, NA, No, No)
        dH = c(NA, NB, N3D, No, No)
        Dc = preprocess_phonon_green(c(Nqz, Nw, NA, NB + 1, N3D, N3D), neigh, rev)
        a = sigma_sse(G, dH, Dc, neigh, +1, "omen")
        b = sigma_sse(G, dH, Dc, neigh, +1, "dace")
        assert np.allclose(a, b, atol=1e-10)

    @given(scale=st.floats(0.1, 10.0))
    @settings(max_examples=10, deadline=None)
    def test_bilinearity(self, scale, ring_neighbors):
        neigh, rev = ring_neighbors
        rng = np.random.default_rng(5)
        NA, NB = neigh.shape

        def c(*s):
            return rng.standard_normal(s) + 1j * rng.standard_normal(s)

        G = c(2, 4, NA, 2, 2)
        dH = c(NA, NB, 2, 2, 2)
        Dc = preprocess_phonon_green(c(2, 2, NA, NB + 1, 2, 2), neigh, rev)
        base = sigma_sse(G, dH, Dc, neigh)
        scaled = sigma_sse(G, dH, scale * Dc, neigh)
        assert np.allclose(scaled, scale * base, rtol=1e-9)


@st.composite
def _tiled_domain(draw):
    """Grid dims plus a random partition of the energy axis into 1-4 tiles."""
    NE = draw(st.integers(1, 12))
    Nw = draw(st.integers(1, NE + 2))
    Nkz = draw(st.integers(1, 3))
    Nqz = draw(st.integers(1, Nkz + 1))  # Nqz > Nkz: the kz index wraps twice
    cuts = draw(st.lists(st.integers(1, NE), max_size=3, unique=True))
    edges = sorted({0, NE, *cuts})
    return NE, Nw, Nkz, Nqz, list(zip(edges[:-1], edges[1:])), draw(st.integers(0, 50))


class TestTileKernelProperties:
    """One kernel: an energy tile of a halo window is the whole-domain
    kernel restricted to its rows — clipped edge tiles and shifts wider
    than the tile included.  Each tile gets its ``∇H·G`` the way
    ``RankSSEStore.dace_compute`` builds it — :func:`grad_h_g` on the
    halo window — so the test states the contract, not the layout.  Σ
    tiles sum the same products in the same order (a few ulp at most);
    Π partials are summed."""

    @given(dom=_tiled_domain())
    @settings(max_examples=40, deadline=None)
    def test_tiles_reassemble_whole_domain(self, dom, ring_neighbors):
        NE, Nw, Nkz, Nqz, tiles, seed = dom
        neigh, rev = ring_neighbors
        rng = np.random.default_rng(seed)
        NA, NB = neigh.shape

        def c(*s):
            return rng.standard_normal(s) + 1j * rng.standard_normal(s)

        G, G2 = c(Nkz, NE, NA, 2, 2), c(Nkz, NE, NA, 2, 2)
        dH = c(NA, NB, 2, 2, 2)
        dH_ba = dH[neigh, rev]
        hd = hd_tensor(dH, c(Nqz, Nw, NA, NB, 2, 2))
        G_b, G2_b = G[:, :, neigh], G2[:, :, neigh]
        windows = [(lo, hi, max(0, lo - Nw + 1)) for lo, hi in tiles]
        gh_win = [grad_h_g(G_b[:, win_lo:], dH) for _, _, win_lo in windows]
        gh = grad_h_g(G_b, dH)
        for sign in (+1, -1):
            parts = [
                sigma_tile(gh_w, hd, sign, NE, (lo, hi), win_lo)
                for gh_w, (lo, hi, win_lo) in zip(gh_win, windows)
            ]
            whole = sigma_tile(gh, hd, sign, NE)
            assert close(np.concatenate(parts, axis=1), whole, 1e-14)
        partial = sum(
            pi_tile(G[:, win_lo:], G2_b[:, win_lo:], dH, dH_ba, Nqz, Nw, NE,
                    (lo, hi), win_lo)
            for lo, hi, win_lo in windows
        )
        whole = pi_tile(G, G2_b, dH, dH_ba, Nqz, Nw, NE)
        assert close(partial, whole, 1e-13)

    @given(
        NE=st.integers(1, 12), lo=st.integers(0, 12), n=st.integers(0, 12),
        w=st.integers(0, 14), sign=st.sampled_from([+1, -1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_shifted_rows_matches_brute_force(self, NE, lo, n, w, sign):
        lo = min(lo, NE)
        hi = min(lo + n, NE)
        oracle = [
            (E - sign * w, E - lo)
            for E in range(lo, hi)
            if 0 <= E - sign * w < NE
        ]
        src_lo, src_hi, dst_off = shifted_rows(lo, hi, w, sign, NE)
        rows = [(src_lo + i, dst_off + i) for i in range(src_hi - src_lo)]
        assert rows == oracle
