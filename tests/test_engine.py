"""Spectral-grid engine: batched RGF, backend equivalence, boundary cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EXECUTION_BACKENDS
from repro.negf import (
    SCBASettings,
    SCBASimulation,
    block_offsets,
    build_device,
    build_hamiltonian_model,
    dense_reference,
    lead_self_energy,
    lead_self_energy_batched,
    rgf_solve,
    rgf_solve_batched,
    sancho_rubio_batched,
)
from repro.negf.engine import BatchedEngine, SerialEngine, make_engine
from repro.negf.rgf import interface_support
from repro.parallel import OmenDecomposition, partition_spectral_grid

from test_rgf_boundary import random_system


def stacked_random_system(batch, sizes, seed=0):
    """``batch`` independent systems stacked along a leading axis."""
    per_point = [random_system(sizes, seed=seed + 17 * b) for b in range(batch)]
    diag = [
        np.stack([p[0][i] for p in per_point]) for i in range(len(sizes))
    ]
    upper = [
        np.stack([p[1][i] for p in per_point]) for i in range(len(sizes) - 1)
    ]
    sless = [
        np.stack([p[2][i] for p in per_point]) for i in range(len(sizes))
    ]
    return diag, upper, sless


class TestBatchedRGF:
    @given(
        nblocks=st.integers(1, 4),
        size=st.integers(1, 4),
        batch=st.integers(1, 5),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_matches_serial_and_dense(self, nblocks, size, batch, seed):
        sizes = [size] * nblocks
        diag, upper, sless = stacked_random_system(batch, sizes, seed=seed)
        res = rgf_solve_batched(diag, upper, sless)
        offs = block_offsets([d[0] for d in diag])
        for b in range(batch):
            point = rgf_solve(
                [d[b] for d in diag], [u[b] for u in upper], [s[b] for s in sless]
            )
            GRd, Gld = dense_reference(
                [d[b] for d in diag], [u[b] for u in upper], [s[b] for s in sless]
            )
            for i in range(nblocks):
                sl = slice(offs[i], offs[i + 1])
                assert np.abs(res.GR[i][b] - point.GR[i]).max() < 1e-10
                assert np.abs(res.Gl[i][b] - point.Gl[i]).max() < 1e-10
                assert np.abs(res.Gg[i][b] - point.Gg[i]).max() < 1e-10
                assert np.abs(res.GR[i][b] - GRd[sl, sl]).max() < 1e-10
                assert np.abs(res.Gl[i][b] - Gld[sl, sl]).max() < 1e-10

    def test_mixed_block_sizes(self):
        sizes = [2, 5, 3, 4]
        diag, upper, sless = stacked_random_system(3, sizes, seed=7)
        res = rgf_solve_batched(diag, upper, sless)
        for b in range(3):
            point = rgf_solve(
                [d[b] for d in diag], [u[b] for u in upper], [s[b] for s in sless]
            )
            for i in range(len(sizes)):
                assert np.allclose(res.Gl[i][b], point.Gl[i], atol=1e-12)

    def test_shared_2d_upper_broadcasts(self):
        """2-D coupling blocks (the phonon case) broadcast across the batch."""
        sizes = [3, 3, 3]
        diag, upper, sless = stacked_random_system(4, sizes, seed=3)
        shared = [u[0] for u in upper]
        res = rgf_solve_batched(diag, shared, sless)
        for b in range(4):
            point = rgf_solve(
                [d[b] for d in diag], shared, [s[b] for s in sless]
            )
            for i in range(len(sizes)):
                assert np.allclose(res.Gl[i][b], point.Gl[i], atol=1e-12)

    def test_retarded_only_mode(self):
        diag, upper, _ = stacked_random_system(2, [3, 3], seed=1)
        res = rgf_solve_batched(diag, upper)
        assert res.Gl == [] and res.Gg == []
        assert res.batch == 2 and res.bnum == 2

    def test_point_view(self):
        diag, upper, sless = stacked_random_system(2, [3, 2], seed=5)
        res = rgf_solve_batched(diag, upper, sless)
        point = res.point(1)
        assert np.allclose(point.Gl[0], res.Gl[0][1])

    def test_wrong_upper_count_raises(self):
        diag, upper, sless = stacked_random_system(2, [3, 3], seed=0)
        with pytest.raises(ValueError):
            rgf_solve_batched(diag, [], sless)

    def test_wrong_sigma_count_raises(self):
        diag, upper, sless = stacked_random_system(2, [3, 3], seed=0)
        with pytest.raises(ValueError):
            rgf_solve_batched(diag, upper, sless[:1])

    def test_non_batched_diag_raises(self):
        diag, upper, sless = random_system([3, 3])
        with pytest.raises(ValueError):
            rgf_solve_batched(diag, upper, sless)


def _dense_sancho_rubio(
    z, H00, H01, S00=None, S01=None, eta=1e-6, tol=1e-12, max_iter=200
):
    """The seed's scalar decimation loop — eight dense n³ GEMMs per step,
    no support contraction: the independent oracle of the production
    solver, which contracts over the coupling's interface support."""
    n = H00.shape[0]
    S00 = np.eye(n) if S00 is None else S00
    S01 = np.zeros_like(H01) if S01 is None else S01
    zc = z + 1j * eta

    eps_s = zc * S00 - H00  # surface block
    eps = eps_s.copy()  # bulk block
    alpha = -(zc * S01 - H01)  # coupling to the next cell
    beta = alpha.conj().T

    for _ in range(max_iter):
        g_bulk = np.linalg.solve(eps, np.eye(n))
        agb = alpha @ g_bulk @ beta
        bga = beta @ g_bulk @ alpha
        eps_s = eps_s - agb
        eps = eps - agb - bga
        alpha = alpha @ g_bulk @ alpha
        beta = beta @ g_bulk @ beta
        if np.linalg.norm(alpha, ord="fro") < tol and np.linalg.norm(
            beta, ord="fro"
        ) < tol:
            break
    else:
        raise RuntimeError("Sancho-Rubio decimation did not converge")
    return np.linalg.solve(eps_s, np.eye(n))


def _dense_lead_self_energy(z, H00, H01, side, S00=None, S01=None, eta=1e-6):
    """:func:`lead_self_energy`'s Σ on top of :func:`_dense_sancho_rubio`."""
    S01 = np.zeros_like(H01) if S01 is None else S01
    tau = (z + 1j * eta) * S01 - H01
    if side == "right":
        g = _dense_sancho_rubio(z, H00, H01, S00, S01, eta)
        return tau @ g @ tau.conj().T
    g = _dense_sancho_rubio(z, H00, H01.conj().T, S00, S01.conj().T, eta)
    return tau.conj().T @ g @ tau


def _assert_matches_dense(z, H00, H01, side, S00=None, S01=None, eta=1e-6):
    batched = lead_self_energy_batched(z, H00, H01, side, S00, S01, eta=eta)
    etas = np.broadcast_to(eta, np.shape(z))
    for i, (zi, ei) in enumerate(zip(z, etas)):
        ref = _dense_lead_self_energy(zi, H00, H01, side, S00, S01, float(ei))
        assert np.abs(batched[i] - ref).max() < 1e-10


class TestBatchedBoundary:
    def test_matches_per_point(self, small_model):
        H = small_model.hamiltonian_blocks(0.3)
        S = small_model.overlap_blocks(0.3)
        energies = np.linspace(-1.0, 1.0, 7)
        for side in ("left", "right"):
            _assert_matches_dense(
                energies, H.diag[0], H.upper[0], side, S.diag[0], S.upper[0],
                eta=1e-5,
            )

    def test_per_point_eta(self, small_model):
        """Array-valued broadening (the phonon convention) is honored."""
        Phi = small_model.dynamical_blocks(0.5)
        z = np.array([0.5, 0.9])
        eta = np.array([1e-5, 3e-5])
        _assert_matches_dense(z, Phi.diag[0], Phi.upper[0], "left", eta=eta)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("slab_width", [1, 2, 4])
    def test_interface_support_matches_dense_loop(self, slab_width, side):
        """The support-contracted decimation (interface layer = 1/slab_width
        of each dimension; the whole block at slab_width 1) against the
        dense loop: electrons with S01 != 0, phonons with array eta."""
        dev = build_device(nx_cols=8, ny_rows=3, NB=6, slab_width=slab_width)
        model = build_hamiltonian_model(dev, Norb=2)
        H, S = model.hamiltonian_blocks(0.3), model.overlap_blocks(0.3)
        assert np.abs(S.upper[0]).max() > 0
        _assert_matches_dense(
            np.linspace(-1.0, 1.0, 5), H.diag[0], H.upper[0], side,
            S.diag[0], S.upper[0], eta=1e-5,
        )
        Phi = model.dynamical_blocks(0.3)
        _assert_matches_dense(
            np.array([0.2, 0.5, 0.9]), Phi.diag[0], Phi.upper[0], side,
            eta=np.array([1e-5, 2e-5, 3e-5]),
        )

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_scattered_and_zero_support(self, side):
        """Hand-built couplings on the other branches of the support rule:
        scattered rows and columns whose bounding ranges are <= half of
        the block (the ranges hold exact zeros between them), and an
        all-zero coupling, whose decoupled lead is g = eps^-1 and Σ = 0."""
        n = 12
        rng = np.random.default_rng(9)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H00 = 0.25 * (m + m.conj().T)
        H01 = np.zeros((n, n), dtype=complex)
        rows, cols = [1, 3, 5], [6, 8, 11]
        H01[np.ix_(rows, cols)] = 0.3 * rng.standard_normal((3, 3))
        assert interface_support(H01) == (slice(1, 6), slice(6, 12))
        S01 = np.zeros((n, n), dtype=complex)
        S01[rows[0], cols[-1]] = 0.05
        energies = np.linspace(-1.0, 1.0, 4)
        _assert_matches_dense(
            energies, H00, H01, side, np.eye(n), S01, eta=1e-3
        )
        zero = np.zeros((n, n), dtype=complex)
        _assert_matches_dense(energies, H00, zero, side, eta=1e-3)
        g = sancho_rubio_batched(energies, H00, zero, eta=1e-3)
        eps = (energies + 1e-3j)[:, None, None] * np.eye(n) - H00
        assert np.allclose(g, np.linalg.inv(eps), rtol=1e-12, atol=0)

    def test_non_convergence_names_the_point(self, small_model):
        H = small_model.hamiltonian_blocks(0.3)
        energies = np.array([-0.5, 0.25])
        with pytest.raises(
            RuntimeError,
            match=r"max_iter=1 steps: 2 of 2 energies unconverged, first at "
            r"z=-0\.5\S* \(eta=1e-05\); largest remaining coupling norm",
        ):
            sancho_rubio_batched(
                energies, H.diag[0], H.upper[0], eta=1e-5, max_iter=1
            )

    def test_transfer_matrix_fallback(self, small_model):
        H = small_model.hamiltonian_blocks(0.0)
        S = small_model.overlap_blocks(0.0)
        energies = np.array([0.1, 0.4])
        batched = lead_self_energy_batched(
            energies, H.diag[0], H.upper[0], "right", S.diag[0], S.upper[0],
            eta=1e-5, method="transfer-matrix",
        )
        ref = lead_self_energy(
            0.4, H.diag[0], H.upper[0], "right", S.diag[0], S.upper[0],
            eta=1e-5, method="transfer-matrix",
        )
        assert np.abs(batched[1] - ref).max() < 1e-12


@pytest.fixture(scope="module")
def sim_factory():
    dev = build_device(nx_cols=6, ny_rows=3, NB=4, slab_width=2)
    model = build_hamiltonian_model(dev, Norb=2)

    def make(**kwargs):
        defaults = dict(
            NE=8, Nkz=2, Nqz=2, Nw=2, e_min=-1.2, e_max=1.2,
            mu_left=0.2, mu_right=-0.2, eta=1e-4,
            coupling=0.25, mixing=0.6, max_iterations=4, tolerance=1e-12,
        )
        defaults.update(kwargs)
        return SCBASimulation(model, SCBASettings(**defaults))

    return make


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", ["batched"])
    def test_ballistic_matches_serial(self, sim_factory, backend):
        ref = sim_factory(engine="serial").run(ballistic=True)
        res = sim_factory(engine=backend).run(ballistic=True)
        for name in ("Gl", "Gg", "Dl", "Dg", "current_left", "current_right"):
            diff = np.abs(getattr(res, name) - getattr(ref, name)).max()
            assert diff < 1e-10, f"{backend}.{name} deviates by {diff}"

    @pytest.mark.parametrize("backend", ["batched"])
    def test_dissipative_matches_serial(self, sim_factory, backend):
        ref = sim_factory(engine="serial").run()
        res = sim_factory(engine=backend).run()
        assert res.iterations == ref.iterations
        for name in ("Gl", "Gg", "Dl", "Dg", "Sigma_l", "Sigma_g", "Pi_l",
                     "Pi_g", "current_left", "density", "dissipation"):
            diff = np.abs(getattr(res, name) - getattr(ref, name)).max()
            assert diff < 1e-10, f"{backend}.{name} deviates by {diff}"

    def test_flux_conservation_through_batched_engine(self, sim_factory):
        """Ballistic I_L ≈ -I_R through the new engine: the mismatch is
        set by the η broadening and vanishes as η -> 0."""
        mismatches = []
        for eta in (1e-4, 1e-6):
            res = sim_factory(engine="batched", eta=eta).run(ballistic=True)
            mismatches.append(
                abs(res.total_current_left + res.total_current_right)
                / abs(res.total_current_left)
            )
        assert mismatches[0] < 0.1  # already small at coarse broadening
        assert mismatches[1] < mismatches[0] / 10  # and scales away with η

    def test_engine_attribute_matches_setting(self, sim_factory):
        assert isinstance(sim_factory(engine="serial").engine, SerialEngine)
        assert isinstance(sim_factory(engine="batched").engine, BatchedEngine)

    def test_unknown_engine_raises(self, sim_factory):
        with pytest.raises(ValueError, match="unknown engine"):
            sim_factory(engine="gpu")

    def test_default_engine_valid(self):
        assert SCBASettings().engine == "batched"
        assert SCBASettings().engine in EXECUTION_BACKENDS


class TestBoundaryCache:
    def test_solver_invoked_once_per_point_serial(self, sim_factory):
        """The satellite fix: boundary solves happen once per grid point
        per run, not once per SCBA iteration."""
        sim = sim_factory(engine="serial")
        res = sim.run()
        s = sim.s
        cache = sim.engine.boundary
        assert res.iterations > 1
        assert cache.el_solves == 2 * s.Nkz * s.NE
        assert cache.ph_solves == 2 * s.Nqz * s.Nw
        # Every later iteration is served from the cache.
        assert cache.el_hits == (res.iterations - 1) * s.Nkz * s.NE
        assert cache.ph_hits == (res.iterations - 1) * s.Nqz * s.Nw

    def test_solver_invoked_once_per_point_batched(self, sim_factory):
        sim = sim_factory(engine="batched")
        res = sim.run()
        s = sim.s
        cache = sim.engine.boundary
        assert cache.el_solves == 2 * s.Nkz * s.NE
        assert cache.ph_solves == 2 * s.Nqz * s.Nw
        assert cache.el_hits == (res.iterations - 1) * s.Nkz * s.NE

    def test_seed_mode_recomputes_every_iteration(self, sim_factory):
        """cache_boundary=False restores the seed per-iteration behavior."""
        sim = sim_factory(engine="serial", cache_boundary=False)
        res = sim.run()
        s = sim.s
        cache = sim.engine.boundary
        assert cache.el_solves == res.iterations * 2 * s.Nkz * s.NE
        assert cache.el_hits == 0

    def test_cached_values_match_uncached(self, sim_factory):
        a = sim_factory(engine="serial").run()
        b = sim_factory(engine="serial", cache_boundary=False).run()
        assert np.abs(a.Gl - b.Gl).max() < 1e-12


class TestPartition:
    def test_reuses_omen_decomposition(self):
        d = partition_spectral_grid(4, 64, 8)
        assert isinstance(d, OmenDecomposition)
        assert d.P == 8 and d.n_chunks == 2

    def test_falls_back_to_momentum_only(self):
        d = partition_spectral_grid(3, 7, 100)
        # 7 is prime: chunks can only be 1 or 7.
        assert d.P in (3, 21)
        assert d.NE % d.n_chunks == 0

    def test_respects_budget(self):
        d = partition_spectral_grid(2, 16, 5)
        assert d.P <= max(5, 2)
        assert d.P % 2 == 0

    def test_minimum_one_chunk(self):
        d = partition_spectral_grid(5, 13, 1)
        assert d.P == 5 and d.chunk == 13
