"""Spectral-grid engine: batched RGF, backend equivalence, boundary cache."""

import functools

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
from repro.negf import boundary
from repro.negf import engine as engine_module
from repro.negf.engine import BatchedEngine, SerialEngine, make_engine
from repro.negf.rgf import _H, interface_support
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


def _slab_model(slab_width):
    """A small generated device whose lead cell is ``slab_width`` slabs."""
    nx_cols = 9 if slab_width == 3 else 8
    dev = build_device(nx_cols=nx_cols, ny_rows=3, NB=6, slab_width=slab_width)
    return build_hamiltonian_model(dev, Norb=2)


def _scattered_lead(n=12, seed=9):
    """``(H00, H01, S01)`` whose coupling sits on scattered rows 1, 3, 5
    and columns 6, 8, 11: bounding ranges of <= half the block."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H00 = 0.25 * (m + m.conj().T)
    H01 = np.zeros((n, n), dtype=complex)
    rows, cols = [1, 3, 5], [6, 8, 11]
    H01[np.ix_(rows, cols)] = 0.3 * rng.standard_normal((3, 3))
    S01 = np.zeros((n, n), dtype=complex)
    S01[rows[0], cols[-1]] = 0.05
    return H00, H01, S01


def _assert_fixed_point(z, H00, H01, S00=None, S01=None, eta=1e-6, rtol=1e-10):
    """``sancho_rubio_batched``'s surface GF against its defining
    equation ``g = (M - α g β)^-1`` (``M = z S00 - H00``,
    ``α = -(z S01 - H01)``, ``β = α†``), contracted over whole blocks,
    to ``rtol`` of the largest entry."""
    g = sancho_rubio_batched(z, H00, H01, S00, S01, eta=eta)
    n = H00.shape[0]
    S00 = np.eye(n) if S00 is None else S00
    S01 = np.zeros_like(H01) if S01 is None else S01
    zc = (z + 1j * np.asarray(eta))[:, None, None]
    alpha = -(zc * S01 - H01)
    closed = np.linalg.inv(zc * S00 - H00 - alpha @ g @ _H(alpha))
    assert np.abs(closed - g).max() <= rtol * np.abs(g).max()


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
    @pytest.mark.parametrize("slab_width", [1, 2, 3, 4])
    def test_interface_support_matches_dense_loop(self, slab_width, side):
        """The face-chain decimation (face = 1/slab_width of the cell; the
        whole cell at slab_width 1; at slab_width 3 the cell has an
        interior beyond both faces) against the dense loop: electrons with
        S01 != 0, phonons with array eta."""
        model = _slab_model(slab_width)
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
        H00, H01, S01 = _scattered_lead()
        n = H00.shape[0]
        assert interface_support(H01) == (slice(1, 6), slice(6, 12))
        energies = np.linspace(-1.0, 1.0, 4)
        _assert_matches_dense(
            energies, H00, H01, side, np.eye(n), S01, eta=1e-3
        )
        zero = np.zeros((n, n), dtype=complex)
        _assert_matches_dense(energies, H00, zero, side, eta=1e-3)
        g = sancho_rubio_batched(energies, H00, zero, eta=1e-3)
        eps = (energies + 1e-3j)[:, None, None] * np.eye(n) - H00
        assert np.allclose(g, np.linalg.inv(eps), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("flip", [np.asarray, _H], ids=["+x", "-x"])
    @pytest.mark.parametrize("slab_width", [1, 2, 4])
    def test_surface_gf_is_a_fixed_point(self, slab_width, flip):
        """The whole cell's surface GF closes over the face chain's: it
        solves g = (M - α g[c, c] β on [r, r])^-1 for chains running
        either way, electrons with S01 != 0 and phonons with array eta.

        Its 1e-10 bound holds on well-conditioned decimation steps only:
        this grid misses the near-singular ones (the slab_width-3 left
        lead at E = -0.3 misses its fixed point by 6.6e-9 at η = 1e-5).
        :meth:`test_fixed_point_bound_at_e2e_eta` states the bound that
        holds there."""
        model = _slab_model(slab_width)
        H, S = model.hamiltonian_blocks(0.3), model.overlap_blocks(0.3)
        Phi = model.dynamical_blocks(0.3)
        _assert_fixed_point(
            np.linspace(-1.0, 1.0, 5), H.diag[0], flip(H.upper[0]),
            S.diag[0], flip(S.upper[0]), eta=1e-5,
        )
        _assert_fixed_point(
            np.array([0.2, 0.5, 0.9]), Phi.diag[0], flip(Phi.upper[0]),
            eta=np.array([1e-5, 2e-5, 3e-5]),
        )

    def test_fixed_point_bound_at_e2e_eta(self):
        """The bound the decimation meets at the e2e workloads' η = 1e-6.

        The left lead of the slab_width-3 device has a near-singular
        decimation step at E = -0.3: there the surface GF misses its
        fixed point by 6.8e-9 relative (6.6e-9 at η = 1e-5, 2.9e-11 at
        1e-4; 1.5e-14 .. 2.5e-11 at its neighbors -0.32 .. -0.28).  The
        worst measured on any e2e lead at η = 1e-6 is 7.2e-8 (scba_gf's
        96-wide left lead, seed 1234, kz 0.3, 61 energies in
        [-1.5, 1.5]); the stated bound is 1e-7."""
        model = _slab_model(3)
        H, S = model.hamiltonian_blocks(0.3), model.overlap_blocks(0.3)
        _assert_fixed_point(
            np.array([-0.32, -0.3, -0.28]), H.diag[0], _H(H.upper[0]),
            S.diag[0], _H(S.upper[0]), eta=1e-6, rtol=1e-7,
        )

    @pytest.mark.parametrize("flip", [np.asarray, _H], ids=["+x", "-x"])
    def test_scattered_support_is_a_fixed_point(self, flip):
        H00, H01, S01 = _scattered_lead()
        _assert_fixed_point(
            np.linspace(-1.0, 1.0, 4), H00, flip(H01), np.eye(len(H00)),
            flip(S01), eta=1e-3,
        )

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

    @pytest.mark.parametrize("engine", ["serial", "batched"])
    def test_cached_entries_match_fresh_solves(self, sim_factory, engine):
        """Every memoized lead self-energy of a finished run equals a
        fresh one-point solve at that grid point."""
        sim = sim_factory(engine=engine)
        sim.run()
        g, s, cache = sim.grid, sim.s, sim.engine.boundary
        assert len(cache._el) == s.Nkz * s.NE
        assert len(cache._ph) == s.Nqz * s.Nw
        for (ik, iE), cached in cache._el.items():
            H, S = g.electron_operators(ik)
            E = g.energies[iE : iE + 1]
            for side, blk, sig in zip(("left", "right"), (0, -1), cached):
                fresh = lead_self_energy_batched(
                    E, H.diag[blk], H.upper[blk], side, S.diag[blk],
                    S.upper[blk], eta=s.eta,
                )[0]
                assert np.abs(sig - fresh).max() <= 1e-12
        for (iq, iw), cached in cache._ph.items():
            Phi = g.phonon_operators(iq)
            z, eta_eff = cache._phonon_z_eta(g.omegas[iw : iw + 1], s.eta)
            for side, blk, pi in zip(("left", "right"), (0, -1), cached):
                fresh = lead_self_energy_batched(
                    z, Phi.diag[blk], Phi.upper[blk], side,
                    eta=eta_eff,
                )[0]
                assert np.abs(pi - fresh).max() <= 1e-12

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_non_convergence_names_lead_and_momentum(
        self, sim_factory, monkeypatch, side
    ):
        """One lead's decimation stalls (``max_iter=1``): the error raised
        through the cache names the lead side and the momentum index, and
        keeps the decimation's own message."""
        solve = engine_module.lead_self_energy_batched
        stalled = functools.partial(boundary._face_decimation, max_iter=1)

        def one_stalled_lead(*args, **kwargs):
            with monkeypatch.context() as m:
                if args[3] == side:
                    m.setattr(boundary, "_face_decimation", stalled)
                return solve(*args, **kwargs)

        monkeypatch.setattr(
            engine_module, "lead_self_energy_batched", one_stalled_lead
        )
        sim = sim_factory(engine="batched")
        g, cache = sim.grid, sim.engine.boundary
        points = np.arange(2)
        with pytest.raises(
            RuntimeError,
            match=rf"^{side} lead at ik=1: Sancho-Rubio decimation did not "
            r"converge in max_iter=1 steps: 2 of 2 energies unconverged",
        ):
            cache.electron_row(1, points, g.energies[points], *g.electron_operators(1))
        with pytest.raises(
            RuntimeError,
            match=rf"^{side} lead at iq=1: Sancho-Rubio decimation did not "
            r"converge in max_iter=1 steps",
        ):
            cache.phonon_row(1, points, g.omegas[points], g.phonon_operators(1))
        assert cache.counters() == dict.fromkeys(cache.counters(), 0)


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
