"""Self-consistent Born driver: physics invariants and convergence."""

import numpy as np
import pytest

from repro.negf import (
    SCBASettings,
    SCBASimulation,
    SelfEnergies,
    born_loop,
    bose,
    build_device,
    build_hamiltonian_model,
    fermi,
)


@pytest.fixture(scope="module")
def sim_factory():
    dev = build_device(nx_cols=6, ny_rows=3, NB=4, slab_width=2)
    model = build_hamiltonian_model(dev, Norb=2)

    def make(**kwargs):
        defaults = dict(
            NE=12, Nkz=2, Nqz=2, Nw=2, e_min=-1.3, e_max=1.3,
            mu_left=0.2, mu_right=-0.2, eta=1e-5,
            coupling=0.25, mixing=0.6, max_iterations=20, tolerance=1e-5,
        )
        defaults.update(kwargs)
        return SCBASimulation(model, SCBASettings(**defaults))

    return make


class TestBornLoop:
    """The one GF ⇄ SSE state machine, driven with stub phases."""

    @staticmethod
    def _drive(residuals, **kwargs):
        """Run the loop over scripted residuals; returns (result, calls)."""
        calls = []

        def gf_phase(it):
            calls.append(("gf", it))
            return residuals[it]

        def sse_phase(it):
            calls.append(("sse", it))

        kwargs.setdefault("tolerance", 1e-3)
        kwargs.setdefault("ballistic", False)
        return born_loop(gf_phase, sse_phase, **kwargs), calls

    def test_first_iteration_yields_no_residual(self):
        (iterations, converged, history), calls = self._drive(
            [None, 0.5], max_iterations=2
        )
        assert history == [0.5]  # nothing recorded for iteration 0
        assert calls[:2] == [("gf", 0), ("sse", 0)]

    def test_converges_before_the_sse_phase(self):
        (iterations, converged, history), calls = self._drive(
            [None, 0.5, 1e-4, 1e-9], max_iterations=10
        )
        assert (iterations, converged) == (3, True)
        assert history == [0.5, 1e-4]
        # the converged iteration ran its GF phase only
        assert calls[-2:] == [("sse", 1), ("gf", 2)]

    def test_ballistic_is_one_gf_phase(self):
        (iterations, converged, history), calls = self._drive(
            [None], max_iterations=10, ballistic=True
        )
        assert (iterations, converged, history) == (1, True, [])
        assert calls == [("gf", 0)]

    def test_exhausted_iterations_are_not_converged(self):
        (iterations, converged, history), calls = self._drive(
            [None, 0.5, 0.4, 0.3], max_iterations=4
        )
        assert (iterations, converged) == (4, False)
        assert len(history) == 4 - 1
        assert calls.count(("sse", 3)) == 1


class TestSelfEnergies:
    """The one mixing rule, on every domain a ``SelfEnergies`` holds."""

    #: (Σ shape, Π shape) per domain, on a 6 x 3 device (NA 18, NB 4)
    DOMAINS = {
        "whole": ((2, 12, 18, 2, 2), (2, 2, 18, 5, 3, 3)),
        "rank_rows": ((3, 18, 2, 2), (2, 18, 5, 3, 3)),
        # P = 8 on a (Nqz, Nw) = (2, 2) grid: half the ranks own no row
        "rank_no_rows": ((3, 18, 2, 2), (0, 18, 5, 3, 3)),
    }
    SETTINGS = SCBASettings(mixing=0.6)

    @pytest.fixture(params=sorted(DOMAINS))
    def iterates(self, request):
        """Two SSE evaluations ``(Σ<, Σ>, Π<, Π>)`` on one domain."""
        rng = np.random.default_rng(7)
        sigma, pi = self.DOMAINS[request.param]
        return [
            tuple(
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for shape in (sigma, sigma, pi, pi)
            )
            for _ in range(2)
        ]

    @staticmethod
    def _state(se):
        return se.Sl, se.Sg, se.Pl, se.Pg

    def test_first_iterate_is_taken_as_is(self, iterates):
        se = SelfEnergies(self.SETTINGS)
        assert se.Sr is None and se.Pr is None  # scattering-free start
        se.update(*iterates[0])
        for got, new in zip(self._state(se), iterates[0]):
            np.testing.assert_array_equal(got, new)

    def test_second_iterate_mixes_linearly(self, iterates):
        m = self.SETTINGS.mixing
        se = SelfEnergies(self.SETTINGS)
        for new in iterates:
            se.update(*new)
        for got, old, new in zip(self._state(se), *iterates):
            np.testing.assert_array_equal(got, (1 - m) * old + m * new)

    def test_retarded_parts_follow_the_mixed_state(self, iterates):
        se = SelfEnergies(self.SETTINGS)
        for new in iterates:
            se.update(*new)
            np.testing.assert_array_equal(se.Sr, (se.Sg - se.Sl) / 2)
            np.testing.assert_array_equal(se.Pr, (se.Pg - se.Pl) / 2)
            assert se.Pr.shape == new[2].shape


class TestOccupations:
    def test_fermi_limits(self):
        assert fermi(-100.0, 0.0, 0.05) == pytest.approx(1.0)
        assert fermi(+100.0, 0.0, 0.05) == pytest.approx(0.0)
        assert fermi(0.0, 0.0, 0.05) == pytest.approx(0.5)

    def test_fermi_no_overflow(self):
        assert np.isfinite(fermi(1e6, 0.0, 1e-9))

    def test_bose_positive_and_diverges_at_zero(self):
        assert bose(1e-9, 0.1) > bose(0.5, 0.1) > 0

    def test_bose_high_t(self):
        # classical limit n ≈ kT/ω
        assert bose(0.01, 1.0) == pytest.approx(100.0, rel=0.01)


class TestBallistic:
    def test_flux_conservation_scales_with_eta(self, sim_factory):
        mismatches = []
        for eta in (1e-4, 1e-6):
            res = sim_factory(eta=eta).run(ballistic=True)
            mismatches.append(
                abs(res.total_current_left + res.total_current_right)
            )
        assert mismatches[1] < mismatches[0] / 10

    def test_current_direction_follows_bias(self, sim_factory):
        res = sim_factory().run(ballistic=True)
        assert res.total_current_left > 0  # μ_L > μ_R drives L -> R

    def test_zero_bias_zero_current(self, sim_factory):
        res = sim_factory(mu_left=0.0, mu_right=0.0).run(ballistic=True)
        scale = abs(sim_factory().run(ballistic=True).total_current_left)
        assert abs(res.total_current_left) < 2e-2 * scale

    def test_density_nonnegative(self, sim_factory):
        res = sim_factory().run(ballistic=True)
        assert (res.density > -1e-10).all()

    def test_density_increases_with_mu(self, sim_factory):
        lo = sim_factory(mu_left=-0.5, mu_right=-0.5).run(ballistic=True)
        hi = sim_factory(mu_left=0.5, mu_right=0.5).run(ballistic=True)
        assert hi.density.sum() > lo.density.sum()

    def test_lesser_antihermitian(self, sim_factory):
        res = sim_factory().run(ballistic=True)
        swap = np.conj(np.swapaxes(res.Gl, -1, -2))
        assert np.abs(res.Gl + swap).max() < 1e-10

    def test_spectral_identity(self, sim_factory):
        """A = i(G> - G<) = i(GR - GA) is PSD on every atom block."""
        res = sim_factory().run(ballistic=True)
        A = 1j * (res.Gg - res.Gl)
        lam = np.linalg.eigvalsh(A.reshape(-1, A.shape[-2], A.shape[-1]))
        assert lam.min() > -1e-8


class TestSCBA:
    def test_converges(self, sim_factory):
        res = sim_factory(max_iterations=25).run()
        assert res.converged
        assert res.history[-1] < 1e-5

    def test_residuals_trend_down(self, sim_factory):
        res = sim_factory(max_iterations=25).run()
        assert res.history[-1] < res.history[0]

    def test_zero_coupling_equals_ballistic(self, sim_factory):
        bal = sim_factory().run(ballistic=True)
        scba = sim_factory(coupling=0.0, max_iterations=3).run()
        assert np.allclose(scba.Gl, bal.Gl, atol=1e-10)

    def test_scattering_perturbs_current_smoothly(self, sim_factory):
        """Electron-phonon coupling changes the current continuously: the
        effect grows with coupling strength (here phonon-assisted channels
        slightly raise the current) but stays a perturbation."""
        bal = sim_factory().run(ballistic=True).total_current_left
        d1 = sim_factory(coupling=0.2, max_iterations=25).run().total_current_left
        d2 = sim_factory(coupling=0.5, max_iterations=25).run().total_current_left
        assert d1 != bal
        assert abs(d2 - bal) > abs(d1 - bal)
        assert abs(d2 - bal) < 0.5 * abs(bal)

    def test_sse_variant_agnostic(self, sim_factory):
        a = sim_factory(sse_variant="dace", max_iterations=4).run()
        b = sim_factory(sse_variant="reference", max_iterations=4).run()
        assert np.allclose(a.Gl, b.Gl, atol=1e-9)

    def test_phonon_tensors_shape(self, sim_factory):
        res = sim_factory().run(ballistic=True)
        s = sim_factory().s
        NA = res.Gl.shape[2]
        assert res.Dl.shape == (s.Nqz, s.Nw, NA, 5, 3, 3)

    def test_self_energy_shapes(self, sim_factory):
        res = sim_factory(max_iterations=4).run()
        assert res.Sigma_l.shape == res.Gl.shape
        assert res.Pi_l.shape == res.Dl.shape
