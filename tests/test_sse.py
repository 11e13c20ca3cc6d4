"""SSE kernel variants (Eq. 3-5): cross-validation and properties."""

import numpy as np
import pytest

from repro.negf import (
    pi_sse,
    preprocess_phonon_green,
    retarded_from_lesser_greater,
    sigma_sse,
    sse_flop_estimate,
)
from tests.conftest import complex_array


def make_inputs(seed, Nkz, NE, Nqz, Nw):
    rng = np.random.default_rng(seed)
    NA, NB = 8, 4
    N3D, No = 3, 2
    neigh = np.zeros((NA, NB), dtype=np.int64)
    for a in range(NA):
        for b in range(NB):
            off = (b // 2 + 1) * (1 if b % 2 == 0 else -1)
            neigh[a, b] = (a + off) % NA
    rev = np.zeros_like(neigh)
    for a in range(NA):
        for b in range(NB):
            rev[a, b] = np.nonzero(neigh[neigh[a, b]] == a)[0][0]
    D = complex_array(rng, Nqz, Nw, NA, NB + 1, N3D, N3D)
    return dict(
        G=complex_array(rng, Nkz, NE, NA, No, No),
        G2=complex_array(rng, Nkz, NE, NA, No, No),
        dH=complex_array(rng, NA, NB, N3D, No, No),
        D=D,
        Dc=preprocess_phonon_green(D, neigh, rev),
        neigh=neigh,
        rev=rev,
        dims=(Nkz, NE, Nqz, Nw, NA, NB, N3D, No),
    )


@pytest.fixture(scope="module")
def sse_inputs():
    return make_inputs(77, Nkz=3, NE=7, Nqz=2, Nw=3)


class TestPreprocess:
    def test_shape(self, sse_inputs):
        Nkz, NE, Nqz, Nw, NA, NB, N3D, No = sse_inputs["dims"]
        assert sse_inputs["Dc"].shape == (Nqz, Nw, NA, NB, N3D, N3D)

    def test_four_term_combination(self, sse_inputs):
        """Spot-check Dcomb = D_ba - D_bb - D_aa + D_ab for one bond."""
        D, neigh, rev = sse_inputs["D"], sse_inputs["neigh"], sse_inputs["rev"]
        a, b = 2, 1
        nb, r = neigh[a, b], rev[a, b]
        expect = D[:, :, nb, 1 + r] - D[:, :, nb, 0] - D[:, :, a, 0] + D[:, :, a, 1 + b]
        assert np.allclose(sse_inputs["Dc"][:, :, a, b], expect)

    def test_uniform_d_cancels(self, sse_inputs):
        """If D is identical on all blocks the combination vanishes."""
        D = np.ones_like(sse_inputs["D"])
        out = preprocess_phonon_green(D, sse_inputs["neigh"], sse_inputs["rev"])
        assert np.abs(out).max() < 1e-14


class TestSigmaVariants:
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("variant", ["omen", "dace"])
    def test_matches_reference(self, sse_inputs, sign, variant):
        # second case, Nw > NE: shifts w >= NE fall off the open energy
        # axis entirely and must contribute nothing
        for inp in (sse_inputs, make_inputs(78, Nkz=2, NE=5, Nqz=2, Nw=7)):
            ref = sigma_sse(
                inp["G"], inp["dH"], inp["Dc"], inp["neigh"], sign, "reference",
            )
            out = sigma_sse(
                inp["G"], inp["dH"], inp["Dc"], inp["neigh"], sign, variant,
            )
            assert np.allclose(out, ref, atol=1e-11)

    def test_unknown_variant(self, sse_inputs):
        with pytest.raises(ValueError):
            sigma_sse(
                sse_inputs["G"], sse_inputs["dH"], sse_inputs["Dc"],
                sse_inputs["neigh"], +1, "magic",
            )

    def test_linearity_in_g(self, sse_inputs):
        s1 = sigma_sse(sse_inputs["G"], sse_inputs["dH"], sse_inputs["Dc"],
                       sse_inputs["neigh"])
        s2 = sigma_sse(2.0 * sse_inputs["G"], sse_inputs["dH"], sse_inputs["Dc"],
                       sse_inputs["neigh"])
        assert np.allclose(s2, 2.0 * s1)

    def test_zero_d_gives_zero(self, sse_inputs):
        out = sigma_sse(
            sse_inputs["G"], sse_inputs["dH"], np.zeros_like(sse_inputs["Dc"]),
            sse_inputs["neigh"],
        )
        assert np.abs(out).max() == 0.0

    def test_energy_padding(self, sse_inputs):
        """Sign +1 with ω = Nw-1 cannot write to the lowest energies."""
        Dc = np.zeros_like(sse_inputs["Dc"])
        Dc[:, -1] = sse_inputs["Dc"][:, -1]  # only the largest shift active
        out = sigma_sse(sse_inputs["G"], sse_inputs["dH"], Dc, sse_inputs["neigh"], +1)
        Nw = Dc.shape[1]
        assert np.abs(out[:, : Nw - 1]).max() == 0.0
        assert np.abs(out[:, Nw - 1 :]).max() > 0.0

    def test_momentum_wrap(self, sse_inputs):
        """Momentum is periodic: a pure qz=1 coupling reads kz-1 mod Nkz."""
        Dc = np.zeros_like(sse_inputs["Dc"])
        Dc[1, 0] = sse_inputs["Dc"][1, 0]
        out = sigma_sse(sse_inputs["G"], sse_inputs["dH"], Dc, sse_inputs["neigh"], +1)
        # k=0 must pick up G from kz = Nkz-1: nonzero output at k=0.
        assert np.abs(out[0]).max() > 0.0


class TestPi:
    def test_matches_reference(self, sse_inputs):
        Nkz, NE, Nqz, Nw, NA, NB, N3D, No = sse_inputs["dims"]
        ref = pi_sse(sse_inputs["G"], sse_inputs["G2"], sse_inputs["dH"],
                     sse_inputs["neigh"], sse_inputs["rev"], Nqz, Nw, "reference")
        out = pi_sse(sse_inputs["G"], sse_inputs["G2"], sse_inputs["dH"],
                     sse_inputs["neigh"], sse_inputs["rev"], Nqz, Nw, "dace")
        assert np.allclose(out, ref, atol=1e-11)

    def test_onsite_is_minus_bond_sum(self, sse_inputs):
        Nkz, NE, Nqz, Nw, NA, NB, N3D, No = sse_inputs["dims"]
        out = pi_sse(sse_inputs["G"], sse_inputs["G2"], sse_inputs["dH"],
                     sse_inputs["neigh"], sse_inputs["rev"], Nqz, Nw)
        assert np.allclose(out[:, :, :, 0], -out[:, :, :, 1:].sum(axis=3))

    def test_unknown_variant(self, sse_inputs):
        with pytest.raises(ValueError):
            pi_sse(sse_inputs["G"], sse_inputs["G2"], sse_inputs["dH"],
                   sse_inputs["neigh"], sse_inputs["rev"], 2, 2, "magic")


class TestRetarded:
    def test_lake_formula(self):
        less = np.array([[1 + 2j]])
        greater = np.array([[3 - 4j]])
        out = retarded_from_lesser_greater(less, greater)
        assert np.allclose(out, 0.5 * (greater - less))


class TestFlopEstimate:
    def test_omen_is_double(self):
        base = dict(Nkz=3, NE=10, Nqz=3, Nw=5, NA=8, NB=4, N3D=3, Norb=2)
        omen = sse_flop_estimate(**base, variant="omen")
        dace = sse_flop_estimate(**base, variant="dace")
        nqw = base["Nqz"] * base["Nw"]
        assert omen / dace == pytest.approx(2 * nqw / (nqw + 1))

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            sse_flop_estimate(1, 1, 1, 1, 1, 1, 1, 1, variant="reference")
