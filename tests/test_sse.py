"""SSE kernel variants (Eq. 3-5): cross-validation and properties."""

import timeit
import tracemalloc

import numpy as np
import pytest

from repro.negf import (
    pi_sse,
    preprocess_phonon_green,
    retarded_from_lesser_greater,
    sigma_sse,
    sse_flop_estimate,
)
from tests.conftest import close, complex_array


def make_inputs(seed, Nkz, NE, Nqz, Nw, NA=8, NB=4, No=2):
    rng = np.random.default_rng(seed)
    N3D = 3
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
        # axis entirely and must contribute nothing; Nqz > Nkz: the
        # periodic kz index wraps more than once
        for inp in (sse_inputs, make_inputs(78, Nkz=2, NE=5, Nqz=3, Nw=7)):
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


def _pi(inp, variant="dace"):
    Nkz, NE, Nqz, Nw = inp["dims"][:4]
    return pi_sse(inp["G"], inp["G2"], inp["dH"], inp["neigh"], inp["rev"],
                  Nqz, Nw, variant)


class TestPi:
    def test_matches_reference(self, sse_inputs):
        # second case as for Σ: Nw > NE and Nqz > Nkz
        for inp in (sse_inputs, make_inputs(78, Nkz=2, NE=5, Nqz=3, Nw=7)):
            assert np.allclose(_pi(inp), _pi(inp, "reference"), atol=1e-11)

    def test_onsite_is_minus_bond_sum(self, sse_inputs):
        out = _pi(sse_inputs)
        assert np.allclose(out[:, :, :, 0], -out[:, :, :, 1:].sum(axis=3))

    def test_unknown_variant(self, sse_inputs):
        with pytest.raises(ValueError):
            pi_sse(sse_inputs["G"], sse_inputs["G2"], sse_inputs["dH"],
                   sse_inputs["neigh"], sse_inputs["rev"], 2, 2, "magic")


def test_pi_no_row_count_cliff():
    """Π≷ cost is linear in the energy rows: no contraction planner, so no
    fall to a naive 10-index loop at <= 7 rows per round (the parent's
    ``scba_gf``-at-NE=8 trap: 23x slower than at NE=12, not 0.67x)."""
    dims = dict(Nkz=2, Nqz=2, Nw=2, NB=6, No=4)
    best = {}
    for NE in (8, 12):
        twin = make_inputs(5, NE=NE, NA=12, **dims)  # small enough for the oracle
        assert close(_pi(twin), _pi(twin, "reference"), 1e-10)
        full = make_inputs(5, NE=NE, NA=96, **dims)  # the scba_gf device
        best[NE] = min(timeit.repeat(lambda: _pi(full), number=1, repeat=5))
    assert best[8] <= 2.0 * best[12]


def test_sse_call_memory_bounded():
    """One Σ≷/Π≷ call at the ``scba_sse`` dims peaks below twice the
    8.8 MB ∇H·G tensor (measured 15.5 / 15.1 MB; the parent's Σ≷ peaked
    at 29 MB, 3.3x): neither an all-qz-at-once product (+7.8 MB) nor a
    per-qz copy of ∇H·G (+8.8 MB) may come back."""
    Nkz, NE, NA, NB, N3D, No = 3, 40, 64, 6, 3, 2
    inp = make_inputs(3, Nkz=Nkz, NE=NE, Nqz=3, Nw=8, NA=NA, NB=NB, No=No)
    calls = (
        lambda: sigma_sse(inp["G"], inp["dH"], inp["Dc"], inp["neigh"], +1, "dace"),
        lambda: _pi(inp),
    )
    for call in calls:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 16 * Nkz * NE * NA * NB * N3D * No * No


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
