"""Performance/communication/scaling models: closed forms, search
optimality, feasibility and scaling shape.  The paper's own numbers are
asserted once, row by row, from :mod:`repro.analysis.scorecard`."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import paper_claims, scorecard_markdown
from repro.config import PAPER_STRUCTURE_4864, SimulationParameters
from repro.model import (
    PIZ_DAINT,
    SUMMIT,
    comm_volumes,
    dace_comm_total_bytes,
    factor_pairs,
    iteration_flops,
    omen_comm_total_bytes,
    paper_tiling,
    predict_times,
    search_tiling,
    sse_flops_dace,
    sse_flops_omen,
    weak_scaling,
)

EVAL = PAPER_STRUCTURE_4864.replace(Nkz=3, Nqz=3)
CLAIMS = paper_claims()


@pytest.mark.parametrize(
    "claim",
    CLAIMS,
    ids=[re.sub(r"\W+", "-", f"{c.source} {c.quantity}").strip("-") for c in CLAIMS],
)
def test_paper_claim(claim):
    assert claim.holds, claim


def test_scorecard_has_one_row_per_claim():
    rows = scorecard_markdown(CLAIMS).splitlines()
    assert sum(r.startswith("| ") for r in rows) == 1 + len(CLAIMS)  # + header
    assert rows[-1] == f"{len(CLAIMS)} of {len(CLAIMS)} claims hold."


class TestFlopModels:
    def test_sse_omen_closed_form(self):
        p = EVAL
        expect = 64 * p.NA * p.NB * p.N3D * p.Nkz * p.Nqz * p.NE * p.Nw * p.Norb**3
        assert sse_flops_omen(p) == expect

    def test_sse_ratio_approaches_two(self):
        p = EVAL.replace(Nkz=21, Nqz=21)
        assert sse_flops_omen(p) / sse_flops_dace(p) == pytest.approx(2.0, rel=0.01)

    def test_totals_ordering(self):
        f = iteration_flops(EVAL)
        assert f.total_dace < f.total_omen


class TestCommModels:
    def test_omen_g_term_independent_of_p(self):
        p = EVAL
        v1 = omen_comm_total_bytes(p, 100)
        v2 = omen_comm_total_bytes(p, 200)
        d_term = 64 * p.Nqz * p.Nw * p.NA * p.NB * 9
        assert v2 - v1 == pytest.approx(100 * d_term)

    def test_volume_mismatched_tiling_raises(self):
        with pytest.raises(ValueError):
            comm_volumes(EVAL, 100, 3, 7)

    def test_paper_tiling_requires_divisibility(self):
        with pytest.raises(ValueError):
            paper_tiling(EVAL, 100, TE=3)


class TestTileSearch:
    def test_search_beats_or_matches_paper_tiling(self):
        p = EVAL.replace(Nkz=7, Nqz=7)
        best = search_tiling(p, 1792)
        paper = paper_tiling(p, 1792, TE=7)
        assert best.total_bytes <= paper.total_bytes * 1.0001

    def test_search_is_global_minimum(self):
        p = EVAL
        P = 768
        best = search_tiling(p, P)
        for TE, TA in factor_pairs(P):
            if TE <= p.NE and TA <= p.NA:
                assert best.total_bytes <= dace_comm_total_bytes(p, TE, TA) + 1

    def test_search_respects_feasibility(self):
        p = SimulationParameters(Nkz=2, Nqz=2, NE=8, Nw=2, NA=16, NB=4,
                                 Norb=2, bnum=4)
        t = search_tiling(p, 16)
        assert t.TE <= 8 and t.TA <= 16

    def test_search_infeasible_raises(self):
        p = SimulationParameters(Nkz=2, Nqz=2, NE=8, Nw=2, NA=16, NB=4,
                                 Norb=2, bnum=4)
        with pytest.raises(ValueError):
            search_tiling(p, 1009)  # prime > NE and > NA

    @given(P=st.integers(1, 4000))
    @settings(max_examples=60, deadline=None)
    def test_factor_pairs_property(self, P):
        pairs = factor_pairs(P)
        assert all(a * b == P for a, b in pairs)
        assert (1, P) in pairs and (P, 1) in pairs
        assert len(pairs) == len(set(pairs))


class TestScalingModel:
    def test_rate_composition(self):
        assert SUMMIT.rate("gf", "dace", 6) == pytest.approx(
            6 * SUMMIT.peak_proc_flops * 0.445
        )

    def test_unknown_variant_raises(self):
        with pytest.raises(ValueError):
            predict_times(SUMMIT, EVAL, 100, "magic")

    def test_compute_halves_with_double_procs(self):
        p = EVAL.replace(Nkz=7, Nqz=7)
        a = predict_times(PIZ_DAINT, p, 224)
        b = predict_times(PIZ_DAINT, p, 448)
        assert b.compute == pytest.approx(a.compute / 2)

    def test_dace_comm_shrinks_sublinearly(self):
        p = EVAL.replace(Nkz=7, Nqz=7)
        a = predict_times(PIZ_DAINT, p, 224)
        b = predict_times(PIZ_DAINT, p, 2688)
        assert b.comm < a.comm
        assert b.comm > a.comm / 12  # halo floors prevent ideal scaling
        assert predict_times(PIZ_DAINT, p, 5400).comm < a.comm  # Fig. 13a's end

    def test_omen_comm_grows_with_p(self):
        p = EVAL.replace(Nkz=7, Nqz=7)
        a = predict_times(PIZ_DAINT, p, 224, "omen")
        b = predict_times(PIZ_DAINT, p, 2688, "omen")
        assert b.comm > a.comm
        assert predict_times(PIZ_DAINT, p, 5400, "omen").comm > a.comm

    def test_weak_scaling_series(self):
        pts = weak_scaling(PIZ_DAINT, EVAL, [3, 5, 7], 256)
        assert [pt.processes for pt in pts] == [768, 1280, 1792]
        # Ideal weak scaling is flat in GF; SSE grows with Nkz.
        assert pts[0].dace.gf == pytest.approx(pts[2].dace.gf, rel=0.01)
        assert pts[2].dace.sse > pts[0].dace.sse
