"""Sparse RGF kernels (Table 6) and the analysis/reporting layer."""

import numpy as np
import pytest

from repro.analysis import (
    STATE_OF_THE_ART,
    fig13_series,
    fmt,
    render_table,
    table3_rows,
    table4_rows,
    table5_rows,
    table8_rows,
)
from repro.negf.sparse_kernels import METHODS, generate_rgf_operands, three_matrix_product


class TestSparseKernels:
    @pytest.fixture(scope="class")
    def operands(self):
        return generate_rgf_operands(n=96, block_density=0.05, seed=1)

    def test_methods_agree(self, operands):
        F, gR, E = operands
        ref = np.asarray(F.todense()) @ gR @ np.asarray(E.todense())
        for m in METHODS:
            out = three_matrix_product(F, gR, E, m)
            assert np.allclose(np.asarray(out), ref, atol=1e-9), m

    def test_unknown_method(self, operands):
        F, gR, E = operands
        with pytest.raises(ValueError):
            three_matrix_product(F, gR, E, "cusparse")

    def test_operand_properties(self, operands):
        F, gR, E = operands
        assert F.shape == E.shape == gR.shape
        assert F.nnz < 0.15 * F.shape[0] ** 2  # genuinely sparse
        assert np.iscomplexobj(gR)

    def test_density_parameter(self):
        F, _, _ = generate_rgf_operands(n=64, block_density=0.01, seed=0)
        F2, _, _ = generate_rgf_operands(n=64, block_density=0.10, seed=0)
        assert F2.nnz > F.nnz


class TestAnalysis:
    def test_table3_rows_match_paper(self):
        for r in table3_rows():
            assert r["sse_omen"] == pytest.approx(r["paper"]["omen"], rel=0.005)

    def test_table4_rows_structure(self):
        rows = table4_rows()
        assert [r["P"] for r in rows] == [768, 1280, 1792, 2304, 2816]
        for r in rows:
            assert r["search_tib"] <= r["dace_tib"] * 1.0001

    def test_table5_reduction_factor(self):
        rows = table5_rows()
        assert all(r["omen_tib"] / r["dace_tib"] > 70 for r in rows)

    def test_table8_rows(self):
        rows = table8_rows()
        assert len(rows) == 4
        assert rows[-1]["nodes"] == 3525

    def test_fig13_both_machines(self):
        out = fig13_series()
        assert set(out) == {"piz-daint", "summit"}
        strong = out["piz-daint"]["strong"]
        assert strong[0]["dace_efficiency"] == pytest.approx(1.0)

    def test_fig13_single_machine(self):
        out = fig13_series("summit")
        assert set(out) == {"summit"}

    def test_state_of_the_art_rows(self):
        names = [c.name for c in STATE_OF_THE_ART]
        assert "OMEN" in names and "This work" in names

    def test_render_table_alignment(self):
        out = render_table("T", ["a", "bb"], [[1, 2.5], [10, 3.25]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert len({len(l) for l in lines[2:]}) <= 2

    def test_fmt(self):
        assert fmt(None) == "—"
        assert fmt(3) == "3"
        assert fmt(1234.5, 1) == "1,234.5"
        assert fmt(1.23e-9) == "1.23e-09"
        assert fmt("x") == "x"
