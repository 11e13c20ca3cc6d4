"""Sparse RGF kernels (Table 6) and the analysis/reporting layer."""

import re

import numpy as np
import pytest

from repro.analysis import fmt, paper_claims, render_table
from repro.config import PAPER_STRUCTURE_4864
from repro.model import TIB, search_tiling
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
    @pytest.fixture(scope="class")
    def claims(self):
        return paper_claims()

    def test_table3_rows_match_paper(self, claims):
        rows = [c for c in claims
                if c.source == "Table 3" and "SSE-OMEN" in c.quantity]
        assert len(rows) == 5
        for c in rows:
            assert c.ours == pytest.approx(c.paper, rel=0.005)

    def test_table4_rows_structure(self, claims):
        rows = [c for c in claims
                if c.source == "Table 4" and c.quantity.endswith("DaCe TiB")]
        Ps = [int(re.match(r"P=(\d+) ", c.quantity).group(1)) for c in rows]
        assert Ps == [768, 1280, 1792, 2304, 2816]
        for P, c in zip(Ps, rows):
            nkz = P // 256
            p = PAPER_STRUCTURE_4864.replace(Nkz=nkz, Nqz=nkz)
            assert search_tiling(p, P).total_bytes / TIB <= c.ours * 1.0001

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
