"""Execution backends: registry, numpy code generation, edge cases.

The ``numpy`` backend must be *indistinguishable* from the reference
interpreter on every graph it lowers — same outputs to float tolerance
— while being orders of magnitude faster.  It counts nothing: execution
statistics come from the interpreter alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recipe import SSE_PIPELINE, VERIFY_DIMS, compile_sse_pipeline
from repro.core.sse_sdfg import random_sse_inputs, sse_sigma_reference
from repro.sdfg import (
    SDFG,
    BackendError,
    Map,
    MapEntry,
    MapExit,
    Memlet,
    Range,
    Tasklet,
    get_backend,
)
from repro.sdfg.backends.codegen import compile_sdfg, generate_source
from repro.sdfg.interpreter import Interpreter
from repro.sdfg.symbolic import Mod, symbols

_DIMS = dict(Nkz=3, NE=6, Nqz=2, Nw=2, N3D=2, NA=5, NB=3, Norb=2)


@pytest.fixture(scope="module")
def stages():
    return {s.name: s for s in SSE_PIPELINE.stages()}


@pytest.fixture(scope="module")
def data():
    arrays, tables = random_sse_inputs(_DIMS, seed=3)
    ref = sse_sigma_reference(
        arrays["G"], arrays["dH"], arrays["D"], tables["__neigh__"]
    )
    return arrays, tables, ref


# -- registry ---------------------------------------------------------------------


class TestRegistry:
    def test_backends_by_name(self):
        assert get_backend("interpreter").name == "interpreter"
        assert get_backend("numpy").name == "numpy"

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendError, match="unknown SDFG backend"):
            get_backend("cuda")

    def test_default_is_numpy(self):
        assert get_backend().name == "numpy"

    def test_pipeline_compile_rejects_unknown(self):
        with pytest.raises(BackendError):
            SSE_PIPELINE.compile(backend="nope")


# -- the numpy backend on the SSE pipeline ----------------------------------------


class TestNumpyBackendPipeline:
    def test_every_stage_verifies(self):
        compiled = compile_sse_pipeline(backend="numpy")
        assert compiled.backend == "numpy"
        assert compiled.verified
        assert set(compiled.verification) == set(SSE_PIPELINE.stage_names)
        assert max(compiled.verification.values()) <= 1e-10

    def test_stagewise_equivalence_with_interpreter(self, stages, data):
        arrays, tables, _ = data
        for name, stage in stages.items():
            out_i, _ = get_backend("interpreter").compile_stage(stage)(
                _DIMS, arrays, tables
            )
            out_n, executed = get_backend("numpy").compile_stage(stage)(
                _DIMS, arrays, tables
            )
            assert np.allclose(out_i, out_n, rtol=1e-10, atol=1e-10), name
            assert executed is None  # generated code counts nothing

    def test_source_attached_and_saved(self, tmp_path):
        compiled = compile_sse_pipeline(verify=False, backend="numpy")
        src = compiled.source
        assert "def run(dims, arrays, tables=None):" in src
        assert "np.einsum" in src
        path = tmp_path / "fig12s.py"
        assert compiled.save_code(path) == src
        assert path.read_text() == src
        # Any stage is addressable.
        fig8 = compiled.save_code(tmp_path / "fig8.py", stage="fig8")
        assert "vectorized" in fig8

    def test_interpreter_backend_has_no_source(self):
        compiled = compile_sse_pipeline(verify=False, backend="interpreter")
        assert compiled.source is None
        with pytest.raises(ValueError, match="no source"):
            compiled.save_code("/tmp/never_written.py")

    def test_callable_matches_reference(self, data):
        arrays, tables, ref = data
        compiled = compile_sse_pipeline(verify=False, backend="numpy")
        sigma = compiled(_DIMS, arrays, tables)
        assert np.allclose(sigma, ref, rtol=1e-10, atol=1e-10)


# -- CompiledPipeline.report dims contract ----------------------------------------


class TestReportDims:
    def test_missing_symbols_raise_with_names(self):
        compiled = compile_sse_pipeline(verify=False, backend="numpy")
        partial = {k: v for k, v in _DIMS.items() if k not in ("NB", "Norb")}
        with pytest.raises(ValueError, match=r"\['NB', 'Norb'\]"):
            compiled.report(partial)
        with pytest.raises(ValueError, match="required"):
            SSE_PIPELINE.report(partial)

    def test_required_symbols_listed(self):
        assert set(SSE_PIPELINE.required_symbols()) == set(_DIMS)

    def test_same_spelling_as_pipeline_report(self):
        compiled = compile_sse_pipeline(verify=False, backend="numpy")
        a = compiled.report(_DIMS)
        b = SSE_PIPELINE.report(_DIMS)
        assert a.to_dict() == b.to_dict()


# -- interpreter/codegen edge cases ------------------------------------------------


def _both_stores(sd, dims, arrays, tables=None):
    interp = Interpreter(sd).run(dims, arrays, tables=tables)
    gen = compile_sdfg(sd)(dims, dict(arrays), tables)
    return interp, gen


class TestEdgeCases:
    def test_wcr_onto_overlapping_subsets(self):
        # Every iteration accumulates into a window [i, i+1] that
        # overlaps its neighbor's; both backends must agree exactly.
        (N, M, i) = symbols("N M i")
        sd = SDFG("overlap")
        sd.add_symbol("N")
        sd.add_symbol("M")
        sd.add_array("A", (N,), dtype=np.float64)
        sd.add_array("B", (N,), dtype=np.float64)
        st_ = sd.add_state("s", is_start=True)
        m = Map("m", ["i"], Range([(0, M - 1)]))
        me, mx = MapEntry(m), MapExit(m)
        t = Tasklet("t", ["v"], ["o"], lambda v: {"o": v})
        a_in, a_out = st_.add_access("A"), st_.add_access("B")
        st_.add_edge(a_in, me, Memlet.full("A", (N,)))
        st_.add_edge(me, t, Memlet("A", Range([(i, i + 1)])), dst_conn="v")
        st_.add_edge(
            t, mx, Memlet("B", Range([(i, i + 1)]), wcr="sum"), src_conn="o"
        )
        st_.add_edge(mx, a_out, Memlet.full("B", (N,), wcr="sum"))
        sd.validate()
        dims = dict(N=6, M=5)
        A = np.arange(6, dtype=np.float64)
        interp, gen = _both_stores(sd, dims, {"A": A.copy()})
        assert np.array_equal(interp["B"], gen["B"])
        # Interior elements receive two overlapping contributions.
        assert interp["B"][1] == A[1] + A[1]

    def test_scattered_wcr_lowers_to_add_at(self):
        # Computed (non-injective) output indices with CR: Sum — the
        # vectorized path must scatter with np.add.at and agree with the
        # interpreter's per-iteration accumulation.
        (N, M, i) = symbols("N M i")
        sd = SDFG("scatter")
        sd.add_symbol("N")
        sd.add_symbol("M")
        sd.add_array("A", (M,), dtype=np.float64)
        sd.add_array("B", (N,), dtype=np.float64)
        st_ = sd.add_state("s", is_start=True)
        m = Map("m", ["i"], Range([(0, M - 1)]))
        me, mx = MapEntry(m), MapExit(m)
        t = Tasklet("t", ["v"], ["o"], lambda v: {"o": v}, op="->")
        a_in, a_out = st_.add_access("A"), st_.add_access("B")
        st_.add_edge(a_in, me, Memlet.full("A", (M,)))
        st_.add_edge(me, t, Memlet("A", Range([(i, i)])), dst_conn="v")
        st_.add_edge(
            t,
            mx,
            Memlet("B", Range([(Mod.make(i * 3, N), Mod.make(i * 3, N))]), wcr="sum"),
            src_conn="o",
        )
        st_.add_edge(mx, a_out, Memlet.full("B", (N,), wcr="sum"))
        sd.validate()
        src = generate_source(sd)
        assert "np.add.at" in src
        dims = dict(N=4, M=9)
        A = np.arange(1.0, 10.0)
        interp, gen = _both_stores(sd, dims, {"A": A.copy()})
        assert np.array_equal(interp["B"], gen["B"])
        assert interp["B"].sum() == A.sum()

    def test_empty_map_range(self):
        # M = 0 -> zero iterations: the output must stay untouched in
        # both backends (and einsum over a zero-length axis is a no-op).
        (N, M, i) = symbols("N M i")
        for op in (None, "->"):
            sd = SDFG("empty")
            sd.add_symbol("N")
            sd.add_symbol("M")
            sd.add_array("A", (N,), dtype=np.float64)
            sd.add_array("B", (N,), dtype=np.float64)
            st_ = sd.add_state("s", is_start=True)
            m = Map("m", ["i"], Range([(0, M - 1)]))
            me, mx = MapEntry(m), MapExit(m)
            t = Tasklet("t", ["v"], ["o"], lambda v: {"o": v}, op=op)
            a_in, a_out = st_.add_access("A"), st_.add_access("B")
            st_.add_edge(a_in, me, Memlet.full("A", (N,)))
            st_.add_edge(me, t, Memlet("A", Range([(i, i)])), dst_conn="v")
            st_.add_edge(
                t, mx, Memlet("B", Range([(i, i)]), wcr="sum"), src_conn="o"
            )
            st_.add_edge(mx, a_out, Memlet.full("B", (N,), wcr="sum"))
            dims = dict(N=5, M=0)
            interp, gen = _both_stores(
                sd, dims, {"A": np.ones(5)}
            )
            assert np.array_equal(interp["B"], np.zeros(5))
            assert np.array_equal(gen["B"], np.zeros(5))

    def test_conflicting_param_ranges_fall_back(self):
        # One fused scope, two inner maps reusing the name ``i`` over
        # DIFFERENT ranges: whole-scope vectorization must refuse (one
        # shared arange would be wrong for one of them) and the loop
        # fallback must agree with the interpreter.
        (N, M, a, i) = symbols("N M a i")
        sd = SDFG("clash")
        sd.add_symbol("N")
        sd.add_symbol("M")
        sd.add_array("A", (N,), dtype=np.float64)
        sd.add_array("B", (N,), dtype=np.float64)
        sd.add_array("C", (M,), dtype=np.float64)
        st_ = sd.add_state("s", is_start=True)
        outer = Map("outer", ["a"], Range([(0, 0)]))
        oe, ox = MapEntry(outer), MapExit(outer)
        m1 = Map("m1", ["i"], Range([(0, N - 1)]))
        m2 = Map("m2", ["i"], Range([(0, M - 1)]))
        e1, x1 = MapEntry(m1), MapExit(m1)
        e2, x2 = MapEntry(m2), MapExit(m2)
        t1 = Tasklet("t1", ["v"], ["o"], lambda v: {"o": v}, op="->")
        t2 = Tasklet("t2", ["v"], ["o"], lambda v: {"o": v}, op="->")
        a_in = st_.add_access("A")
        st_.add_edge(a_in, oe, Memlet.full("A", (N,)))
        st_.add_edge(oe, e1, Memlet.full("A", (N,)))
        st_.add_edge(oe, e2, Memlet.full("A", (N,)))
        st_.add_edge(e1, t1, Memlet("A", Range([(i, i)])), dst_conn="v")
        st_.add_edge(
            t1, x1, Memlet("B", Range([(i, i)]), wcr="sum"), src_conn="o"
        )
        st_.add_edge(e2, t2, Memlet("A", Range([(i, i)])), dst_conn="v")
        st_.add_edge(
            t2, x2, Memlet("C", Range([(i, i)]), wcr="sum"), src_conn="o"
        )
        b_out, c_out = st_.add_access("B"), st_.add_access("C")
        st_.add_edge(x1, ox, Memlet.full("B", (N,), wcr="sum"))
        st_.add_edge(x2, ox, Memlet.full("C", (M,), wcr="sum"))
        st_.add_edge(ox, b_out, Memlet.full("B", (N,), wcr="sum"))
        st_.add_edge(ox, c_out, Memlet.full("C", (M,), wcr="sum"))
        sd.validate()
        dims = dict(N=6, M=3)
        A = np.arange(1.0, 7.0)
        interp, gen = _both_stores(sd, dims, {"A": A.copy()})
        assert np.array_equal(interp["B"], gen["B"])
        assert np.array_equal(interp["C"], gen["C"])
        assert np.array_equal(gen["B"], A)
        assert np.array_equal(gen["C"], A[:3])

    def test_multi_state_rejected(self):
        sd = SDFG("two_states")
        sd.add_symbol("N")
        sd.add_array("A", (symbols("N")[0],), dtype=np.float64)
        sd.add_state("a", is_start=True)
        sd.add_state("b")
        with pytest.raises(BackendError, match="single-state"):
            compile_sdfg(sd)


# -- property: backends agree on randomized SSE dims ------------------------------


_dims = st.fixed_dictionaries(
    dict(
        Nkz=st.integers(2, 3),
        NE=st.integers(2, 5),
        Nqz=st.integers(1, 2),
        Nw=st.integers(1, 3),
        N3D=st.integers(1, 2),
        NA=st.integers(2, 5),
        NB=st.integers(1, 3),
        Norb=st.integers(1, 3),
    )
).filter(lambda d: d["Nqz"] <= d["Nkz"] and d["Nw"] <= d["NE"])


class TestBackendAgreementProperty:
    @given(dims=_dims, seed=st.integers(0, 4))
    @settings(max_examples=6, deadline=None)
    def test_numpy_equals_interpreter_on_random_dims(self, dims, seed):
        arrays, tables = random_sse_inputs(dims, seed=seed)
        for stage in SSE_PIPELINE.stages():
            if stage.name == "fig8":
                continue  # the interpreter's 8-D loop nest is slow
            out_i, _ = get_backend("interpreter").compile_stage(stage)(
                dims, arrays, tables
            )
            out_n, _ = get_backend("numpy").compile_stage(stage)(
                dims, arrays, tables
            )
            assert np.allclose(out_i, out_n, rtol=1e-10, atol=1e-10), (
                stage.name,
                dims,
            )


# -- the sdfg production variant --------------------------------------------------


class TestSigmaSseSdfgVariant:
    @pytest.fixture(scope="class")
    def inputs(self):
        arrays, tables = random_sse_inputs(_DIMS, seed=11)
        return arrays, tables

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_matches_reference_both_shift_signs(self, inputs, sign):
        from repro.negf.sse import sigma_sse

        arrays, tables = inputs
        args = (arrays["G"], arrays["dH"], arrays["D"], tables["__neigh__"])
        ref = sigma_sse(*args, sign, "reference")
        got = sigma_sse(*args, sign, "sdfg")
        assert np.allclose(got, ref, rtol=1e-10, atol=1e-10)
        got_i = sigma_sse(*args, sign, "sdfg", backend="interpreter")
        assert np.allclose(got_i, ref, rtol=1e-10, atol=1e-10)

    def test_unknown_backend_raises(self, inputs):
        from repro.negf.sse import sigma_sse

        arrays, tables = inputs
        with pytest.raises(BackendError):
            sigma_sse(
                arrays["G"], arrays["dH"], arrays["D"], tables["__neigh__"],
                +1, "sdfg", backend="nope",
            )

    def test_flop_model_covers_sdfg(self):
        from repro.negf.sse import sse_flop_estimate

        kw = dict(Nkz=3, NE=8, Nqz=2, Nw=2, NA=5, NB=3, N3D=2, Norb=2)
        assert sse_flop_estimate(**kw, variant="sdfg") == sse_flop_estimate(
            **kw, variant="dace"
        )


class TestScbaSdfgIntegration:
    def test_scba_iteration_sdfg_equals_reference(self):
        """ISSUE acceptance: an SCBA iteration via sigma_sse(variant=
        'sdfg') matches variant='reference' ≤ 1e-10."""
        from repro.negf.hamiltonian import build_hamiltonian_model
        from repro.negf.scba import SCBASettings, SCBASimulation
        from repro.negf.structure import build_device

        def run(variant):
            model = build_hamiltonian_model(
                build_device(nx_cols=6, ny_rows=3, NB=4, slab_width=2)
            )
            s = SCBASettings(
                NE=8, Nkz=2, Nqz=2, Nw=2, max_iterations=2,
                sse_variant=variant, engine="serial",
            )
            with SCBASimulation(model, s) as sim:
                return sim.run()

        a, b = run("sdfg"), run("reference")
        assert np.allclose(a.Sigma_l, b.Sigma_l, rtol=1e-10, atol=1e-10)
        assert np.allclose(a.Sigma_g, b.Sigma_g, rtol=1e-10, atol=1e-10)
        assert np.allclose(a.Gl, b.Gl, rtol=1e-10, atol=1e-10)

    def test_plan_carries_sse_backend(self):
        from dataclasses import replace

        from repro.api import scenario

        w = scenario("quickstart")
        w = replace(w, physics=replace(w.physics, sse_variant="sdfg"))
        plan = w.compile(sse_backend="numpy")
        assert plan.sse_backend == "numpy"
        assert plan.groups[0].base_settings["sse_backend"] == "numpy"
        assert "compiled graph" in plan.describe()
        assert plan.to_dict()["sse_backend"] == "numpy"

    def test_plan_rejects_unknown_sse_backend(self):
        from repro.api import PlanError, scenario

        with pytest.raises(PlanError, match="sse_backend"):
            scenario("quickstart").compile(sse_backend="julia")

    def test_workload_validates_sse_variant(self):
        from dataclasses import replace

        from repro.api import WorkloadError, scenario
        from repro.api.workload import PhysicsSpec

        with pytest.raises(WorkloadError, match="sse_variant"):
            PhysicsSpec(sse_variant="fortran")
        # the Table-7 baseline is a sigma_sse() variant, not a driver value
        with pytest.raises(WorkloadError, match="sse_variant"):
            PhysicsSpec(sse_variant="omen")
