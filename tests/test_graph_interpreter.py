"""SDFG structure, validation, and interpreter semantics."""

import numpy as np
import pytest

from repro.sdfg import (
    SDFG,
    AccessNode,
    InterstateEdge,
    InvalidSDFGError,
    Interpreter,
    Map,
    MapEntry,
    MapExit,
    Memlet,
    NestedSDFG,
    Range,
    Tasklet,
    execute,
    symbols,
)


def build_matmul_sdfg():
    M, N, K = symbols("M N K")
    sd = SDFG("matmul")
    sd.add_array("A", (M, K), np.float64)
    sd.add_array("B", (K, N), np.float64)
    sd.add_array("C", (M, N), np.float64)
    st = sd.add_state("main")
    m = Map("mm", ["i", "j", "k"], Range([(0, M - 1), (0, N - 1), (0, K - 1)]))
    me, mx = MapEntry(m), MapExit(m)
    t = Tasklet(
        "mult", ["a", "b"], ["out"], lambda a, b: {"out": a * b},
        flops=lambda a, b: 2,
    )
    st.add_edge(st.add_access("A"), me, Memlet.full("A", (M, K)))
    st.add_edge(st.add_access("B"), me, Memlet.full("B", (K, N)))
    st.add_edge(me, t, Memlet.simple("A", "i", "k"), dst_conn="a")
    st.add_edge(me, t, Memlet.simple("B", "k", "j"), dst_conn="b")
    st.add_edge(t, mx, Memlet.simple("C", "i", "j", wcr="sum"), src_conn="out")
    st.add_edge(mx, st.add_access("C"), Memlet.full("C", (M, N), wcr="sum"))
    return sd


class TestGraphStructure:
    def test_duplicate_array_raises(self):
        sd = SDFG("x")
        sd.add_array("A", (3,))
        with pytest.raises(ValueError):
            sd.add_array("A", (3,))

    def test_access_unknown_array_raises(self):
        sd = SDFG("x")
        st = sd.add_state("s")
        with pytest.raises(KeyError):
            st.add_access("nope")

    def test_state_lookup(self):
        sd = SDFG("x")
        st = sd.add_state("s")
        assert sd.state("s") is st
        with pytest.raises(KeyError):
            sd.state("t")

    def test_start_state_defaults_to_first(self):
        sd = SDFG("x")
        s1 = sd.add_state("s1")
        sd.add_state("s2")
        assert sd.start_state is s1

    def test_transients_listing(self):
        sd = SDFG("x")
        sd.add_array("A", (3,))
        sd.add_transient("tmp", (3,))
        assert sd.transients() == ["tmp"]

    def test_scope_children(self):
        sd = build_matmul_sdfg()
        st = sd.states[0]
        entry = [n for n in st.graph.nodes if isinstance(n, MapEntry)][0]
        kids = st.scope_children(entry)
        assert any(isinstance(k, Tasklet) for k in kids)

    def test_top_level_maps_excludes_nested(self):
        sd = build_matmul_sdfg()
        st = sd.states[0]
        assert len(st.top_level_maps()) == 1


class TestValidation:
    def test_valid_graph_passes(self):
        build_matmul_sdfg().validate()

    def test_memlet_rank_mismatch(self):
        sd = SDFG("x")
        sd.add_array("A", (3, 3))
        st = sd.add_state("s")
        a = st.add_access("A")
        t = Tasklet("t", [], ["o"], lambda: {"o": 1})
        st.add_edge(t, a, Memlet("A", Range([(0, 0)])), src_conn="o")
        with pytest.raises(InvalidSDFGError):
            sd.validate()

    def test_unknown_memlet_array(self):
        sd = SDFG("x")
        sd.add_array("A", (3,))
        st = sd.add_state("s")
        a = st.add_access("A")
        t = Tasklet("t", [], ["o"], lambda: {"o": 1})
        st.add_edge(t, a, Memlet("B", Range([(0, 0)])), src_conn="o")
        with pytest.raises(InvalidSDFGError):
            sd.validate()

    def test_unconnected_input_connector(self):
        sd = SDFG("x")
        sd.add_array("A", (3,))
        st = sd.add_state("s")
        t = Tasklet("t", ["in1"], ["o"], lambda in1: {"o": in1})
        st.add_edge(t, st.add_access("A"), Memlet("A", Range([(0, 0)])), src_conn="o")
        with pytest.raises(InvalidSDFGError):
            sd.validate()

    def test_cycle_detection(self):
        sd = SDFG("x")
        sd.add_array("A", (3,))
        st = sd.add_state("s")
        a, b = st.add_access("A"), st.add_access("A")
        st.add_edge(a, b, None)
        st.add_edge(b, a, None)
        with pytest.raises(InvalidSDFGError):
            sd.validate()

    def test_missing_map_exit(self):
        sd = SDFG("x")
        st = sd.add_state("s")
        m = Map("m", ["i"], Range([(0, 3)]))
        st.add_node(MapEntry(m))
        with pytest.raises(InvalidSDFGError):
            sd.validate()


class TestInterpreter:
    def test_matmul(self):
        sd = build_matmul_sdfg()
        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        out = execute(sd, dict(M=3, N=2, K=4), dict(A=A, B=B))
        assert np.allclose(out["C"], A @ B)

    def test_flop_counting(self):
        sd = build_matmul_sdfg()
        interp = Interpreter(sd)
        interp.run(dict(M=2, N=2, K=2), dict(A=np.ones((2, 2)), B=np.ones((2, 2))))
        assert interp.report.flops == 2 * 8
        assert interp.report.tasklet_invocations == 8

    def test_missing_input_array_raises(self):
        sd = build_matmul_sdfg()
        interp = Interpreter(sd)
        with pytest.raises(KeyError):
            interp.run(
                dict(M=2, N=2, K=2),
                dict(A=np.ones((2, 2))),
                zero_transients=False,
            )

    def test_wcr_max(self):
        sd = SDFG("m")
        N = symbols("N")[0]
        sd.add_array("x", (N,), np.float64)
        sd.add_array("out", (1,), np.float64)
        st = sd.add_state("s")
        m = Map("red", ["i"], Range([(0, N - 1)]))
        me, mx = MapEntry(m), MapExit(m)
        t = Tasklet("id", ["v"], ["o"], lambda v: {"o": v})
        st.add_edge(st.add_access("x"), me, Memlet.full("x", (N,)))
        st.add_edge(me, t, Memlet.simple("x", "i"), dst_conn="v")
        st.add_edge(t, mx, Memlet("out", Range([0]), wcr="max"), src_conn="o")
        st.add_edge(mx, st.add_access("out"), Memlet.full("out", (1,), wcr="max"))
        data = np.array([3.0, 9.0, -2.0, 4.0])
        out = execute(sd, dict(N=4), dict(x=data))
        assert out["out"][0] == 9.0

    def test_tasklet_missing_output_raises(self):
        sd = SDFG("m")
        sd.add_array("out", (1,), np.float64)
        st = sd.add_state("s")
        t = Tasklet("bad", [], ["o"], lambda: {})
        st.add_edge(t, st.add_access("out"), Memlet("out", Range([0])), src_conn="o")
        with pytest.raises(RuntimeError):
            execute(sd, {}, {})

    def test_control_flow_loop(self):
        """Interstate edges drive an iterative state machine (Fig. 6)."""
        sd = SDFG("loop")
        sd.add_array("acc", (1,), np.float64)
        body = sd.add_state("body", is_start=True)
        done = sd.add_state("done")
        t = Tasklet("inc", ["v"], ["o"], lambda v: {"o": v + 1})
        a_in, a_out = body.add_access("acc"), body.add_access("acc")
        body.add_edge(a_in, t, Memlet("acc", Range([0])), dst_conn="v")
        body.add_edge(t, a_out, Memlet("acc", Range([0])), src_conn="o")
        sd.add_interstate_edge(
            body, body,
            InterstateEdge(condition=lambda ctx: ctx["__arrays__"]["acc"][0] < 5),
        )
        sd.add_interstate_edge(
            body, done,
            InterstateEdge(condition=lambda ctx: ctx["__arrays__"]["acc"][0] >= 5),
        )
        out = execute(sd, {}, dict(acc=np.zeros(1)))
        assert out["acc"][0] == 5

    def test_nested_sdfg(self):
        inner = SDFG("inner")
        inner.add_array("x", (2,), np.float64)
        ist = inner.add_state("s")
        t = Tasklet("dbl", ["v"], ["o"], lambda v: {"o": 2 * v})
        ist.add_edge(ist.add_access("x"), t, Memlet.full("x", (2,)), dst_conn="v")
        ist.add_edge(t, ist.add_access("x"), Memlet.full("x", (2,)), src_conn="o")

        outer = SDFG("outer")
        outer.add_array("y", (2,), np.float64)
        ost = outer.add_state("s")
        n = NestedSDFG("sub", inner, {"x": "y"})
        ost.add_node(n)
        out = execute(outer, {}, dict(y=np.array([1.0, 2.0])))
        assert np.allclose(out["y"], [2.0, 4.0])

    def test_read_views_are_readonly(self):
        sd = SDFG("ro")
        sd.add_array("x", (4,), np.float64)
        sd.add_array("y", (4,), np.float64)
        st = sd.add_state("s")

        def naughty(v):
            with pytest.raises((ValueError, RuntimeError)):
                v[0] = 99.0
            return {"o": v + 0}

        t = Tasklet("t", ["v"], ["o"], naughty)
        st.add_edge(st.add_access("x"), t, Memlet.full("x", (4,)), dst_conn="v")
        st.add_edge(t, st.add_access("y"), Memlet.full("y", (4,)), src_conn="o")
        execute(sd, {}, dict(x=np.ones(4)))

    def test_scalar_squeeze(self):
        """Point memlets arrive as scalars, block memlets keep shape."""
        sd = SDFG("sq")
        sd.add_array("x", (3, 4), np.float64)
        sd.add_array("y", (1,), np.float64)
        st = sd.add_state("s")
        seen = {}

        def probe(v):
            seen["shape"] = np.shape(v)
            return {"o": 0.0}

        t = Tasklet("t", ["v"], ["o"], probe)
        st.add_edge(
            st.add_access("x"), t, Memlet("x", Range([(1, 1), (2, 2)])), dst_conn="v"
        )
        st.add_edge(t, st.add_access("y"), Memlet("y", Range([0])), src_conn="o")
        execute(sd, {}, dict(x=np.zeros((3, 4))))
        assert seen["shape"] == ()
