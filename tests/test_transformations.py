"""Unit tests for the individual graph transformations."""

import numpy as np
import pytest

from repro.core import build_sse_sigma_sdfg, find_map_entry, random_sse_inputs, sse_sigma_reference
from repro.sdfg import (
    SDFG,
    Map,
    MapEntry,
    MapExit,
    Memlet,
    Range,
    Symbol,
    Tasklet,
    execute,
    symbols,
)
from repro.sdfg.transformations import (
    ArrayShrink,
    BatchedOperationSubstitution,
    DataLayoutTransformation,
    MapExpansion,
    MapFission,
    MapFusion,
    MapTiling,
    TransformationError,
    apply_layout,
)
from repro.sdfg.transformations.redundancy import RedundantComputationRemoval

_DIMS = dict(Nkz=2, NE=3, Nqz=2, Nw=2, N3D=2, NA=4, NB=2, Norb=2)


def fresh_sse():
    sd = build_sse_sigma_sdfg()
    return sd, sd.states[0]


def sse_reference(arrays, tables):
    return sse_sigma_reference(
        arrays["G"], arrays["dH"], arrays["D"], tables["__neigh__"]
    )


def run_sigma(sd, arrays, tables, perms=None, out_perm=None):
    inputs = apply_layout(
        {k: arrays[k] for k in ("G", "dH", "D")}, perms or {}
    )
    out = execute(sd, _DIMS, inputs, tables)["Sigma"]
    if out_perm:
        out = np.transpose(out, np.argsort(out_perm))
    return out


@pytest.fixture(scope="module")
def sse_data():
    arrays, tables = random_sse_inputs(_DIMS, seed=7)
    return arrays, tables, sse_reference(arrays, tables)


class TestMapTiling:
    def test_structure(self):
        sd, st = fresh_sse()
        entry = find_map_entry(st, "sse")
        MapTiling(entry, {"kz": Symbol("skz"), "E": Symbol("sE")}).apply_checked(sd, st)
        outer = st.scope_index().top_level_maps()[0]
        assert outer.map.params == ["tkz", "tE"]

    def test_execution_preserved(self, sse_data):
        arrays, tables, ref = sse_data
        sd, st = fresh_sse()
        MapTiling(find_map_entry(st, "sse"), {"a": 2}).apply_checked(sd, st)
        out = run_sigma(sd, arrays, tables)
        assert np.allclose(out, ref)

    def test_unknown_param_rejected(self):
        sd, st = fresh_sse()
        t = MapTiling(find_map_entry(st, "sse"), {"nope": 2})
        with pytest.raises(TransformationError):
            t.apply_checked(sd, st)

    def test_tile_name_collision_rejected(self):
        sd, st = fresh_sse()
        entry = find_map_entry(st, "sse")
        entry.map.params[0] = "ta"  # force a collision with prefix+param "a"
        t = MapTiling(entry, {"a": 2})
        with pytest.raises(TransformationError):
            t.apply_checked(sd, st)


class TestMapFission:
    def test_produces_three_scopes(self):
        sd, st = fresh_sse()
        MapFission(find_map_entry(st, "sse"), reduce={"dHD": ["j"]}).apply_checked(sd, st)
        assert len(st.scope_index().top_level_maps()) == 3

    def test_param_elimination(self):
        """The paper: j removed from the dHG and Σ maps, kz/E from dHD."""
        sd, st = fresh_sse()
        MapFission(find_map_entry(st, "sse"), reduce={"dHD": ["j"]}).apply_checked(sd, st)
        p1 = find_map_entry(st, "dHG_mult").map.params
        p2 = find_map_entry(st, "dHD_scale").map.params
        p3 = find_map_entry(st, "sigma_acc").map.params
        assert "j" not in p1 and "j" not in p3
        assert "kz" not in p2 and "E" not in p2
        assert "j" in p2

    def test_transient_expansion(self):
        sd, st = fresh_sse()
        MapFission(find_map_entry(st, "sse"), reduce={"dHD": ["j"]}).apply_checked(sd, st)
        assert len(sd.arrays["dHG"].shape) == 9  # kz,E,qz,w,i,a,b + 2 orb
        assert len(sd.arrays["dHD"].shape) == 7  # qz,w,i,a,b + 2 orb

    def test_execution_preserved(self, sse_data):
        arrays, tables, ref = sse_data
        sd, st = fresh_sse()
        MapFission(find_map_entry(st, "sse"), reduce={"dHD": ["j"]}).apply_checked(sd, st)
        assert np.allclose(run_sigma(sd, arrays, tables), ref)

    def test_requires_two_tasklets(self):
        sd = SDFG("one")
        N = symbols("N")[0]
        sd.add_array("x", (N,), np.float64)
        sd.add_array("y", (N,), np.float64)
        st = sd.add_state("s")
        m = Map("m", ["i"], Range([(0, N - 1)]))
        me, mx = MapEntry(m), MapExit(m)
        t = Tasklet("t", ["v"], ["o"], lambda v: {"o": v})
        st.add_edge(st.add_access("x"), me, Memlet.full("x", (N,)))
        st.add_edge(me, t, Memlet.parse("x[i]"), dst_conn="v")
        st.add_edge(t, mx, Memlet.parse("y[i]"), src_conn="o")
        st.add_edge(mx, st.add_access("y"), Memlet.full("y", (N,)))
        with pytest.raises(TransformationError):
            MapFission(me).apply_checked(sd, st)


class TestRedundancyRemoval:
    def _fissioned(self):
        sd, st = fresh_sse()
        MapFission(find_map_entry(st, "sse"), reduce={"dHD": ["j"]}).apply_checked(sd, st)
        return sd, st

    def test_params_removed(self):
        sd, st = self._fissioned()
        RedundantComputationRemoval(
            find_map_entry(st, "dHG_mult"), "dHG", ["qz", "w"]
        ).apply_checked(sd, st)
        assert find_map_entry(st, "dHG_mult").map.params == ["kz", "E", "i", "a", "b"]
        assert len(sd.arrays["dHG"].shape) == 9 - 2

    def test_consumer_gains_shift(self):
        sd, st = self._fissioned()
        RedundantComputationRemoval(
            find_map_entry(st, "dHG_mult"), "dHG", ["qz", "w"]
        ).apply_checked(sd, st)
        # Σ-map tasklet now reads dHG[kz - qz, E - w, ...]
        shifted = [
            d["memlet"]
            for _, _, d in st.edges()
            if d.get("memlet") is not None and d["memlet"].data == "dHG"
            and "qz" in d["memlet"].free_symbols
        ]
        assert shifted, "no consumer memlet carries the kz-qz shift"

    def test_execution_preserved(self, sse_data):
        arrays, tables, ref = sse_data
        sd, st = self._fissioned()
        RedundantComputationRemoval(
            find_map_entry(st, "dHG_mult"), "dHG", ["qz", "w"]
        ).apply_checked(sd, st)
        assert np.allclose(run_sigma(sd, arrays, tables), ref)

    def test_rejects_non_offset_param(self):
        sd, st = self._fissioned()
        with pytest.raises(TransformationError):
            RedundantComputationRemoval(
                find_map_entry(st, "dHG_mult"), "dHG", ["a"]
            ).apply_checked(sd, st)


class TestDataLayout:
    def test_shape_permuted(self):
        sd, st = fresh_sse()
        DataLayoutTransformation("G", (2, 0, 1, 3, 4)).apply_checked(sd, st)
        shp = sd.arrays["G"].shape
        assert repr(shp[0]) == "NA"

    def test_invalid_perm_rejected(self):
        sd, st = fresh_sse()
        with pytest.raises(TransformationError):
            DataLayoutTransformation("G", (0, 1)).apply_checked(sd, st)

    def test_unknown_array_rejected(self):
        sd, st = fresh_sse()
        with pytest.raises(TransformationError):
            DataLayoutTransformation("nope", (0,)).apply_checked(sd, st)

    def test_execution_with_permuted_inputs(self, sse_data):
        arrays, tables, ref = sse_data
        sd, st = fresh_sse()
        perm = (2, 0, 1, 3, 4)
        DataLayoutTransformation("G", perm).apply_checked(sd, st)
        out = run_sigma(sd, arrays, tables, perms={"G": perm})
        assert np.allclose(out, ref)

    def test_apply_layout_helper(self):
        x = np.arange(6).reshape(2, 3)
        out = apply_layout({"x": x}, {"x": (1, 0)})
        assert out["x"].shape == (3, 2)
        assert out["x"].flags["C_CONTIGUOUS"]


class TestMapExpansion:
    def test_nested_structure(self):
        sd, st = fresh_sse()
        entry = find_map_entry(st, "sse")
        MapExpansion(entry, ["a", "b"]).apply_checked(sd, st)
        assert entry.map.params == ["a", "b"]
        inner = [
            n
            for n in st.scope_index().scope_children(entry)
            if isinstance(n, MapEntry)
        ]
        assert len(inner) == 1
        assert "a" not in inner[0].map.params

    def test_must_leave_inner_params(self):
        sd, st = fresh_sse()
        entry = find_map_entry(st, "sse")
        with pytest.raises(TransformationError):
            MapExpansion(entry, list(entry.map.params)).apply_checked(sd, st)

    def test_execution_preserved(self, sse_data):
        arrays, tables, ref = sse_data
        sd, st = fresh_sse()
        MapExpansion(find_map_entry(st, "sse"), ["a", "b"]).apply_checked(sd, st)
        assert np.allclose(run_sigma(sd, arrays, tables), ref)


class TestMapFusionAndShrink:
    def test_fusion_requires_identical_ranges(self):
        sd, st = fresh_sse()
        MapFission(find_map_entry(st, "sse"), reduce={"dHD": ["j"]}).apply_checked(sd, st)
        entries = st.scope_index().top_level_maps()
        with pytest.raises(TransformationError):
            MapFusion(entries).apply_checked(sd, st)

    def test_fusion_requires_two_scopes(self):
        sd, st = fresh_sse()
        with pytest.raises(TransformationError):
            MapFusion([find_map_entry(st, "sse")]).apply_checked(sd, st)

    def test_shrink_requires_point_indices(self):
        sd, st = fresh_sse()
        MapFission(find_map_entry(st, "sse"), reduce={"dHD": ["j"]}).apply_checked(sd, st)
        with pytest.raises(TransformationError):
            # dHG dims 0 is indexed by kz, not by 'a'
            ArrayShrink("dHG", [0], ["a"]).apply_checked(sd, st)

    def test_shrink_rejects_non_transient(self):
        sd, st = fresh_sse()
        with pytest.raises(TransformationError):
            ArrayShrink("G", [0], ["kz"]).apply_checked(sd, st)

    def test_shrink_misaligned_args(self):
        with pytest.raises(ValueError):
            ArrayShrink("x", [0, 1], ["a"])


class TestBatchSubstitution:
    def test_memlet_must_not_use_batched_params(self):
        sd, st = fresh_sse()
        entry = find_map_entry(st, "sse")
        t = Tasklet("t", ["g"], ["o"], lambda g: {"o": g})
        with pytest.raises(TransformationError):
            BatchedOperationSubstitution(
                entry, ["kz"], t,
                in_memlets={"g": Memlet.parse("G[kz, 0, 0, 0, 0]")},
                out_memlets={"o": Memlet.parse("Sigma[0, 0, 0, 0, 0]")},
            ).apply_checked(sd, st)

    def test_unknown_batch_param(self):
        sd, st = fresh_sse()
        t = Tasklet("t", [], ["o"], lambda: {"o": 0})
        with pytest.raises(TransformationError):
            BatchedOperationSubstitution(
                find_map_entry(st, "sse"), ["nope"], t, {}, {"o": Memlet.parse("Sigma[0, 0, 0, 0, 0]")}
            ).apply_checked(sd, st)
