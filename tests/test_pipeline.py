"""The Move/Pipeline/CompiledPipeline API and its movement accounting."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    RECIPE_SUMMARY,
    SSE_PIPELINE,
    compile_sse_pipeline,
    sse_movement_report,
)
from repro.core.sse_sdfg import (
    build_sse_sigma_sdfg,
    random_sse_inputs,
    sse_sigma_reference,
)
from repro.sdfg import PipelineReport, measure_movement
from repro.sdfg.passes import Move, PassError
from repro.sdfg.transformations import (
    ArrayShrink,
    BatchedOperationSubstitution,
    DataLayoutTransformation,
    MapExpansion,
    MapFission,
    MapFusion,
    MapTiling,
    Transformation,
)
from repro.sdfg.transformations.redundancy import RedundantComputationRemoval

_DIMS = dict(Nkz=3, NE=4, Nqz=2, Nw=2, N3D=2, NA=5, NB=3, Norb=2)
_PAPER_DIMS = dict(Nkz=7, NE=706, Nqz=7, Nw=70, NA=4864, NB=34, Norb=12, N3D=3)


@pytest.fixture(scope="module")
def stages():
    return {s.name: s for s in SSE_PIPELINE.build()}


@pytest.fixture(scope="module")
def data():
    arrays, tables = random_sse_inputs(_DIMS, seed=3)
    ref = sse_sigma_reference(
        arrays["G"], arrays["dH"], arrays["D"], tables["__neigh__"]
    )
    return arrays, tables, ref


# -- site enumeration: match() for every transformation -------------------------


class TestMatch:
    def _state(self, stage):
        return stage.sdfg, stage.sdfg.states[0]

    def test_base_match_not_implemented(self, stages):
        sd, st = self._state(stages["fig8"])
        with pytest.raises(NotImplementedError):
            Transformation.match(sd, st)

    def test_map_fission(self, stages):
        sd, st = self._state(stages["fig8"])
        sites = MapFission.match(sd, st)
        assert len(sites) == 1
        s = sites[0]
        assert s.scope == "sse"
        assert s.arrays == ("dHD", "dHG")
        assert s.params == ("kz", "E", "qz", "w", "i", "j", "a", "b")
        # After fission no multi-tasklet scope remains.
        sd2, st2 = self._state(stages["fig9"])
        assert MapFission.match(sd2, st2) == []

    def test_redundancy(self, stages):
        sd, st = self._state(stages["fig9"])
        sites = RedundantComputationRemoval.match(sd, st)
        assert len(sites) == 1
        s = sites[0]
        assert s.arrays == ("dHG",)
        # Only the offset params whose kept partner spans the full axis.
        assert set(s.params) == {"qz", "w"}

    def test_redundancy_gone_after_removal(self, stages):
        sd, st = self._state(stages["fig10b"])
        assert RedundantComputationRemoval.match(sd, st) == []

    def test_data_layout(self, stages):
        sd, st = self._state(stages["fig10b"])
        sites = DataLayoutTransformation.match(sd, st)
        arrays = {a for s in sites for a in s.arrays}
        assert {"G", "dH", "D", "Sigma", "dHG", "dHD"} <= arrays

    def test_batching(self, stages):
        sd, st = self._state(stages["fig10c"])
        sites = BatchedOperationSubstitution.match(sd, st)
        by_out = {s.arrays: s for s in sites}
        assert ("dHG",) in by_out and ("Sigma",) in by_out
        assert {"kz", "E"} <= set(by_out[("dHG",)].params)

    def test_map_expansion(self, stages):
        sd, st = self._state(stages["fig11c"])
        sites = MapExpansion.match(sd, st)
        assert len(sites) == 3
        assert all({"a", "b"} <= set(s.params) for s in sites)

    def test_map_fusion(self, stages):
        sd, st = self._state(stages["fig12a"])
        sites = MapFusion.match(sd, st)
        assert len(sites) == 1
        s = sites[0]
        assert s.params == ("a", "b")
        assert len(s.nodes) == 3
        # Topological order: the Σ consumer comes last.
        assert "sigma" in s.nodes[-1].map.label

    def test_map_fusion_groups_by_signature(self, stages):
        # After fission, dHG_mult and sigma_acc share (kz,E,qz,w,i,a,b)
        # while dHD_scale differs — exactly one group of two is offered.
        sd, st = self._state(stages["fig9"])
        sites = MapFusion.match(sd, st)
        assert len(sites) == 1
        assert len(sites[0].nodes) == 2
        assert set(sites[0].params) == {"kz", "E", "qz", "w", "i", "a", "b"}

    def test_array_shrink(self, stages):
        sd, st = self._state(stages["fig12"])
        sites = ArrayShrink.match(sd, st)
        by_arr = {s.arrays[0]: s for s in sites}
        assert set(by_arr) == {"dHG", "dHD"}
        # (a, b) are bound by the common fused scope; the i dimension is
        # bound by *different* inner maps at producer and consumer and
        # must not be offered for shrinking.
        assert by_arr["dHG"].params == ("a", "b")
        assert by_arr["dHG"].dims == (0, 1)

    def test_map_tiling(self, stages):
        sd, st = self._state(stages["fig8"])
        sites = MapTiling.match(sd, st)
        assert len(sites) == 1
        assert set(sites[0].params) == {"kz", "E", "qz", "w", "i", "j", "a", "b"}

    def test_site_serializes(self, stages):
        sd, st = self._state(stages["fig8"])
        d = MapFission.match(sd, st)[0].to_dict()
        json.dumps(d)  # plain data, no graph nodes
        assert d["transformation"] == "MapFission"
        assert "nodes" not in d


# -- move site selection ----------------------------------------------------------


class TestPassSelection:
    def test_no_site_raises(self, stages):
        # no multi-tasklet scope is left after fission
        sd = copy.deepcopy(stages["fig9"].sdfg)
        with pytest.raises(PassError, match="found 0"):
            Move("fission").run(sd, sd.states[0])

    def test_wrong_array_raises(self, stages):
        sd = copy.deepcopy(stages["fig9"].sdfg)
        with pytest.raises(PassError):
            Move("redundancy", {"array": "nope", "params": ("qz",)}).run(
                sd, sd.states[0]
            )


# -- the recipe as a pipeline declaration ----------------------------------------


class TestRecipePipeline:
    def test_summary_is_derived(self):
        assert RECIPE_SUMMARY == SSE_PIPELINE.summary
        assert [n for n, _ in RECIPE_SUMMARY] == [
            "fig8", "fig9", "fig10b", "fig10c", "fig10d", "fig11c",
            "fig12a", "fig12", "fig12s",
        ]
        # Descriptions live only on the steps — no duplicate table.
        from repro.core import recipe

        assert not hasattr(recipe, "_RECIPE_DESCRIPTIONS")

    def test_pipeline_to_dict_is_declarative(self):
        d = SSE_PIPELINE.to_dict()
        json.dumps(d)
        assert [s["stage"] for s in d["steps"]] == [
            n for n, _ in RECIPE_SUMMARY[1:]
        ]
        assert d["steps"][0]["kind"] == "fission"
        assert d["steps"][0]["spec"]["reduce"] == {"dHD": ["j"]}

    def test_build_is_repeatable_and_independent(self):
        a = SSE_PIPELINE.build()
        b = SSE_PIPELINE.build()
        assert [s.name for s in a] == [s.name for s in b]
        assert a[0].sdfg is not b[0].sdfg

    def test_compiled_pipeline_verifies_every_stage(self):
        compiled = compile_sse_pipeline()
        assert compiled.verified
        assert set(compiled.verification) == set(
            n for n, _ in RECIPE_SUMMARY
        )
        assert max(compiled.verification.values()) <= 1e-10

    def test_compiled_pipeline_is_callable(self, data):
        arrays, tables, ref = data
        compiled = compile_sse_pipeline(verify=False)
        sigma = compiled(_DIMS, arrays, tables)
        assert np.allclose(sigma, ref, rtol=1e-10, atol=1e-10)

    def test_two_layout_passes_compose(self, data):
        # A reusable pipeline may re-permute an array it already moved:
        # the caller-facing perms must compose, not overwrite.
        import repro.sdfg.pipeline as plmod
        from repro.sdfg import Pipeline

        arrays, tables, ref = data
        p1, p2 = (2, 0, 1, 3, 4), (1, 0, 2, 3, 4)
        pipe = Pipeline(
            "layout_twice",
            steps=[
                ("l1", "first perm",
                 Move("layout", {"perms": {"G": p1, "Sigma": p1}})),
                ("l2", "second perm",
                 Move("layout", {"perms": {"G": p2, "Sigma": p2}})),
            ],
            graph_factory=build_sse_sigma_sdfg,
            initial=("g0", "initial"),
        )
        final = pipe.build()[-1]
        composed = tuple(p1[i] for i in p2)
        assert final.input_perms["G"] == composed
        assert final.output_perm == composed
        assert plmod.verify_stage(
            final, _DIMS, arrays, tables, ref
        ) <= 1e-10

    def test_verify_stage_detects_corruption(self, data):
        import repro.sdfg.pipeline as plmod

        arrays, tables, ref = data
        final = SSE_PIPELINE.build()[-1]
        with pytest.raises(AssertionError, match="deviates"):
            plmod.verify_stage(final, _DIMS, arrays, tables, ref + 1.0)


# -- movement accounting -----------------------------------------------------------


class TestMovement:
    @pytest.fixture(scope="class")
    def report(self):
        return sse_movement_report(_PAPER_DIMS)

    def test_net_reduction_at_paper_dims(self, report):
        assert report.stages[0].name == "fig8"
        assert report.stages[-1].name == "fig12s"
        assert report.stages[0].total_bytes > report.stages[-1].total_bytes
        assert report.total_reduction > 100

    def test_fission_removes_j_redundancy(self, report):
        # Fig. 9 drops the j-redundant ∇H·G work: 4x less movement.
        r = report.stage("fig8").total_bytes / report.stage("fig9").total_bytes
        assert r > 2

    def test_gemm_substitution_dominates(self, report):
        # Fig. 11c collapses the per-(qz, ω) re-reads of ∇HG≷.
        assert (
            report.stage("fig10d").total_bytes
            > 10 * report.stage("fig11c").total_bytes
        )

    def test_shrink_collapses_footprint_not_traffic(self, report):
        fused, shrunk = report.stage("fig12"), report.stage("fig12s")
        assert shrunk.transient_bytes < fused.transient_bytes / 1000
        assert shrunk.total_bytes == fused.total_bytes

    def test_movement_scales_with_dims(self):
        small = sse_movement_report(_DIMS)
        big = sse_movement_report({**_DIMS, "NE": 2 * _DIMS["NE"]})
        assert big.stages[0].total_bytes > small.stages[0].total_bytes

    def test_measure_movement_initial_graph(self):
        sd = build_sse_sigma_sdfg()
        moved = measure_movement(sd, _DIMS)
        # Every container of the Fig. 8 kernel is moved.
        assert set(moved) == {"G", "dH", "D", "Sigma", "dHG", "dHD"}
        n_iters = (
            _DIMS["Nkz"] * _DIMS["NE"] * _DIMS["Nqz"] * _DIMS["Nw"]
            * _DIMS["N3D"] ** 2 * _DIMS["NA"] * _DIMS["NB"]
        )
        no2 = _DIMS["Norb"] ** 2
        # G is read once per iteration as an Norb x Norb block (16 B/elem).
        assert moved["G"] == n_iters * no2 * 16

    def test_report_json_round_trip(self, report):
        text = report.to_json()
        back = PipelineReport.from_json(text)
        assert back.to_dict() == report.to_dict()
        assert back.stage("fig12s").transient_bytes == report.stage(
            "fig12s"
        ).transient_bytes
        # Derived per-stage fields are serialized and survive the trip.
        stages = back.to_dict()["stages"]
        assert [s["index"] for s in stages] == list(range(len(stages)))
        assert stages[0]["reduction_vs_previous"] == 1.0
        for i, s in enumerate(stages[1:], start=1):
            assert s["reduction_vs_previous"] == pytest.approx(
                report.reduction_vs_previous(i)
            )
        # Fig. 11c is the big per-stage win of the recipe.
        by_name = {s["name"]: s for s in stages}
        assert by_name["fig11c"]["reduction_vs_previous"] > 10

    def test_report_describe_mentions_stages(self, report):
        text = report.describe()
        assert "fig8" in text and "fig12s" in text and "x less" in text
        assert "x vs prev" in text


# -- semantics preservation on random dims (hypothesis) ---------------------------


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


class TestPipelineProperties:
    @given(dims=_dims, seed=st.integers(0, 4))
    @settings(max_examples=8, deadline=None)
    def test_every_stage_preserves_interpreter_semantics(self, dims, seed):
        import repro.sdfg.pipeline as plmod

        arrays, tables = random_sse_inputs(dims, seed=seed)
        ref = sse_sigma_reference(
            arrays["G"], arrays["dH"], arrays["D"], tables["__neigh__"]
        )
        for stage in SSE_PIPELINE.build():
            if stage.name == "fig8":
                continue  # the full 8-D loop nest is slow; covered elsewhere
            err = plmod.verify_stage(
                stage, dims, arrays, tables, ref, rtol=1e-10, atol=1e-10
            )
            assert err <= 1e-10
