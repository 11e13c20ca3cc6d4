"""Autotuner subsystem: move space, greedy search, traces, roofline."""

import dataclasses
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotune import (
    AutotuneError,
    SearchConfig,
    SearchTrace,
    apply_move,
    autotune,
    discover_reductions,
    enumerate_moves,
    move_from_dict,
    roofline_report,
    state_signature,
)
from repro.core.recipe import (
    SSE_PIPELINE,
    SSE_SEARCH_BASE,
    VERIFY_DIMS,
    sse_move_library,
    sse_movement_report,
    tuned_sse_search,
)
from repro.core.sse_sdfg import build_sse_sigma_sdfg
from repro.model.performance import stage_flops
from repro.sdfg import Tasklet, neighbor_indirection_hook, symbols
from repro.sdfg.nodes import MapEntry
from repro.sdfg.pipeline import measure_movement
from repro.sdfg.propagation import propagate_through_maps
from tests.scope_reference import assert_index_matches_walks

_DIMS = dict(VERIFY_DIMS)
_PAPER_DIMS = dict(
    Nkz=7, NE=706, Nqz=7, Nw=70, NA=4864, NB=34, Norb=12, N3D=3
)
#: the greedy search's committed trace at ``_DIMS``, written when the
#: byte model still propagated every memlet's subset
_TOY_TRACE = Path(__file__).parent / "data" / "sse_search_toy.json"


def _propagated_bytes(sdfg, dims):
    """The movement model by outward subset propagation (Fig. 7).

    Every tasklet memlet goes through ``propagate_through_maps`` over its
    scope chain, clamped to its array, with the recipe's neighbor hook;
    the propagated access counts are summed per array.  Raises
    ``NonAffineError`` on a non-affine or unhooked subset.
    """
    hook = neighbor_indirection_hook(*symbols("NA NB"))
    volumes = {}
    for st in sdfg.states:
        for u, v, d in st.edges():
            mem = d.get("memlet")
            node = u if isinstance(u, Tasklet) else v
            if mem is None or not isinstance(node, Tasklet):
                continue
            chain = st.scope_index().scope_chain(node)
            if chain:
                mem = propagate_through_maps(
                    mem,
                    [e.map for e in chain],
                    array_shape=sdfg.arrays[mem.data].shape,
                    hooks=[hook],
                )
            prev = volumes.get(mem.data)
            volumes[mem.data] = (
                mem.accesses if prev is None else prev + mem.accesses
            )
    return {
        name: int(expr.evaluate(dims)) * sdfg.arrays[name].dtype.itemsize
        for name, expr in volumes.items()
    }


def _shared_values(sdfg):
    """What candidate copies share: every edge memlet's fields and every
    map's range, as plain values."""
    out = []
    for st in sdfg.states:
        for _, _, d in st.edges():
            mem = d.get("memlet")
            if mem is not None:
                out.append(
                    (mem.data, mem.subset.dims, mem.accesses, mem.wcr)
                )
        out.extend(
            n.map.range.dims for n in st.nodes if isinstance(n, MapEntry)
        )
    return out


@pytest.fixture(scope="module")
def greedy_result():
    return tuned_sse_search(_DIMS)


def _traced_run(trace_path, dims=_DIMS):
    return tuned_sse_search(dims, trace_path=trace_path, verify=False)


@pytest.fixture(scope="module")
def traced_search(tmp_path_factory):
    """A second, independent run of ``greedy_result``'s search, writing
    its trace: ``(result, completed trace file)``."""
    path = tmp_path_factory.mktemp("autotune") / "trace.json"
    return _traced_run(path), path


# -- move space ---------------------------------------------------------------


class TestMoveSpace:
    def test_enumeration_is_deterministic(self):
        sd = build_sse_sigma_sdfg()
        lib = sse_move_library()
        a = [m.key for m in enumerate_moves(sd, sd.states[0], lib)]
        b = [m.key for m in enumerate_moves(sd, sd.states[0], lib)]
        assert a == b
        assert len(a) == len(set(a))

    def test_initial_graph_offers_fission_first(self):
        sd = build_sse_sigma_sdfg()
        moves = enumerate_moves(sd, sd.states[0], sse_move_library())
        assert moves[0].kind == "fission"

    def test_discover_reductions_finds_dhd_j(self):
        from repro.sdfg.transformations import MapFission

        sd = build_sse_sigma_sdfg()
        (site,) = MapFission.match(sd, sd.states[0])
        assert discover_reductions(sd, sd.states[0], site) == {"dHD": ["j"]}

    def test_every_enumerated_move_applies_and_validates(self):
        sd = build_sse_sigma_sdfg()
        lib = sse_move_library()
        moves = enumerate_moves(sd, sd.states[0], lib)
        assert moves
        for move in moves:
            nxt = apply_move(sd, move, lib)
            nxt.validate()
            assert sum(measure_movement(nxt, _DIMS).values()) > 0

    def test_move_dict_round_trip(self):
        sd = build_sse_sigma_sdfg()
        for move in enumerate_moves(sd, sd.states[0], sse_move_library()):
            back = move_from_dict(move.to_dict())
            assert back.key == move.key
            assert back.priority == move.priority

    def test_recipe_steps_replay_through_the_search_applicator(self):
        # The hand recipe and the search apply a step one way: replaying
        # every SSE_PIPELINE move through apply_move reaches each built
        # stage's graph, and each move survives the JSON round trip.
        built = SSE_PIPELINE.build()
        sd = build_sse_sigma_sdfg()
        assert state_signature(sd) == state_signature(built[0].sdfg)
        for (name, _, move), stage in zip(SSE_PIPELINE.steps, built[1:]):
            assert stage.name == name
            back = move_from_dict(json.loads(json.dumps(move.to_dict())))
            assert back.key == move.key
            sd = apply_move(sd, back, SSE_PIPELINE.library)
            assert state_signature(sd) == state_signature(stage.sdfg), name
            for dims in (_DIMS, _PAPER_DIMS):
                assert measure_movement(sd, dims) == measure_movement(
                    stage.sdfg, dims
                ), name

    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_random_walks_stay_legal(self, data):
        # Property: every move the space emits is legal from the state
        # it was enumerated at — applying it succeeds, the rewritten
        # graph validates, its scope index equals the node-by-node walks,
        # its subsets still propagate (affine or hooked), and the byte
        # model scores it as propagation would.
        lib = sse_move_library()
        sd = build_sse_sigma_sdfg()
        for depth in range(3):
            moves = enumerate_moves(sd, sd.states[0], lib)
            if not moves:
                break
            move = data.draw(st.sampled_from(moves), label=f"move{depth}")
            sd = apply_move(sd, move, lib)
            sd.validate()
            assert_index_matches_walks(sd.states[0])
            moved = measure_movement(sd, _DIMS)
            assert moved == _propagated_bytes(sd, _DIMS)
            assert sum(moved.values()) > 0

    @pytest.mark.parametrize(
        "dims", [_DIMS, _PAPER_DIMS], ids=["toy", "paper"]
    )
    def test_access_counts_equal_propagated_model(self, dims):
        # Scoring by scope-volume products is the propagated model's
        # access count, integer for integer, on every recipe stage.
        for stage in SSE_PIPELINE.stages():
            assert measure_movement(stage.sdfg, dims) == _propagated_bytes(
                stage.sdfg, dims
            ), stage.name

    def test_candidates_leave_their_parent_untouched(self):
        # Candidate graphs share Memlet and Range objects with their
        # parent: a move that edited one in place would change the
        # parent.  The base state and three states of the greedy path
        # (depths 1, 3, 9) offer every move kind between them.
        lib = sse_move_library()
        sd = SSE_SEARCH_BASE.graph_factory()
        steps = json.loads(_TOY_TRACE.read_text())["steps"]
        kinds = set()
        depth = 0
        for target in (0, 1, 3, 9):
            for step in steps[depth:target]:
                sd = apply_move(sd, move_from_dict(step), lib)
            depth = target
            before = (
                state_signature(sd),
                measure_movement(sd, _DIMS),
                _shared_values(sd),
            )
            for move in enumerate_moves(sd, sd.states[0], lib):
                apply_move(sd, move, lib)
                kinds.add(move.kind)
                after = (
                    state_signature(sd),
                    measure_movement(sd, _DIMS),
                    _shared_values(sd),
                )
                assert after == before, (depth, move.describe())
        assert kinds == {
            "fission", "redundancy", "layout", "batch", "expand", "fuse",
            "shrink",
        }


# -- search -------------------------------------------------------------------


class TestSearch:
    def test_greedy_beats_hand_recipe_at_toy_dims(self, greedy_result):
        hand = sse_movement_report(_DIMS)
        tuned = greedy_result.report
        assert tuned.stages[-1].total_bytes < hand.stages[-1].total_bytes

    def test_emitted_sequence_is_legal(self, greedy_result):
        # Each committed step's move must be offered by a fresh
        # enumeration of the state it was committed from, and replaying
        # it must reproduce the recorded structural signature.
        lib = sse_move_library()
        sd = SSE_SEARCH_BASE.graph_factory()
        for step in greedy_result.trace.steps:
            offered = {
                m.key: m for m in enumerate_moves(sd, sd.states[0], lib)
            }
            move = move_from_dict(step)
            assert move.key in offered
            sd = apply_move(sd, move, lib)
            assert state_signature(sd) == step["signature"]

    def test_every_searched_stage_verifies(self, greedy_result):
        v = greedy_result.verification
        assert v is not None
        # fig8 plus one entry per committed move, all within tolerance.
        assert len(v) == len(greedy_result.moves) + 1
        assert all(err <= 1e-10 for err in v.values())

    def test_search_is_pinned(self, greedy_result):
        # Every step's move, score and signature and the evaluation
        # count match the committed trace of the propagated-subset model.
        pinned = json.loads(_TOY_TRACE.read_text())
        assert greedy_result.trace.to_dict() == pinned

    def test_search_is_deterministic(self, greedy_result, traced_search):
        again, _ = traced_search
        assert [m.key for m in again.moves] == [
            m.key for m in greedy_result.moves
        ]
        assert again.report.to_dict() == greedy_result.report.to_dict()

    def test_describe_lists_moves(self, greedy_result):
        text = greedy_result.describe()
        assert "autotune[greedy]" in text
        assert f"{len(greedy_result.moves)} moves" in text

    def test_greedy_rediscovers_paper_reduction(self):
        # Acceptance: the search finds a pipeline at least as good as the
        # hand Fig. 8 -> 12 recipe (677x) at paper dims — the Fig. 9-12
        # sequence with the ω-accumulation batched as well (700.8x).
        res = tuned_sse_search(_PAPER_DIMS)
        hand = sse_movement_report(_PAPER_DIMS)
        assert res.total_reduction >= hand.total_reduction
        assert res.total_reduction >= 677
        assert res.total_reduction == pytest.approx(700.8, abs=0.1)
        assert [m.kind for m in res.moves] == [
            "fission", "redundancy", "layout", "batch", "batch", "layout",
            "batch", "expand", "fuse", "shrink", "shrink",
        ]
        assert (
            res.report.stages[-1].total_bytes
            <= hand.stages[-1].total_bytes
        )

    def test_tuned_pipeline_is_compilable(self, greedy_result):
        compiled = greedy_result.pipeline.compile(verify_dims=_DIMS)
        assert set(compiled.verification) == {
            s.name for s in compiled.stages
        }


# -- traces (resume, divergence) ----------------------------------------------


class TestTrace:
    @pytest.fixture()
    def searched(self, traced_search, tmp_path):
        """The shared search's result and a private copy of its trace."""
        first, source = traced_search
        path = tmp_path / "trace.json"
        shutil.copy(source, path)
        return first, path

    def test_trace_round_trip_and_resume(self, searched):
        first, path = searched
        assert path.exists()
        trace = SearchTrace.load(path)
        assert trace.completed
        assert len(trace.steps) == len(first.moves)
        assert trace.evaluations == first.evaluations
        assert SearchTrace.from_dict(
            json.loads(json.dumps(trace.to_dict()))
        ).to_dict() == trace.to_dict()
        # Completed trace: the rerun replays instead of searching, and
        # replayed moves are not evaluations — the recorded count stays.
        again = _traced_run(path)
        assert [m.key for m in again.moves] == [m.key for m in first.moves]
        assert again.evaluations == first.evaluations
        assert SearchTrace.load(path).evaluations == first.evaluations

    def test_truncated_trace_continues_search(self, searched):
        first, path = searched
        trace = SearchTrace.load(path)
        trace.steps = trace.steps[: len(trace.steps) // 2]
        trace.completed = False
        trace.save(path)
        resumed = _traced_run(path)
        assert [m.key for m in resumed.moves] == [
            m.key for m in first.moves
        ]
        # The prefix's recorded count is kept and what the resumed search
        # evaluated after the replay is added to it.
        assert trace.evaluations == first.evaluations
        assert first.evaluations < resumed.evaluations < 2 * first.evaluations
        assert SearchTrace.load(path).evaluations == resumed.evaluations

    def test_mismatched_trace_raises(self, searched):
        _, path = searched
        with pytest.raises(AutotuneError, match="records"):
            _traced_run(path, dims=dict(_DIMS, NE=_DIMS["NE"] + 1))

    def test_diverged_trace_raises(self, searched):
        _, path = searched
        trace = SearchTrace.load(path)
        trace.steps[0]["signature"] = "0" * 16
        trace.completed = False
        trace.save(path)
        with pytest.raises(AutotuneError, match="diverged"):
            _traced_run(path)


# -- configuration knobs ------------------------------------------------------


class TestConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_moves", 0),
            ("max_moves", -3),
            ("max_moves", 2.5),
        ],
    )
    def test_non_positive_int_argument_raises(self, field, value):
        with pytest.raises(AutotuneError, match=field):
            SearchConfig(**{field: value}).resolved()

    # the one autotune setting with an environment default
    @pytest.mark.parametrize("var", ["REPRO_AUTOTUNE_MAX_MOVES"])
    def test_env_invalid_int_raises(self, monkeypatch, var):
        monkeypatch.setenv(var, "zero")
        with pytest.raises(ValueError, match=var):
            SearchConfig().resolved()

    def test_env_ints_apply(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUTOTUNE_MAX_MOVES", "9")
        assert SearchConfig().resolved().max_moves == 9
        assert SearchConfig(max_moves=5).resolved().max_moves == 5

    def test_base_with_steps_raises(self):
        with pytest.raises(AutotuneError, match="has steps"):
            autotune(SSE_PIPELINE, sse_move_library(), _DIMS)

    def test_max_moves_bounds_pipeline_depth(self):
        res = autotune(
            SSE_SEARCH_BASE,
            sse_move_library(),
            _DIMS,
            SearchConfig(max_moves=2, verify=False),
        )
        assert len(res.moves) <= 2


# -- roofline validation ------------------------------------------------------


class TestRoofline:
    @pytest.fixture(scope="class")
    def report(self, greedy_result):
        return roofline_report(
            greedy_result.pipeline,
            model_dims=_PAPER_DIMS,
            measure_dims=_DIMS,
            repeats=1,
        )

    def test_analytic_flops_agree_exactly(self, report):
        # Analytic einsum counts and the backend's executed counts use
        # the same complex-arithmetic constants: agreement is exact.
        assert report.agreement == 0.0
        for s in report.stages:
            assert s.measured_flops == s.modeled_measure_flops

    def test_stages_verified_and_timed(self, report):
        for s in report.stages:
            assert s.verify_error <= 1e-10
            assert s.measured_seconds > 0
            assert s.modeled_bytes > 0

    def test_model_dims_drive_bytes_and_intensity(self, report, greedy_result):
        at_model_dims = greedy_result.pipeline.report(_PAPER_DIMS)
        assert [s.modeled_bytes for s in report.stages] == [
            s.total_bytes for s in at_model_dims.stages
        ]
        assert all(s.intensity > 0 for s in report.stages)

    def test_machine_model_attaches_bound(self, greedy_result):
        rep = roofline_report(
            greedy_result.pipeline,
            model_dims=_DIMS,
            measure_dims=_DIMS,
            repeats=1,
            peak_flops=1e12,
            mem_bandwidth=1e11,
        )
        for s in rep.stages:
            assert s.roofline_seconds == pytest.approx(
                max(s.modeled_flops / 1e12, s.modeled_bytes / 1e11)
            )

    def test_json_and_describe(self, report):
        d = json.loads(report.to_json())
        assert d["agreement"] == 0.0
        assert len(d["stages"]) == len(report.stages)
        assert "flops agreement" in report.describe()

    def test_stage_flops_match_hand_models(self):
        # The initial Fig. 8 graph's analytic count equals the hand
        # flops callables summed over the scope volume.
        sd = build_sse_sigma_sdfg()
        assert stage_flops(sd, _DIMS) > 0


# -- plan integration ---------------------------------------------------------


class TestPlanIntegration:
    def _scba_workload(self, **physics_kw):
        from repro.api import DeviceSpec, GridSpec, PhysicsSpec, Workload

        physics = dict(
            transport="scba", mu_left=0.2, mu_right=-0.2, coupling=0.25,
            mixing=0.6, max_iterations=2, tolerance=1e-12,
            sse_variant="dace",
        )
        physics.update(physics_kw)
        return Workload(
            device=DeviceSpec(
                nx_cols=6, ny_rows=3, NB=4, slab_width=2, Norb=2
            ),
            grid=GridSpec(
                e_min=-1.2, e_max=1.2, NE=8, Nkz=2, Nqz=2, Nw=2, eta=1e-4
            ),
            physics=PhysicsSpec(**physics),
        )

    @pytest.mark.parametrize("name", ["annealing", "beam"])
    def test_unknown_strategy_raises_plan_error(self, name):
        from repro.api import PlanError, compile_workload

        with pytest.raises(PlanError, match="unknown autotune strategy"):
            compile_workload(self._scba_workload(), autotune=name)

    def test_autotune_requires_sse_workload(self):
        from repro.api import (
            DeviceSpec, GridSpec, PhysicsSpec, PlanError, Workload,
            compile_workload,
        )

        ballistic = Workload(
            device=DeviceSpec(
                nx_cols=6, ny_rows=3, NB=4, slab_width=2, Norb=2
            ),
            grid=GridSpec(
                e_min=-1.2, e_max=1.2, NE=8, Nkz=2, Nqz=2, Nw=2, eta=1e-4
            ),
            physics=PhysicsSpec(
                transport="ballistic", mu_left=0.2, mu_right=-0.2
            ),
        )
        with pytest.raises(PlanError, match="requires an SSE workload"):
            compile_workload(ballistic, autotune="greedy")
        with pytest.raises(PlanError, match="requires an SSE workload"):
            compile_workload(
                self._scba_workload(sse_variant="reference"),
                autotune="greedy",
            )

    def test_plan_carries_tuned_report(self, greedy_result):
        # The wiring (describe/to_dict) is exercised with the searched
        # report grafted on, so the test doesn't redo a full search.
        from repro.api import compile_workload

        plan = compile_workload(self._scba_workload())
        assert plan.autotune is None and plan.tuned_sse_report is None
        assert plan.to_dict()["tuned_sse_movement"] is None
        tuned = dataclasses.replace(
            plan,
            autotune="greedy",
            tuned_sse_report=greedy_result.report,
        )
        text = tuned.describe()
        assert "autotune[greedy]" in text and "hand recipe" in text
        d = tuned.to_dict()
        assert d["autotune"] == "greedy"
        assert (
            d["tuned_sse_movement"]
            == greedy_result.report.to_dict()
        )
