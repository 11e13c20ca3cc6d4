"""The per-state scope index: equal to the walks it replaced, no
reference cycle through the states, and the memlet lint built on it.
The state's own multigraph: networkx's orders, and copies that share
nothing mutable with their parent."""

import copy
import gc
import json
import weakref
from pathlib import Path

import pytest

from repro.autotune import (
    apply_move,
    enumerate_moves,
    move_from_dict,
    state_signature,
)
from repro.core.recipe import (
    SSE_PIPELINE,
    SSE_SEARCH_BASE,
    VERIFY_DIMS,
    sse_move_library,
)
from repro.sdfg import SDFG, Memlet, Tasklet
from repro.sdfg.nodes import MapEntry
from tests.scope_reference import (
    assert_index_matches_walks,
    assert_orders_match_networkx,
    memlet_lint,
)

_TOY_TRACE = Path(__file__).parent / "data" / "sse_search_toy.json"


@pytest.fixture(scope="module")
def recipe_stages():
    return SSE_PIPELINE.stages()


@pytest.fixture(scope="module")
def greedy_path():
    """Every graph of the committed greedy search path, replayed."""
    lib = sse_move_library()
    sd = SSE_SEARCH_BASE.graph_factory()
    graphs = [sd]
    for step in json.loads(_TOY_TRACE.read_text())["steps"]:
        sd = apply_move(sd, move_from_dict(step), lib)
        graphs.append(sd)
    return graphs


def test_index_equals_walks_on_recipe_stages(recipe_stages):
    n = sum(
        assert_index_matches_walks(st)
        for stage in recipe_stages
        for st in stage.sdfg.states
    )
    assert n > 100


def test_index_equals_walks_on_greedy_path(greedy_path):
    assert len(greedy_path) == 12
    for sd in greedy_path:
        assert_index_matches_walks(sd.states[0])


class TestOwnMultigraph:
    def test_orders_equal_networkx_on_recipe_stages(self, recipe_stages):
        n = sum(
            assert_orders_match_networkx(st)
            for stage in recipe_stages
            for st in stage.sdfg.states
        )
        assert n > 100

    def test_orders_equal_networkx_on_greedy_path(self, greedy_path):
        for sd in greedy_path:
            assert_orders_match_networkx(sd.states[0])

    def test_copy_is_isolated_from_its_parent(self, recipe_stages):
        parent = recipe_stages[-1].sdfg
        st = parent.states[0]
        signature, edges = state_signature(parent), _edge_dump(st)
        sd = copy.deepcopy(parent)
        cst = sd.states[0]
        t = next(n for n in cst.nodes if isinstance(n, Tasklet))
        u, _, d = next(e for e in cst.in_edges(t) if e[2].get("memlet"))
        d["memlet"] = Memlet(d["memlet"].data, d["memlet"].subset.offset_by(
            [1] * len(d["memlet"].subset)
        ))
        cst.remove_edge(u, t)
        cst.remove_node(next(n for n in cst.nodes if isinstance(n, MapEntry)))
        assert state_signature(sd) != signature
        assert state_signature(parent) == signature
        assert _edge_dump(st) == edges
        assert set(cst.nodes).isdisjoint(st.nodes)

    def test_remove_edge_drops_the_latest_parallel_edge(self):
        sd = SDFG("parallel")
        sd.add_array("A", [4])
        st = sd.add_state("s")
        a, b = st.add_access("A"), st.add_access("A")
        first, second = Memlet.full("A", [4]), Memlet.full("A", [4])
        st.add_edge(a, b, first)
        st.add_edge(a, b, second)
        assert st.degree(a) == st.degree(b) == 2
        st.remove_edge(a, b)
        ((_, _, d),) = st.in_edges(b)
        assert d["memlet"] is first and st.out_edges(a)[0][2] is d
        st.remove_edge(a, b)
        assert st.edges() == [] and st.predecessors(b) == [] and st.nodes == [a, b]


def _edge_dump(state):
    return [
        (repr(u), repr(v), repr(d["memlet"]), d["src_conn"], d["dst_conn"])
        for u, v, d in state.edges()
    ]


def test_dropped_sdfg_is_freed_without_cyclic_gc(recipe_stages):
    # A state holds its SDFG's arrays, not the SDFG: with the cyclic
    # collector off, a dropped graph goes as soon as its last name does.
    lib = sse_move_library()
    base = SSE_SEARCH_BASE.graph_factory()
    move = enumerate_moves(base, base.states[0], lib)[0]
    gc.collect()
    gc.disable()
    try:
        stage_copy = copy.deepcopy(recipe_stages[-1].sdfg)
        candidate = apply_move(base, move, lib)
        refs = [weakref.ref(stage_copy), weakref.ref(candidate)]
        del stage_copy, candidate
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


class TestMemletLint:
    def test_clean_on_recipe_stages(self, recipe_stages):
        for stage in recipe_stages:
            assert memlet_lint(stage.sdfg, VERIFY_DIMS) == [], stage.name

    def test_clean_on_greedy_path(self, greedy_path):
        for sd in greedy_path:
            assert memlet_lint(sd, VERIFY_DIMS) == []

    def test_fires_on_out_of_bounds_subset(self, recipe_stages):
        # Shift one tasklet read by its array's first extent: every index
        # it reads on that axis is then past the end.
        sd = copy.deepcopy(recipe_stages[-1].sdfg)
        st = sd.states[0]
        t = next(n for n in st.nodes if isinstance(n, Tasklet))
        _, _, d = next(e for e in st.in_edges(t) if e[2].get("memlet"))
        mem = d["memlet"]
        shift = [sd.arrays[mem.data].shape[0]] + [0] * (len(mem.subset) - 1)
        d["memlet"] = Memlet(mem.data, mem.subset.offset_by(shift))
        found = memlet_lint(sd, VERIFY_DIMS)
        assert len(found) == 1 and found[0].startswith("bounds:"), found
        assert "on axis 0" in found[0]

    def test_fires_on_unwritten_transient(self, recipe_stages):
        # A top-level scope reads a transient that nothing writes.
        sd = copy.deepcopy(recipe_stages[-1].sdfg)
        st = sd.states[0]
        desc = sd.add_transient("ghost", sd.arrays["G"].shape)
        entry = next(n for n in st.nodes if isinstance(n, MapEntry))
        st.add_edge(st.add_access("ghost"), entry, Memlet.full("ghost", desc.shape))
        assert memlet_lint(sd, VERIFY_DIMS) == [
            "unwritten: transient 'ghost' is read, never written"
        ]
