"""End-to-end verification of the Figs. 8-12 transformation recipe."""

import numpy as np
import pytest

from repro.core import SSE_PIPELINE, random_sse_inputs, sse_sigma_reference
from repro.sdfg.pipeline import run_stage, verify_stage

_DIMS = dict(Nkz=3, NE=4, Nqz=2, Nw=2, N3D=2, NA=5, NB=3, Norb=2)

STAGE_NAMES = [
    "fig8", "fig9", "fig10b", "fig10c", "fig10d", "fig11c",
    "fig12a", "fig12", "fig12s",
]


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


def test_stage_inventory(stages):
    assert list(stages) == STAGE_NAMES


@pytest.mark.parametrize("name", STAGE_NAMES)
def test_stage_equivalence(stages, data, name):
    arrays, tables, ref = data
    err = verify_stage(stages[name], _DIMS, arrays, tables, reference=ref)
    assert err < 1e-10


def test_stages_are_independent_snapshots(stages):
    """Transforming later stages must not mutate earlier snapshots."""
    # dHG: per-iteration block -> 7 index dims + 2 orbital dims after
    # fission -> 3 index dims + 2 orbital dims after shrinking.
    assert len(stages["fig8"].sdfg.arrays["dHG"].shape) == 2
    assert len(stages["fig9"].sdfg.arrays["dHG"].shape) == 9
    assert len(stages["fig12s"].sdfg.arrays["dHG"].shape) == 5


def test_flops_monotonically_decrease_after_fission(stages, data):
    arrays, tables, _ = data
    flops = {}
    for name in ("fig9", "fig10b", "fig12s"):
        _, interp = run_stage(stages[name], _DIMS, arrays, tables)
        flops[name] = interp.report.flops
    assert flops["fig9"] >= flops["fig10b"] >= flops["fig12s"]


def test_flop_ratio_matches_model(stages, data):
    """§4.3: fissioned (OMEN-like) vs final ≈ 2·NqzNw / (NqzNw + 1)."""
    arrays, tables, _ = data
    _, i9 = run_stage(stages["fig9"], _DIMS, arrays, tables)
    _, i12 = run_stage(stages["fig12s"], _DIMS, arrays, tables)
    nqw = _DIMS["Nqz"] * _DIMS["Nw"]
    expected = 2 * nqw / (nqw + 1)
    measured = i9.report.flops / i12.report.flops
    assert abs(measured - expected) / expected < 0.25


def test_tasklet_count_collapses(stages, data):
    arrays, tables, _ = data
    _, first = run_stage(stages["fig8"], _DIMS, arrays, tables)
    _, last = run_stage(stages["fig12s"], _DIMS, arrays, tables)
    assert first.report.tasklet_invocations > 10 * last.report.tasklet_invocations


def test_final_stage_transients_are_small(stages):
    sd = stages["fig12s"].sdfg
    env = dict(_DIMS)
    dhg = sd.arrays["dHG"].total_size().evaluate(env)
    dhd = sd.arrays["dHD"].total_size().evaluate(env)
    full = (
        _DIMS["Nkz"] * _DIMS["NE"] * _DIMS["Nqz"] * _DIMS["Nw"]
        * _DIMS["N3D"] * _DIMS["NA"] * _DIMS["NB"] * _DIMS["Norb"] ** 2
    )
    # §4.2: transients reduced to per-(a, b) blocks.
    assert dhg < full / (_DIMS["NA"] * _DIMS["NB"]) * 4
    assert dhd < dhg


@pytest.mark.parametrize("seed", [0, 1])
def test_recipe_on_other_dims(seed):
    dims = dict(Nkz=2, NE=5, Nqz=2, Nw=3, N3D=3, NA=4, NB=2, Norb=3)
    arrays, tables = random_sse_inputs(dims, seed=seed)
    ref = sse_sigma_reference(
        arrays["G"], arrays["dH"], arrays["D"], tables["__neigh__"]
    )
    for stage in SSE_PIPELINE.build():
        if stage.name in ("fig8",):
            continue  # the full 8-D loop nest is slow; covered above
        verify_stage(stage, dims, arrays, tables, reference=ref)
