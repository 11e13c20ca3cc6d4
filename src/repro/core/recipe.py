"""The paper's SSE transformation recipe (Figs. 8 → 12), as a Pipeline.

The §4.2 sequence of data-centric transformations is declared once, as
data: :data:`SSE_PIPELINE` is an ordered list of ``(stage, description,
Move)`` steps.  A :class:`~repro.sdfg.passes.Move` — the same step type
the autotuner searches over — selects its application sites through its
transformation's ``match()`` pattern enumeration, with no graph-node or
map-label lookups.  Everything else derives from that single
declaration:

* :data:`RECIPE_SUMMARY` — the (stage, description) table consumed by
  ``repro.api.Plan``;
* ``SSE_PIPELINE.build()`` — per-stage snapshots of the transformed SDFG
  (run or check one with :func:`repro.sdfg.pipeline.run_stage` /
  :func:`~repro.sdfg.pipeline.verify_stage`);
* :func:`sse_movement_report` — the §4.1 data-movement model, evaluated
  per stage at concrete dimensions;
* :func:`compile_sse_pipeline` — an interpreter-backed callable of the
  final graph, with every stage verified against
  :func:`~repro.core.sse_sdfg.sse_sigma_reference`.

========  =====================================  ==============
Stage     Transformation                         Paper figure
========  =====================================  ==============
fig8      (initial dataflow)                     Fig. 8
fig9      Map Fission (+ ``j``-reduction)        Fig. 9
fig10b    Redundant-computation removal          Fig. 10b
fig10c    Data-layout transformation             Fig. 10c
fig10d    Multiplication fusion (batched GEMM)   Fig. 10d
fig11c    ω-accumulation GEMM substitution       Fig. 11a-c
fig12a    Map Expansion (hoist ``(a, b)``)       §4.2
fig12     Map Fusion                             Fig. 12
fig12s    Transient shrinking                    Fig. 12 (final)
========  =====================================  ==============
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..sdfg import (
    BatchTemplate,
    CompiledPipeline,
    Memlet,
    Move,
    MoveLibrary,
    Pipeline,
    PipelineReport,
    Stage,
    Tasklet,
    symbols,
)
from ..autotune import SearchConfig, SearchResult
from ..autotune import autotune as _autotune
from .sse_sdfg import build_sse_sigma_sdfg, sse_sigma_reference

__all__ = [
    "Stage",
    "SSE_PIPELINE",
    "SSE_BATCH_TEMPLATES",
    "RECIPE_SUMMARY",
    "compile_sse_pipeline",
    "compiled_sse_kernel",
    "sse_movement_report",
    "sse_move_library",
    "tuned_sse_search",
]

_G_PERM = (2, 0, 1, 3, 4)
_SIGMA_PERM = (2, 0, 1, 3, 4)
_TENSOR_PERM = (3, 4, 2, 0, 1, 5, 6)

#: toy dimensions used for interpreter-backed stage verification
VERIFY_DIMS: Dict[str, int] = dict(
    Nkz=3, NE=4, Nqz=2, Nw=2, N3D=2, NA=5, NB=3, Norb=2
)


def _batched_dhg_code(g, h):
    No = h.shape[-1]
    return {"gh": (g.reshape(-1, No) @ h).reshape(g.shape)}


def _batched_dhg_flops(g, h):
    return 8 * g.shape[0] * g.shape[1] * h.shape[-1] ** 3


def _windowed_sigma_code(gh, hd):
    NE, Nw = gh.shape[0], hd.shape[0]
    idx = (np.arange(NE)[:, None] - np.arange(Nw)[None, :]) % NE
    window = gh[idx]  # (NE, Nw, Norb, Norb)
    return {"out": np.einsum("Ewxy,wyz->Exz", window, hd)}


def _windowed_sigma_flops(gh, hd):
    return 8 * gh.shape[0] * hd.shape[0] * gh.shape[-1] ** 3


def _batched_dhd_code(h, d):
    # dHD[qz, w] = sum_j dH[j] * D[qz, w, j] — the (qz, ω, j) loop nest of
    # the elementwise scaling batched into one contraction per (i, a, b).
    return {"hd": np.einsum("jxy,qwj->qwxy", h, d)}


def _batched_dhd_flops(h, d):
    return 8 * d.shape[0] * d.shape[1] * d.shape[2] * h.shape[-1] ** 2


def _sse_templates() -> Tuple[BatchTemplate, ...]:
    """The SSE batched-operator vocabulary the autotuner may instantiate.

    The first two are the hand recipe's fig10d/fig11c substitutions
    (its batch moves name these same templates); the third,
    ``dhd_contract``, batches the ∇HD≷ scaling over ``(qz, ω, j)`` in one
    move — summing ``j`` *inside* the tasklet removes the write-conflict
    accumulation on ``dHD``, which is what lets the searched pipeline
    fuse without a zero-initializer and beat the hand recipe's modeled
    byte count.
    """
    Nkz, NE, Nqz, Nw, N3D = symbols("Nkz NE Nqz Nw N3D")
    NA, NB, Norb = symbols("NA NB Norb")
    P = Memlet.parse

    # Symbolic shapes the template memlets assume (rank gates included):
    # originals for dH and D, the fig10c permuted layouts for the rest.
    dH_layout = (NA, NB, N3D, Norb, Norb)
    D_layout = (Nqz, Nw, NA, NB, N3D, N3D)
    G_layout = (NA, Nkz, NE, Norb, Norb)
    Sigma_layout = (NA, Nkz, NE, Norb, Norb)
    tensor_layout = lambda t4, t5: (NA, NB, N3D, t4, t5, Norb, Norb)

    dhg = BatchTemplate(
        name="dhg_gemm",
        description="Nkz*NE small multiplications fused into one GEMM",
        array="dHG",
        batch_params=("kz", "E"),
        tasklet=Tasklet(
            "dHG_gemm",
            ["g", "h"],
            ["gh"],
            _batched_dhg_code,
            flops=_batched_dhg_flops,
            op="KExy,yz->KExz",
        ),
        in_memlets={
            "g": P("G[__neigh__[a, b], 0:Nkz, 0:NE, 0:Norb, 0:Norb]"),
            "h": P("dH[a, b, i, 0:Norb, 0:Norb]"),
        },
        out_memlets={"gh": P("dHG[a, b, i, 0:Nkz, 0:NE, 0:Norb, 0:Norb]")},
        required_layouts={
            "G": G_layout,
            "dH": dH_layout,
            "dHG": tensor_layout(Nkz, NE),
        },
    )
    sigma = BatchTemplate(
        name="sigma_window_gemm",
        description="ω accumulation substituted by a windowed GEMM",
        array="Sigma",
        batch_params=("E", "w"),
        tasklet=Tasklet(
            "sigma_gemm",
            ["gh", "hd"],
            ["out"],
            _windowed_sigma_code,
            flops=_windowed_sigma_flops,
        ),
        in_memlets={
            "gh": P("dHG[a, b, i, kz - qz, 0:NE, 0:Norb, 0:Norb]"),
            "hd": P("dHD[a, b, i, qz, 0:Nw, 0:Norb, 0:Norb]"),
        },
        out_memlets={"out": P("Sigma[a, kz, 0:NE, 0:Norb, 0:Norb] (CR: Sum)")},
        required_layouts={
            "dHG": tensor_layout(Nkz, NE),
            "dHD": tensor_layout(Nqz, Nw),
            "Sigma": Sigma_layout,
        },
    )
    dhd = BatchTemplate(
        name="dhd_contract",
        description="(qz, ω, j) scaling batched into one contraction",
        array="dHD",
        batch_params=("qz", "w", "j"),
        tasklet=Tasklet(
            "dHD_contract",
            ["h", "d"],
            ["hd"],
            _batched_dhd_code,
            flops=_batched_dhd_flops,
        ),
        in_memlets={
            "h": P("dH[a, b, 0:N3D, 0:Norb, 0:Norb]"),
            "d": P("D[0:Nqz, 0:Nw, a, b, i, 0:N3D]"),
        },
        # j is consumed inside the contraction: no wcr left on dHD.
        out_memlets={"hd": P("dHD[a, b, i, 0:Nqz, 0:Nw, 0:Norb, 0:Norb]")},
        required_layouts={
            "dH": dH_layout,
            "D": D_layout,
            "dHD": tensor_layout(Nqz, Nw),
        },
    )
    return (dhg, sigma, dhd)


#: batched-operator templates shared by the hand recipe and the autotuner
SSE_BATCH_TEMPLATES: Tuple[BatchTemplate, ...] = _sse_templates()


def sse_move_library() -> MoveLibrary:
    """The autotuner move library for the SSE kernel: the batch templates
    above."""
    return MoveLibrary(templates=SSE_BATCH_TEMPLATES)


#: The Fig. 8 → 12 step sequence (pure data); the two batched
#: substitutions name templates of :data:`SSE_BATCH_TEMPLATES`.
_SSE_STEPS: Tuple[Tuple[str, str, Move], ...] = (
    (
        "fig9",
        "Map Fission: one map per computation, expanded transients",
        Move("fission", {"reduce": {"dHD": ["j"]}}),
    ),
    (
        "fig10b",
        "(qz, ω) offsets removed from ∇HG≷ producer",
        Move("redundancy", {"array": "dHG", "params": ("qz", "w")}),
    ),
    (
        "fig10c",
        "contiguous (kz, E) layout for G≷, Σ≷ and transients",
        Move(
            "layout",
            {
                "perms": {
                    "G": _G_PERM,
                    "Sigma": _SIGMA_PERM,
                    "dHG": _TENSOR_PERM,
                    "dHD": _TENSOR_PERM,
                }
            },
        ),
    ),
    (
        "fig10d",
        "Nkz*NE small multiplications fused into one GEMM",
        Move("batch", {"template": "dhg_gemm"}),
    ),
    (
        "fig11c",
        "ω accumulation substituted by a windowed GEMM",
        Move("batch", {"template": "sigma_window_gemm"}),
    ),
    (
        "fig12a",
        "(a, b) hoisted to outer maps",
        Move("expand", {"outer": ("a", "b")}),
    ),
    (
        "fig12",
        "three scopes fused into a single (a, b) map",
        Move("fuse", {"label": "sse_fused", "params": ("a", "b")}),
    ),
    (
        "fig12s",
        "transients shrunk to per-(a, b) blocks",
        Move("shrink", {"arrays": ("dHG", "dHD"), "params": ("a", "b")}),
    ),
)


def _sse_reference(arrays, tables):
    return sse_sigma_reference(
        arrays["G"], arrays["dH"], arrays["D"], tables["__neigh__"]
    )


def _sse_inputs(dims, seed: int = 0):
    from .sse_sdfg import random_sse_inputs

    return random_sse_inputs(dims, seed=seed)


#: The Fig. 8 → 12 recipe — THE single declaration everything derives from.
SSE_PIPELINE = Pipeline(
    name="sse_recipe",
    steps=_SSE_STEPS,
    graph_factory=build_sse_sigma_sdfg,
    initial=("fig8", "initial Σ≷ dataflow"),
    make_inputs=_sse_inputs,
    reference=_sse_reference,
    library=sse_move_library(),
)

#: (stage, description) table — *derived* from the pipeline declaration;
#: consumed by ``repro.api.Plan`` and the recipe tests.
RECIPE_SUMMARY: Tuple[Tuple[str, str], ...] = SSE_PIPELINE.summary


def sse_movement_report(dims: Mapping[str, int]) -> PipelineReport:
    """Per-stage modeled data movement (paper §4.1) at concrete dims."""
    return SSE_PIPELINE.report(dims)


#: the search problem: the untransformed Fig. 8 graph with its input
#: factory and reference kernel — and *no* recipe knowledge.
SSE_SEARCH_BASE = Pipeline(
    name="sse_search",
    steps=(),
    graph_factory=build_sse_sigma_sdfg,
    initial=("fig8", "initial Σ≷ dataflow"),
    make_inputs=_sse_inputs,
    reference=_sse_reference,
)

#: searched results, cached per (dims, resolved search settings)
_TUNED_CACHE: Dict[tuple, SearchResult] = {}


def tuned_sse_search(
    dims: Mapping[str, int],
    max_moves: Optional[int] = None,
    verify: bool = True,
    trace_path=None,
) -> SearchResult:
    """Autotune the SSE kernel from the untransformed Fig. 8 graph.

    Runs :func:`repro.autotune.autotune` over :data:`SSE_SEARCH_BASE`
    with :func:`sse_move_library`, minimizing modeled bytes at ``dims``;
    with ``verify`` (default) every stage of the winner is checked
    against :func:`sse_sigma_reference` at :data:`VERIFY_DIMS`.
    ``max_moves`` defaults as in :class:`repro.autotune.SearchConfig`.
    The searched pipeline — the autotuned counterpart of
    :data:`SSE_PIPELINE` — is the result's ``pipeline``.
    Results are cached per dims and resolved settings (except when
    ``trace_path`` is given — a trace carries its own identity).
    """
    cfg = SearchConfig(
        max_moves=max_moves,
        verify=verify,
        verify_dims=dict(VERIFY_DIMS),
    ).resolved()
    if trace_path is not None:
        return _autotune(
            SSE_SEARCH_BASE, sse_move_library(), dims, cfg, trace_path
        )
    key = (tuple(sorted(dims.items())), cfg.max_moves, verify)
    if key not in _TUNED_CACHE:
        _TUNED_CACHE[key] = _autotune(
            SSE_SEARCH_BASE, sse_move_library(), dims, cfg
        )
    return _TUNED_CACHE[key]


def compile_sse_pipeline(
    verify: bool = True,
    seed: int = 0,
    rtol: float = 1e-10,
    atol: float = 1e-10,
    backend: Optional[str] = None,
) -> CompiledPipeline:
    """Compile the recipe into an executable Σ≷ callable.

    ``backend`` selects the execution backend lowering every stage
    (``"numpy"`` generated code / ``"interpreter"``; ``None`` means
    ``numpy``).  With ``verify=True``
    (default), every stage is executed through that backend on random
    :data:`VERIFY_DIMS` inputs and checked against
    :func:`sse_sigma_reference` to the given tolerances.
    """
    return SSE_PIPELINE.compile(
        verify_dims=VERIFY_DIMS if verify else None,
        seed=seed,
        rtol=rtol,
        atol=atol,
        backend=backend,
    )


#: final-stage (fig12s) runners, cached per resolved backend name
_SSE_KERNELS: Dict[str, object] = {}


def compiled_sse_kernel(backend: Optional[str] = None):
    """The fig12s Σ≷ runner for one execution backend, compiled once.

    Unlike :func:`compile_sse_pipeline`, only the *final* stage is
    lowered — the production path (``sigma_sse(variant="sdfg")``) and
    the session cross-checks never execute the intermediate snapshots.
    Returns a callable ``(dims, arrays, tables) -> Sigma`` in the
    original ``[kz, E, a]`` layout; cached per resolved backend name.
    """
    from ..sdfg.backends import get_backend
    from ..telemetry.spans import trace

    name = backend or "numpy"
    if name not in _SSE_KERNELS:
        stage = SSE_PIPELINE.stages()[-1]
        runner = get_backend(name).compile_stage(stage)

        def kernel(dims, arrays, tables=None, _runner=runner, _name=name):
            with trace("backend.execute", backend=_name, stage=stage.name):
                result, _ = _runner(dims, arrays, tables)
            return result

        _SSE_KERNELS[name] = kernel
    return _SSE_KERNELS[name]
