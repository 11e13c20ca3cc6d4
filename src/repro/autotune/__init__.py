"""Autotuner: movement-model-guided search over transformation pipelines.

The hand-written SSE recipe (:data:`repro.core.recipe.SSE_PIPELINE`)
encodes the paper's Fig. 8 -> Fig. 12 sequence as domain knowledge.
This package rediscovers such sequences mechanically:

* :mod:`~repro.autotune.space` enumerates the legal next moves
  (:class:`~repro.sdfg.passes.Move`, the step type the hand recipe is
  written in too) from any SDFG state over each move kind's
  transformation ``match()`` sites — candidate pipeline extensions are
  legal by construction, and only the seven kinds the greedy can commit
  are offered;
* :mod:`~repro.autotune.search` runs a greedy search (with plateau
  escape) over that space, minimizing the §4.1 modeled bytes at target
  symbol bindings with transient footprint as tiebreaker —
  deterministic, seedless, and resumable via a JSON trace.

A winner's models are checked against execution by
:func:`repro.telemetry.sse_flops_drift` (``pipeline=result.pipeline``):
the interpreter runs every stage and its counted flops and element
accesses must equal :func:`repro.model.performance.stage_flops` and the
§4.1 bytes of :meth:`~repro.sdfg.Pipeline.report` exactly.

The SSE-specific move library (batched-GEMM templates) lives in
:func:`repro.core.recipe.sse_move_library`; the searched pipeline is
``repro.core.recipe.tuned_sse_search(dims).pipeline``, and
:func:`repro.api.compile_workload` reports it via its ``autotune=``
option.
"""

from ..sdfg.passes import BatchTemplate, Move, MoveLibrary, move_from_dict
from .search import SearchConfig, SearchResult, SearchTrace, autotune
from .space import (
    AutotuneError,
    apply_move,
    discover_reductions,
    enumerate_moves,
    state_signature,
)

__all__ = [
    "AutotuneError",
    "BatchTemplate",
    "Move",
    "MoveLibrary",
    "SearchConfig",
    "SearchResult",
    "SearchTrace",
    "apply_move",
    "autotune",
    "discover_reductions",
    "enumerate_moves",
    "move_from_dict",
    "state_signature",
]
