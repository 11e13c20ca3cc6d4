"""A compact data-centric (DaCe-style) intermediate representation.

This package reimplements the subset of the Stateful Dataflow multiGraph
(SDFG) model that the paper's optimization workflow relies on:

* symbolic expressions and multi-dimensional subsets,
* states, tasklets, map scopes and memlets with conflict resolution,
* a reference interpreter defining execution semantics,
* memlet propagation through (tiled) map scopes,
* the graph transformations used in §4 of the paper, driven by
  serializable :class:`Move` steps and composed into
  :class:`Pipeline` declarations with the §4.1 movement model
  (:func:`measure_movement`), and
* two execution backends (:func:`get_backend`): the interpreter and
  generated numpy code.

Graphs are built node by node, each memlet written in the paper's
edge-label notation and read with :meth:`Memlet.parse` (``repro.core.sse_sdfg``
builds the Σ≷ graph of Figs. 5/8 that way).
"""

from .backends import (
    Backend,
    BackendError,
    SDFG_BACKENDS,
    StageRunner,
    get_backend,
)
from .graph import SDFG, ArrayDesc, InterstateEdge, InvalidSDFGError, SDFGState
from .interpreter import ExecutionReport, Interpreter, execute
from .memlet import Memlet
from .nodes import AccessNode, Map, MapEntry, MapExit, Tasklet
from .passes import BatchTemplate, Move, MoveLibrary, PassError, move_from_dict
from .pipeline import (
    CompiledPipeline,
    Pipeline,
    PipelineReport,
    Stage,
    StageMovement,
    measure_movement,
)
from .propagation import (
    IndirectionHook,
    neighbor_indirection_hook,
    propagate_memlet,
    propagate_through_maps,
)
from .subsets import Indices, Range
from .transformations import Site
from .symbolic import (
    Add,
    Expr,
    FloorDiv,
    IndirectAccess,
    Integer,
    Max,
    Min,
    Mod,
    Mul,
    NonAffineError,
    Symbol,
    affine_coefficients,
    symbols,
    sympify,
)

__all__ = [
    "Backend",
    "BackendError",
    "SDFG_BACKENDS",
    "StageRunner",
    "get_backend",
    "SDFG",
    "ArrayDesc",
    "InterstateEdge",
    "InvalidSDFGError",
    "SDFGState",
    "ExecutionReport",
    "Interpreter",
    "execute",
    "Memlet",
    "AccessNode",
    "Map",
    "MapEntry",
    "MapExit",
    "Tasklet",
    "BatchTemplate",
    "Move",
    "MoveLibrary",
    "PassError",
    "move_from_dict",
    "Pipeline",
    "CompiledPipeline",
    "PipelineReport",
    "Stage",
    "StageMovement",
    "Site",
    "measure_movement",
    "IndirectionHook",
    "neighbor_indirection_hook",
    "propagate_memlet",
    "propagate_through_maps",
    "Indices",
    "Range",
    "Add",
    "Expr",
    "FloorDiv",
    "IndirectAccess",
    "Integer",
    "Max",
    "Min",
    "Mod",
    "Mul",
    "NonAffineError",
    "Symbol",
    "affine_coefficients",
    "symbols",
    "sympify",
]
