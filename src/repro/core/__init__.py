"""The paper's primary contribution, reproduced.

* :mod:`repro.core.sse_sdfg` — the Σ≷ scattering-self-energy dataflow
  graph of Figs. 5/8 plus a naive reference kernel;
* :mod:`repro.core.recipe` — the §4.2 transformation pipeline
  (Figs. 9-12) with per-stage equivalence verification;
* :mod:`repro.core.distribution` — the §4.1 communication-avoiding
  decomposition: tiled-map memlet propagation and tile-size search.
"""

from .distribution import TileFootprint, derive_sse_footprints, footprint_bytes
from .recipe import (
    RECIPE_SUMMARY,
    SSE_PIPELINE,
    Stage,
    compile_sse_pipeline,
    sse_movement_report,
)
from .sse_sdfg import (
    build_sse_sigma_sdfg,
    find_map_entry,
    random_sse_inputs,
    sse_sigma_reference,
)

__all__ = [
    "TileFootprint",
    "derive_sse_footprints",
    "footprint_bytes",
    "Stage",
    "SSE_PIPELINE",
    "RECIPE_SUMMARY",
    "compile_sse_pipeline",
    "sse_movement_report",
    "build_sse_sigma_sdfg",
    "find_map_entry",
    "random_sse_inputs",
    "sse_sigma_reference",
]
