"""Flop-count models for the three QT kernels (paper §4.3, Table 3).

The SSE counts are the paper's exact closed forms:

* OMEN:  ``64 * NA*NB*N3D * Nkz*Nqz*NE*Nw * Norb^3``
* DaCe:  ``32 * NA*NB*N3D * Nkz*Nqz*NE*Nw * Norb^3
          + 32 * NA*NB*N3D * Nkz*NE * Norb^3``

The GF-phase kernels (contour integral + RGF) mix dense and sparse
operations, so the paper measures them with ``nvprof``; we model them as
``c * Nkz * NE * bnum * block^3`` (RGF) and ``c * Nkz * NE * block^3``
(boundary solve on one block), with constants calibrated once against the
paper's own Table 3 (documented in DESIGN.md):

* ``C_RGF  = 45.39``  — ~23 block matrix multiplications per RGF block,
* ``C_CONTOUR = 137.97`` — boundary eigen/contour solve on one block.

Both evaluation structures share L = 35 nm, hence the same ``bnum = 19``;
with it the model reproduces Table 3 and extrapolates to Table 8 within 2%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from ..config import SimulationParameters

__all__ = [
    "C_RGF",
    "C_CONTOUR",
    "sse_flops_omen",
    "sse_flops_dace",
    "rgf_flops",
    "contour_integral_flops",
    "gf_phase_flops",
    "IterationFlops",
    "iteration_flops",
    "tasklet_flops",
    "stage_flops",
]

#: RGF flop per block: ``C_RGF * block^3`` — calibrated to Table 3.
C_RGF = 45.39

#: Contour-integral flop per (E, kz): ``C_CONTOUR * block^3`` — calibrated.
C_CONTOUR = 137.97


def sse_flops_omen(p: SimulationParameters) -> float:
    """SSE flop count of the original OMEN algorithm (§4.3)."""
    return (
        64.0
        * p.NA
        * p.NB
        * p.N3D
        * p.Nkz
        * p.Nqz
        * p.NE
        * p.Nw
        * p.Norb**3
    )


def sse_flops_dace(p: SimulationParameters) -> float:
    """SSE flop count after the data-centric transformations (§4.3)."""
    shared = p.NA * p.NB * p.N3D * p.Nkz * p.NE * p.Norb**3
    return 32.0 * shared * p.Nqz * p.Nw + 32.0 * shared


def rgf_flops(p: SimulationParameters) -> float:
    """Recursive Green's Function flop count over the (E, kz) grid."""
    block = p.block_size
    return C_RGF * p.Nkz * p.NE * p.bnum * block**3


def contour_integral_flops(p: SimulationParameters) -> float:
    """Open-boundary (contour integral) flop count over the (E, kz) grid."""
    block = p.block_size
    return C_CONTOUR * p.Nkz * p.NE * block**3


def gf_phase_flops(p: SimulationParameters) -> float:
    """Total GF-state flops (boundary conditions + RGF)."""
    return rgf_flops(p) + contour_integral_flops(p)


@dataclass(frozen=True)
class IterationFlops:
    """Single GF+SSE iteration flop breakdown (Table 3 row set)."""

    contour_integral: float
    rgf: float
    sse_omen: float
    sse_dace: float

    @property
    def total_omen(self) -> float:
        return self.contour_integral + self.rgf + self.sse_omen

    @property
    def total_dace(self) -> float:
        return self.contour_integral + self.rgf + self.sse_dace


def iteration_flops(p: SimulationParameters) -> IterationFlops:
    """All Table-3 kernels for one self-consistent Born iteration."""
    return IterationFlops(
        contour_integral=contour_integral_flops(p),
        rgf=rgf_flops(p),
        sse_omen=sse_flops_omen(p),
        sse_dace=sse_flops_dace(p),
    )


# -- analytic SDFG-stage flop counts -----------------------------------------
#
# ``stage_flops`` is the modeled flop count of one pipeline stage, the
# companion of the §4.1 byte model, derived from each tasklet's
# declarative ``op`` annotation (an einsum over the non-point dimensions
# of its memlets).  Complex arithmetic costs: a contraction performs one
# complex multiply-add per index-space point (8 real flops), a pure
# elementwise product one complex multiply (6 real flops) — matching the
# constants the hand-written ``flops`` callables use, so the analytic
# count agrees exactly with the flops the interpreter counts while
# running the stage (``repro.telemetry.sse_flops_drift``, asserted clean
# for the hand recipe and the searched pipeline).


class _ShapeOnly:
    """Stand-in operand exposing only ``.shape`` for ``flops`` callables."""

    def __init__(self, shape):
        self.shape = tuple(shape)


def _operand_shape(memlet, env: Mapping[str, int]):
    """The squeezed shape a tasklet sees for one memlet under ``env``:
    symbolically point dimensions are dropped (interpreter semantics),
    slice dimensions contribute their evaluated lengths."""
    shape = []
    sub = memlet.subset
    for i, (b, e, _) in enumerate(sub.dims):
        if b == e:
            continue
        shape.append(int(sub.dim_length(i).evaluate(env)))
    return tuple(shape)


def _einsum_flops(op: str, in_shapes) -> int:
    """Flops of one ``op``-annotated tasklet invocation.

    ``in_shapes`` are the squeezed operand shapes in input-connector
    declaration order (matching the comma-separated subscript groups).
    Cost: 8 flops per point of the union index space when any index is
    contracted away, 6 (one complex multiply) when purely elementwise.
    """
    lhs, rhs = op.split("->")
    groups = lhs.split(",")
    if len(groups) != len(in_shapes):
        raise ValueError(
            f"op {op!r}: {len(groups)} subscript groups for "
            f"{len(in_shapes)} inputs"
        )
    extents: Dict[str, int] = {}
    for sub, shape in zip(groups, in_shapes):
        if len(sub) != len(shape):
            raise ValueError(
                f"op {op!r}: subscript {sub!r} does not match "
                f"operand of rank {len(shape)}"
            )
        for idx, n in zip(sub, shape):
            extents[idx] = n
    volume = 1
    for n in extents.values():
        volume *= n
    contracted = set(extents) - set(rhs)
    return (8 if contracted else 6) * volume


def tasklet_flops(
    state, tasklet, env: Mapping[str, int]
) -> int:
    """Analytic flops of one invocation of ``tasklet`` in ``state``.

    Prefers the declarative ``op`` annotation (``"zero"`` initializers
    cost nothing); falls back to calling the hand-written ``flops``
    callable with shape-only operand stand-ins; op-less, flops-less
    tasklets count zero (the interpreter does the same).
    """
    memlets = {}
    for u, v, d in state.edges():
        mem = d.get("memlet")
        if mem is None or v is not tasklet:
            continue
        conn = d.get("dst_conn")
        if conn is not None:
            memlets[conn] = mem
    if tasklet.op == "zero":
        return 0
    shapes = [
        _operand_shape(memlets[conn], env)
        for conn in tasklet.inputs
        if conn in memlets
    ]
    if tasklet.op is not None and len(shapes) == len(tasklet.inputs):
        try:
            return _einsum_flops(tasklet.op, shapes)
        except ValueError:
            pass  # malformed/mismatched annotation: fall back
    if tasklet.flops is not None:
        operands = {
            conn: _ShapeOnly(shape)
            for conn, shape in zip(tasklet.inputs, shapes)
        }
        return int(tasklet.flops(**operands))
    return 0


def stage_flops(sdfg, env: Mapping[str, int]) -> int:
    """Total analytic flops of one SDFG (pipeline-stage snapshot).

    Each tasklet's per-invocation count is multiplied by the iteration
    volume of its enclosing map scopes, evaluated under ``env``.
    """
    total = 0
    for st in sdfg.states:
        scopes = st.scope_index()
        for t in st.tasklets():
            per_call = tasklet_flops(st, t, env)
            if per_call == 0:
                continue
            iters = 1
            for entry in scopes.scope_chain(t):
                iters *= int(entry.map.range.num_elements().evaluate(env))
            total += per_call * iters
    return total
