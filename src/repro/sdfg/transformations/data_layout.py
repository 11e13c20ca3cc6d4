"""Data-layout transformation (paper Fig. 10c).

Permutes the dimensions of an array SDFG-wide: the descriptor shape and
every memlet subset referencing the array are reordered.  The paper applies
this to ``G≷`` ([kz, E, f, ...] -> [f, kz, E, ...]) so that the inner
dimensions are accessed contiguously over (kz, E), enabling the fusion of
``Nkz*NE`` small matrix multiplications into a single GEMM.

Input/output arrays change their physical layout, so callers must permute
the corresponding numpy arrays; :func:`apply_layout` does this.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..graph import SDFG, ArrayDesc, SDFGState
from ..memlet import Memlet
from ..subsets import Range
from .base import Site, Transformation, TransformationError

__all__ = ["DataLayoutTransformation", "apply_layout"]


class DataLayoutTransformation(Transformation):
    """Permute the dimensions of ``array`` by ``perm`` (new-from-old order)."""

    name = "DataLayout"

    def __init__(self, array: str, perm: Sequence[int]):
        self.array = array
        self.perm = tuple(perm)

    @classmethod
    def match(cls, sdfg: SDFG, state: SDFGState) -> List[Site]:
        """Every multi-dimensional array referenced by a memlet of the
        state is re-layoutable; the permutation is the move's choice."""
        referenced = {
            d["memlet"].data
            for _, _, d in state.edges()
            if d.get("memlet") is not None
        }
        return [
            Site(
                transformation=cls.__name__,
                state=state.label,
                arrays=(name,),
            )
            for name in sorted(referenced)
            if sdfg.arrays[name].rank >= 2
        ]

    def check(self, sdfg: SDFG, state: SDFGState) -> None:
        if self.array not in sdfg.arrays:
            raise TransformationError(f"unknown array {self.array!r}")
        desc = sdfg.arrays[self.array]
        if sorted(self.perm) != list(range(desc.rank)):
            raise TransformationError(
                f"perm {self.perm} is not a permutation of rank {desc.rank}"
            )

    def apply(self, sdfg: SDFG, state: SDFGState) -> None:
        desc = sdfg.arrays[self.array]
        sdfg.arrays[self.array] = ArrayDesc(
            self.array,
            tuple(desc.shape[i] for i in self.perm),
            desc.dtype,
            transient=desc.transient,
        )
        for st in sdfg.states:
            for _, _, d in st.edges():
                mem = d.get("memlet")
                if mem is None or mem.data != self.array:
                    continue
                dims = [mem.subset.dims[i] for i in self.perm]
                d["memlet"] = Memlet(
                    self.array, Range(dims), accesses=mem.accesses, wcr=mem.wcr
                )


def apply_layout(
    arrays: Dict[str, np.ndarray], perms: Dict[str, Sequence[int]]
) -> Dict[str, np.ndarray]:
    """Physically permute numpy arrays to match layout transformations."""
    out = dict(arrays)
    for name, perm in perms.items():
        if name in out:
            out[name] = np.ascontiguousarray(np.transpose(out[name], perm))
    return out
