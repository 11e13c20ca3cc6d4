"""Redundant-computation removal (paper Fig. 10b).

In the fissioned ``∇HG≷`` map, the parameters ``(qz, w)`` appear only as
offsets ``kz - qz`` / ``E - w`` in the *input* index of a periodic axis:
the subspace ``[0, Nkz) x [0, NE)`` already covers all shifted points, so
iterating over ``(qz, w)`` recomputes identical values.  The transformation

* removes the offset parameters from the producer map,
* zeroes them out of the producer's input memlets,
* drops the corresponding dimensions of the produced tensor, and
* re-introduces the shift in every *consumer* memlet
  (``∇HG≷[kz, E, ...]`` becomes ``∇HG≷[kz - qz, E - w, ...]``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..graph import SDFG, ArrayDesc, SDFGState
from ..memlet import Memlet
from ..nodes import AccessNode, MapEntry, Tasklet
from ..subsets import Range
from ..symbolic import Integer, NonAffineError, Symbol, affine_coefficients
from .base import Site, Transformation, TransformationError

__all__ = ["RedundantComputationRemoval"]


class RedundantComputationRemoval(Transformation):
    """Remove offset-only parameters from a producer map.

    Parameters
    ----------
    map_entry:
        The producer scope (single tasklet writing ``array``).
    array:
        The transient tensor whose dimensions carry the removed parameters.
    removed_params:
        Parameters appearing only as ``kept - removed`` input offsets.
    """

    name = "RedundantComputationRemoval"

    def __init__(self, map_entry: MapEntry, array: str, removed_params: List[str]):
        self.map_entry = map_entry
        self.array = array
        self.removed_params = list(removed_params)

    # -- pattern -------------------------------------------------------------
    @classmethod
    def match(cls, sdfg: SDFG, state: SDFGState) -> List[Site]:
        """Single-tasklet scopes with offset-only parameters.

        A parameter ``r`` is removable when every one of its appearances
        in the producer's *input* memlets has the form ``k ± r`` where the
        kept parameter ``k`` already spans the full accessed array axis
        (the shifted subspace is covered, so iterating over ``r`` only
        recomputes values), and ``r`` indexes a plain dimension of the
        produced tensor (so that dimension can be dropped).
        """
        sites: List[Site] = []
        scopes = state.scope_index()
        for entry in state.nodes:
            if not isinstance(entry, MapEntry):
                continue
            tasklets = [
                n
                for n in scopes.scope_children(entry)
                if isinstance(n, Tasklet)
            ]
            if len(tasklets) != 1:
                continue
            t = tasklets[0]
            m = entry.map
            pset = set(m.params)
            offsets: Dict[str, Tuple[str, int]] = {}
            plain_in: set = set()
            consistent = True
            for _, _, d in state.in_edges(t):
                mem = d.get("memlet")
                if mem is None:
                    continue
                desc = sdfg.arrays[mem.data]
                for dim_i, (b, e, _) in enumerate(mem.subset.dims):
                    if b != e:
                        continue
                    syms = b.free_symbols & pset
                    if not syms:
                        continue
                    try:
                        coeffs, _ = affine_coefficients(b, m.params)
                    except NonAffineError:
                        plain_in |= syms  # indirection etc.: keep them
                        continue
                    used = [p for p in coeffs]
                    if len(used) == 1:
                        plain_in |= syms
                        continue
                    if len(used) != 2:
                        plain_in |= syms
                        continue
                    # Which of the two is removable?  The kept one must
                    # span the full array axis: range (0, extent - 1).
                    for r, k in (used, reversed(used)):
                        cr = coeffs[r].maybe_int()
                        ck = coeffs[k].maybe_int()
                        if ck != 1 or cr not in (1, -1):
                            continue
                        kb, ke, _ = m.range[m.param_index(k)]
                        if kb != Integer(0) or ke != desc.shape[dim_i] - 1:
                            continue
                        if r in offsets and offsets[r] != (k, cr):
                            consistent = False
                        offsets.setdefault(r, (k, cr))
            if not consistent:
                continue
            out_arrays: Dict[str, Memlet] = {}
            for _, _, d in state.out_edges(t):
                mem = d.get("memlet")
                if mem is not None:
                    out_arrays[mem.data] = mem
            for array, out_mem in sorted(out_arrays.items()):
                out_plain = {
                    b.name
                    for b, e, _ in out_mem.subset.dims
                    if b == e and isinstance(b, Symbol)
                }
                removable = [
                    p
                    for p in m.params
                    if p in offsets and p not in plain_in and p in out_plain
                ]
                if removable:
                    sites.append(
                        Site(
                            transformation=cls.__name__,
                            state=state.label,
                            scope=m.label,
                            arrays=(array,),
                            params=tuple(removable),
                            nodes=(entry,),
                        )
                    )
        return sites

    def check(self, sdfg: SDFG, state: SDFGState) -> None:
        if self.map_entry not in state:
            raise TransformationError("map entry not in state")
        m = self.map_entry.map
        for r in self.removed_params:
            if r not in m.params:
                raise TransformationError(f"{r!r} is not a parameter of the map")
        tasklets = [
            n
            for n in state.scope_index().scope_children(self.map_entry)
            if isinstance(n, Tasklet)
        ]
        if len(tasklets) != 1:
            raise TransformationError("pattern requires a single-tasklet scope")
        self._shift_spec(state, tasklets[0])  # raises on mismatch

    def _shift_spec(
        self, state: SDFGState, tasklet: Tasklet
    ) -> Dict[str, Tuple[str, int]]:
        """For each removed param: the (kept param, sign) it offsets."""
        m = self.map_entry.map
        spec: Dict[str, Tuple[str, int]] = {}
        for _, _, d in state.in_edges(tasklet):
            mem = d.get("memlet")
            if mem is None:
                continue
            for b, e, _ in mem.subset.dims:
                if b != e:
                    continue
                syms = b.free_symbols & set(self.removed_params)
                if not syms:
                    continue
                try:
                    coeffs, _ = affine_coefficients(b, m.params)
                except NonAffineError as exc:
                    raise TransformationError(str(exc)) from exc
                removed = [p for p in coeffs if p in self.removed_params]
                kept = [p for p in coeffs if p not in self.removed_params]
                if len(removed) != 1 or len(kept) != 1:
                    raise TransformationError(
                        f"index {b!r} is not a simple kept±removed offset"
                    )
                r, k = removed[0], kept[0]
                cr = coeffs[r].maybe_int()
                ck = coeffs[k].maybe_int()
                if ck != 1 or cr not in (1, -1):
                    raise TransformationError(
                        f"index {b!r}: unsupported coefficients (need k ± r)"
                    )
                if r in spec and spec[r] != (k, cr):
                    raise TransformationError(
                        f"parameter {r!r} offsets multiple dimensions differently"
                    )
                spec[r] = (k, cr)
        for r in self.removed_params:
            if r not in spec:
                raise TransformationError(
                    f"removed parameter {r!r} does not appear as an offset"
                )
        return spec

    # -- rewrite ----------------------------------------------------------------
    def apply(self, sdfg: SDFG, state: SDFGState) -> None:
        entry = self.map_entry
        m = entry.map
        interior = state.scope_index().scope_children(entry)
        tasklet = [n for n in interior if isinstance(n, Tasklet)][0]
        spec = self._shift_spec(state, tasklet)

        # Positions of removed dims in the produced tensor (indexed by plain
        # params after fission).
        out_mem = None
        for _, v, d in state.out_edges(tasklet):
            mem = d.get("memlet")
            if mem is not None and mem.data == self.array:
                out_mem = mem
        if out_mem is None:
            raise TransformationError(f"tasklet does not write {self.array!r}")

        removed_pos: Dict[int, str] = {}
        kept_pos: Dict[str, int] = {}
        for i, (b, e, _) in enumerate(out_mem.subset.dims):
            if b == e and isinstance(b, Symbol):
                if b.name in self.removed_params:
                    removed_pos[i] = b.name
                else:
                    kept_pos[b.name] = i

        # 1. Producer: zero removed params in input memlets.
        zero = {r: 0 for r in self.removed_params}
        for u, _, d in list(state.in_edges(tasklet)):
            mem = d.get("memlet")
            if mem is not None:
                d["memlet"] = mem.subs(zero)

        # 2. Producer map loses the removed params.
        keep_idx = [i for i, p in enumerate(m.params) if p not in self.removed_params]
        m.range = Range([m.range[i] for i in keep_idx])
        m.params = [m.params[i] for i in keep_idx]

        # 3. Tensor and all memlets on it lose the removed dims; consumers
        #    gain the shift on the kept dims.
        desc = sdfg.arrays[self.array]
        keep_dims = [i for i in range(desc.rank) if i not in removed_pos]
        sdfg.arrays[self.array] = ArrayDesc(
            self.array,
            tuple(desc.shape[i] for i in keep_dims),
            desc.dtype,
            transient=desc.transient,
        )

        old_full = Range.from_shape(desc.shape)
        new_desc = sdfg.arrays[self.array]
        producer_nodes = set(interior) | {entry, tasklet}
        for u, v, d in state.edges():
            mem = d.get("memlet")
            if mem is None or mem.data != self.array:
                continue
            if mem.subset == old_full:
                d["memlet"] = Memlet.full(self.array, new_desc.shape, wcr=mem.wcr)
                continue
            is_producer_side = u in producer_nodes or v in producer_nodes
            dims = list(mem.subset.dims)
            if not is_producer_side:
                # Consumer: shift kept dims by the removed-param indices.
                for r, (k, sign) in spec.items():
                    kpos = kept_pos[k]
                    rpos = [i for i, rr in removed_pos.items() if rr == r][0]
                    rb, re_, _ = dims[rpos]
                    kb, ke, ks = dims[kpos]
                    dims[kpos] = (kb + sign * rb, ke + sign * re_, ks)
            new_dims = [dims[i] for i in keep_dims]
            d["memlet"] = Memlet(self.array, Range(new_dims), wcr=mem.wcr)
