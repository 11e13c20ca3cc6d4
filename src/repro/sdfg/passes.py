"""Passes: declarative pipeline stages over SDFG transformations.

A :class:`Pass` is one named step of an optimization
:class:`~repro.sdfg.pipeline.Pipeline`.  Where a raw
:class:`~repro.sdfg.transformations.Transformation` is constructed around
explicit graph nodes, a pass is *pure configuration*: it stores only array
names, parameter names, permutations and replacement-tasklet prototypes,
and selects its application sites at run time through the transformation's
:meth:`~repro.sdfg.transformations.Transformation.match` enumeration.
That makes a pipeline a piece of data that can be reported, serialized and
re-applied to freshly built graphs — the paper's Fig. 8 → 12 recipe
becomes one such declaration (:mod:`repro.core.recipe`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .graph import SDFG, SDFGState
from .memlet import Memlet
from .nodes import Tasklet
from .transformations import (
    ArrayShrink,
    BatchedOperationSubstitution,
    DataLayoutTransformation,
    MapExpansion,
    MapFission,
    MapFusion,
    Site,
    Transformation,
)
from .transformations.redundancy import RedundantComputationRemoval

__all__ = [
    "PassError",
    "PassOutcome",
    "Pass",
    "FissionPass",
    "RedundancyPass",
    "LayoutPass",
    "BatchPass",
    "ExpandPass",
    "FusePass",
    "ShrinkPass",
]


class PassError(ValueError):
    """A pass found no (or ambiguously many) matching sites."""


def _describe_sites(
    state: Optional[SDFGState], sites: Sequence[Site]
) -> str:
    """Render candidate sites as indented lines for failure messages.

    Each line shows the site's own description (transformation, scope,
    arrays, params) plus the labels of the scope chain enclosing its
    anchor node, so a failing selection names concrete graph locations.
    """
    if not sites:
        return ""
    lines = []
    for site in sites:
        text = site.describe()
        if state is not None and site.nodes:
            try:
                chain = state.scope_index().scope_chain(site.nodes[0])
            except Exception:
                chain = []
            if chain:
                text += (
                    " (scope chain: "
                    + " < ".join(e.map.label for e in chain)
                    + ")"
                )
        lines.append(f"  - {text}")
    return "; candidate sites:\n" + "\n".join(lines)


@dataclass(frozen=True)
class PassOutcome:
    """What one pass did to the graph: the sites it selected and the
    transformations it applied (by description)."""

    stage: str
    description: str
    transformation: str
    applied: Tuple[str, ...]
    sites: Tuple[Dict[str, Any], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "description": self.description,
            "transformation": self.transformation,
            "applied": list(self.applied),
            "sites": [dict(s) for s in self.sites],
        }


class Pass:
    """One declarative pipeline stage.

    Subclasses set ``transformation`` (the transformation class whose
    :meth:`match` enumerates candidates) and implement :meth:`select`,
    turning matched sites into configured transformation instances using
    only the pass's declarative configuration.
    """

    transformation: type = Transformation

    def __init__(self, stage: str, description: str):
        self.stage = stage
        self.description = description

    # -- declarative surface -------------------------------------------------
    def config(self) -> Dict[str, Any]:
        """The pass's configuration as plain data (for reports)."""
        return {}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "description": self.description,
            "transformation": self.transformation.__name__,
            **self.config(),
        }

    #: permutations this pass imposes on array layouts ({} for most)
    @property
    def perms(self) -> Dict[str, Tuple[int, ...]]:
        return {}

    # -- application ---------------------------------------------------------
    def select(
        self, sdfg: SDFG, state: SDFGState, sites: List[Site]
    ) -> List[Tuple[Site, Transformation]]:
        raise NotImplementedError

    def run(self, sdfg: SDFG, state: SDFGState) -> PassOutcome:
        sites = self.transformation.match(sdfg, state)
        chosen = self.select(sdfg, state, sites)
        if not chosen:
            raise PassError(
                f"pass {self.stage!r}: no matching site for "
                f"{self.transformation.__name__} in state {state.label!r}"
                + _describe_sites(state, sites)
            )
        for _, tx in chosen:
            tx.apply_checked(sdfg, state)
        return PassOutcome(
            stage=self.stage,
            description=self.description,
            transformation=self.transformation.__name__,
            applied=tuple(repr(tx) for _, tx in chosen),
            sites=tuple(site.to_dict() for site, _ in chosen),
        )

    # -- selection helpers -----------------------------------------------------
    def _unique(
        self,
        sites: List[Site],
        what: str,
        state: Optional[SDFGState] = None,
        candidates: Optional[List[Site]] = None,
    ) -> Site:
        """The single site matching the pass's configuration.

        On failure the error lists the candidate sites — the ones that
        matched the pass's filter when it is over-matched, the full
        ``match()`` enumeration when nothing matched — with node labels
        and scope chains, so search- and user-surfaced errors are
        actionable rather than a bare count.
        """
        if len(sites) != 1:
            shown = sites if sites else (candidates or [])
            raise PassError(
                f"pass {self.stage!r}: expected exactly one site {what}, "
                f"found {len(sites)}" + _describe_sites(state, shown)
            )
        return sites[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.stage!r})"


class FissionPass(Pass):
    """Distribute the (unique) multi-tasklet map over its tasklets.

    ``scope`` optionally pins the pass to the map with that label —
    the autotuner uses this to address one of several fission sites.
    """

    transformation = MapFission

    def __init__(
        self,
        stage: str,
        description: str,
        reduce: Optional[Mapping[str, Sequence[str]]] = None,
        scope: Optional[str] = None,
    ):
        super().__init__(stage, description)
        self.reduce = {k: tuple(v) for k, v in (reduce or {}).items()}
        self.scope = scope

    def config(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "reduce": {k: list(v) for k, v in self.reduce.items()}
        }
        if self.scope is not None:
            out["scope"] = self.scope
        return out

    def select(self, sdfg, state, sites):
        hits = [
            s for s in sites if self.scope is None or s.scope == self.scope
        ]
        site = self._unique(hits, "to fission", state, sites)
        tx = MapFission(
            site.nodes[0], reduce={k: list(v) for k, v in self.reduce.items()}
        )
        return [(site, tx)]


class RedundancyPass(Pass):
    """Remove offset-only parameters from the producer of ``array``."""

    transformation = RedundantComputationRemoval

    def __init__(
        self, stage: str, description: str, array: str, params: Sequence[str]
    ):
        super().__init__(stage, description)
        self.array = array
        self.params = tuple(params)

    def config(self) -> Dict[str, Any]:
        return {"array": self.array, "params": list(self.params)}

    def select(self, sdfg, state, sites):
        hits = [
            s
            for s in sites
            if self.array in s.arrays and set(self.params) <= set(s.params)
        ]
        site = self._unique(hits, f"producing {self.array!r}", state, sites)
        return [
            (site, RedundantComputationRemoval(
                site.nodes[0], self.array, list(self.params)
            ))
        ]


class LayoutPass(Pass):
    """Permute the dimensions of the given arrays SDFG-wide."""

    transformation = DataLayoutTransformation

    def __init__(
        self,
        stage: str,
        description: str,
        perms: Mapping[str, Sequence[int]],
    ):
        super().__init__(stage, description)
        self._perms = {k: tuple(v) for k, v in perms.items()}

    @property
    def perms(self) -> Dict[str, Tuple[int, ...]]:
        return dict(self._perms)

    def config(self) -> Dict[str, Any]:
        return {"perms": {k: list(v) for k, v in self._perms.items()}}

    def select(self, sdfg, state, sites):
        matched = {a for s in sites for a in s.arrays}
        out = []
        for array, perm in self._perms.items():
            hits = [s for s in sites if array in s.arrays]
            if array not in matched or not hits:
                raise PassError(
                    f"pass {self.stage!r}: array {array!r} not referenced "
                    f"in state {state.label!r}"
                    + _describe_sites(state, sites)
                )
            out.append((hits[0], DataLayoutTransformation(array, perm)))
        return out


class BatchPass(Pass):
    """Swap the single-tasklet producer of ``array`` for a batched tasklet.

    ``tasklet`` is a prototype :class:`~repro.sdfg.nodes.Tasklet`; a fresh
    node is instantiated per application so the pass can be re-applied to
    independently built graphs.
    """

    transformation = BatchedOperationSubstitution

    def __init__(
        self,
        stage: str,
        description: str,
        array: str,
        batch_params: Sequence[str],
        tasklet: Tasklet,
        in_memlets: Mapping[str, Memlet],
        out_memlets: Mapping[str, Memlet],
    ):
        super().__init__(stage, description)
        self.array = array
        self.batch_params = tuple(batch_params)
        self.tasklet = tasklet
        self.in_memlets = dict(in_memlets)
        self.out_memlets = dict(out_memlets)

    def config(self) -> Dict[str, Any]:
        return {
            "array": self.array,
            "batch_params": list(self.batch_params),
            "tasklet": self.tasklet.label,
            "in_memlets": {k: repr(v) for k, v in self.in_memlets.items()},
            "out_memlets": {k: repr(v) for k, v in self.out_memlets.items()},
        }

    def select(self, sdfg, state, sites):
        hits = [
            s
            for s in sites
            if self.array in s.arrays
            and set(self.batch_params) <= set(s.params)
        ]
        site = self._unique(hits, f"writing {self.array!r}", state, sites)
        # Fresh node and memlet instances per application: the pass is a
        # reusable declaration, the graph owns what it attaches.
        proto = self.tasklet
        fresh = Tasklet(
            proto.label, proto.inputs, proto.outputs, proto.code,
            proto.flops, op=proto.op,
        )

        def clone(m: Memlet) -> Memlet:
            return Memlet(m.data, m.subset, accesses=m.accesses, wcr=m.wcr)

        tx = BatchedOperationSubstitution(
            site.nodes[0],
            list(self.batch_params),
            fresh,
            in_memlets={k: clone(m) for k, m in self.in_memlets.items()},
            out_memlets={k: clone(m) for k, m in self.out_memlets.items()},
        )
        return [(site, tx)]


class ExpandPass(Pass):
    """Hoist ``outer`` params out of every top-level map carrying them."""

    transformation = MapExpansion

    def __init__(self, stage: str, description: str, outer: Sequence[str]):
        super().__init__(stage, description)
        self.outer = tuple(outer)

    def config(self) -> Dict[str, Any]:
        return {"outer": list(self.outer)}

    def select(self, sdfg, state, sites):
        top = set(state.scope_index().top_level_maps())
        out = []
        for site in sites:
            if site.nodes[0] not in top:
                continue
            if not set(self.outer) < set(site.params):
                continue  # must leave a non-empty inner map
            out.append(
                (site, MapExpansion(site.nodes[0], list(self.outer)))
            )
        return out


class FusePass(Pass):
    """Fuse the (unique) group of identically-ranged top-level scopes."""

    transformation = MapFusion

    def __init__(
        self,
        stage: str,
        description: str,
        label: str = "fused",
        params: Optional[Sequence[str]] = None,
    ):
        super().__init__(stage, description)
        self.label = label
        self.params = tuple(params) if params is not None else None

    def config(self) -> Dict[str, Any]:
        return {"label": self.label, "params": list(self.params or [])}

    def select(self, sdfg, state, sites):
        hits = [
            s
            for s in sites
            if self.params is None or s.params == self.params
        ]
        site = self._unique(hits, "of fusable scopes", state, sites)
        return [(site, MapFusion(list(site.nodes), label=self.label))]


class ShrinkPass(Pass):
    """Drop the ``params``-indexed dimensions of the given transients."""

    transformation = ArrayShrink

    def __init__(
        self,
        stage: str,
        description: str,
        arrays: Sequence[str],
        params: Sequence[str],
    ):
        super().__init__(stage, description)
        self.arrays = tuple(arrays)
        self.params = tuple(params)

    def config(self) -> Dict[str, Any]:
        return {"arrays": list(self.arrays), "params": list(self.params)}

    def select(self, sdfg, state, sites):
        out = []
        for array in self.arrays:
            hits = [s for s in sites if array in s.arrays]
            site = self._unique(hits, f"shrinking {array!r}", state, sites)
            keep = [
                (pos, p)
                for pos, p in zip(site.dims, site.params)
                if p in self.params
            ]
            if not keep:
                raise PassError(
                    f"pass {self.stage!r}: no shrinkable dims of {array!r} "
                    f"indexed by {self.params}"
                    + _describe_sites(state, sites)
                )
            dims = [pos for pos, _ in keep]
            params = [p for _, p in keep]
            out.append((site, ArrayShrink(array, dims, params)))
        return out
