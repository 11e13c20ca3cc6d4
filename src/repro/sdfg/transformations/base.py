"""Transformation framework: pattern-checked graph rewrites.

Transformations mutate an SDFG in place, after ``check`` verified the
pattern.  Each one corresponds to a rewrite used in §4 of the paper.

Two entry points:

* the *imperative* path — construct a transformation around explicit graph
  nodes and ``apply_checked`` it — used by unit tests and one-off rewrites;
* the *declarative* path — :meth:`Transformation.match` enumerates every
  candidate :class:`Site` in a state by structural pattern, and a
  :class:`~repro.sdfg.passes.Move` selects among them by array/parameter
  names only, never by graph-node identity or map-label lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..graph import SDFG, SDFGState

__all__ = ["Site", "Transformation", "TransformationError"]


class TransformationError(ValueError):
    """Raised when a transformation's pattern requirements are not met."""


@dataclass(frozen=True)
class Site:
    """A candidate application site found by :meth:`Transformation.match`.

    Sites carry both a declarative description (state label, map scope,
    arrays, parameters — everything needed to report or serialize the
    match) and the live graph anchors (``nodes``) needed to instantiate
    the transformation.  ``nodes`` is excluded from :meth:`to_dict`.
    """

    #: name of the matching :class:`Transformation` subclass
    transformation: str
    #: label of the state the site lives in
    state: str
    #: label of the anchoring map scope(s), when the pattern has one
    scope: Optional[str] = None
    #: data containers the rewrite touches (pattern-specific meaning:
    #: fission intermediates, batching outputs, the shrunk transient, ...)
    arrays: Tuple[str, ...] = ()
    #: candidate parameters (removable offsets, hoistable/batchable map
    #: params, shrink-dim indices' params, ...)
    params: Tuple[str, ...] = ()
    #: pattern-specific dimension positions (e.g. shrinkable dims)
    dims: Tuple[int, ...] = ()
    #: live graph anchors (map entries, in pattern-defined order)
    nodes: Tuple[Any, ...] = field(default=(), compare=False, repr=False)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "transformation": self.transformation,
            "state": self.state,
            "scope": self.scope,
            "arrays": list(self.arrays),
            "params": list(self.params),
            "dims": list(self.dims),
        }

    def describe(self) -> str:
        parts = [self.transformation]
        if self.scope:
            parts.append(f"@{self.scope}")
        if self.arrays:
            parts.append("on " + ",".join(self.arrays))
        if self.params:
            parts.append("[" + ",".join(self.params) + "]")
        return " ".join(parts)


class Transformation:
    """Base class: ``match`` sites, then ``check``/``apply`` on a state."""

    name = "transformation"

    @classmethod
    def match(cls, sdfg: SDFG, state: SDFGState) -> List[Site]:
        """Enumerate candidate application sites by structural pattern.

        Returns declarative :class:`Site` records; constructing the
        actual transformation from a site may need extra configuration
        (permutations, replacement tasklets) supplied by the caller.
        """
        raise NotImplementedError(
            f"{cls.__name__} does not implement site enumeration"
        )

    def check(self, sdfg: SDFG, state: SDFGState) -> None:
        """Raise :class:`TransformationError` when not applicable."""

    def apply(self, sdfg: SDFG, state: SDFGState) -> None:
        raise NotImplementedError

    def apply_checked(self, sdfg: SDFG, state: SDFGState) -> None:
        self.check(sdfg, state)
        self.apply(sdfg, state)
        sdfg.validate()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
