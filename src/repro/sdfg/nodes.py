"""SDFG node types: access nodes, tasklets, map scopes.

The dataflow model follows the paper's Fig. 3: *Data* nodes are array
containers, *Tasklets* are fine-grained computations, *Maps* are parametric
parallelism scopes delimited by entry/exit nodes, and *Memlets* (edges)
carry data-movement annotations.
"""

from __future__ import annotations

import copy
import itertools
from typing import Callable, Dict, Optional, Sequence

from .subsets import Range

__all__ = ["Node", "AccessNode", "Tasklet", "Map", "MapEntry", "MapExit"]

_counter = itertools.count()


class Node:
    """Base class for SDFG state nodes (identity-hashable)."""

    __slots__ = ("label", "_uid")

    def __init__(self, label: str):
        self.label = label
        self._uid = next(_counter)

    def __deepcopy__(self, memo) -> "Node":
        """Same ``_uid`` (hash, codegen's ``label#uid`` keys), attributes
        shared, but a map node's :class:`Map` copied once per ``memo``."""
        new = memo[id(self)] = object.__new__(type(self))
        for cls in type(self).__mro__[:-1]:
            for name in cls.__dict__.get("__slots__", ()):
                setattr(new, name, getattr(self, name))
        if isinstance(self, (MapEntry, MapExit)):
            new.map = copy.deepcopy(self.map, memo)
        return new

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label})"

    def __hash__(self) -> int:
        return self._uid

    def __eq__(self, other) -> bool:
        return self is other


class AccessNode(Node):
    """A read/write point for a named data container."""

    __slots__ = ("data",)

    def __init__(self, data: str):
        super().__init__(data)
        self.data = data


class Tasklet(Node):
    """A fine-grained computation.

    ``code`` is a Python callable receiving keyword arguments named after
    the input connectors and returning a dict keyed by output connectors.
    Inputs arrive as numpy views (point subsets squeezed to scalars/blocks);
    outputs are written back through the output memlets.

    ``op`` is an optional *declarative* description of what ``code``
    computes, consumed by code-generating execution backends
    (:mod:`repro.sdfg.backends.codegen`); the interpreter ignores it.
    Two forms are understood:

    * an einsum-style equation over the memlets' **slice** (non-point)
      dimensions, one subscript group per input connector in declaration
      order, e.g. ``"xy,yz->xz"`` for a block matmul or ``"xy,->xy"``
      for a scale-by-scalar — backends extend the equation with the
      enclosing map parameters to vectorize whole scopes;
    * the string ``"zero"`` for a no-input tasklet writing zeros.

    A tasklet without ``op`` is still executable by every backend; code
    generation simply falls back to a loop nest invoking ``code``.
    """

    __slots__ = ("inputs", "outputs", "code", "flops", "op")

    def __init__(
        self,
        label: str,
        inputs: Sequence[str],
        outputs: Sequence[str],
        code: Callable[..., Dict[str, object]],
        flops: Optional[Callable[..., int]] = None,
        op: Optional[str] = None,
    ):
        super().__init__(label)
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.code = code
        # Optional flop-count model: callable(shapes dict) -> int
        self.flops = flops
        self.op = op

    def __call__(self, **kwargs):
        return self.code(**kwargs)


class Map:
    """A parametric parallel scope over a multi-dimensional index range."""

    __slots__ = ("label", "params", "range")

    def __init__(self, label: str, params: Sequence[str], rng: Range):
        if len(params) != len(rng):
            raise ValueError(
                f"map {label!r}: {len(params)} params but range rank {len(rng)}"
            )
        if len(set(params)) != len(params):
            raise ValueError(f"map {label!r}: duplicate parameters")
        self.label = label
        self.params = list(params)
        self.range = rng

    def __deepcopy__(self, memo) -> "Map":
        memo[id(self)] = new = Map(self.label, self.params, self.range)
        return new

    def param_index(self, name: str) -> int:
        return self.params.index(name)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{p}={b!r}:{(e + 1)!r}" for p, (b, e, _) in zip(self.params, self.range)
        )
        return f"Map[{inner}]"


class MapEntry(Node):
    __slots__ = ("map",)

    def __init__(self, m: Map):
        super().__init__(f"{m.label}[entry]")
        self.map = m


class MapExit(Node):
    __slots__ = ("map",)

    def __init__(self, m: Map):
        super().__init__(f"{m.label}[exit]")
        self.map = m
