"""Execution backends: pluggable lowering of SDFG stages to callables.

The paper's pipeline ends with DaCe *generating fast code* from the
optimized graph (§5); this package is the corresponding seam in our
reproduction.  A :class:`Backend` turns one pipeline
:class:`~repro.sdfg.pipeline.Stage` into a :class:`StageRunner` — a
callable executing the stage's SDFG on concrete numpy arrays, in the
caller's *original* data layout (the stage's accumulated layout
permutations are applied on the way in and inverted on the way out).

Two backends are registered:

``interpreter``
    Wraps the reference :class:`~repro.sdfg.interpreter.Interpreter`
    (sequential-loop semantics, the executable specification).
``numpy``
    Generates vectorized Python/numpy source from the graph
    (:mod:`repro.sdfg.backends.codegen`): map scopes whose tasklets carry
    declarative ``op`` annotations collapse into broadcast slice
    assignments, ``np.einsum`` contractions and ``np.add.at`` scatters;
    residual scopes become generated loop nests.  Orders of magnitude
    faster than interpretation, with an analytically derived
    :class:`~repro.sdfg.interpreter.ExecutionReport`.

Backend selection is an argument (``Pipeline.compile(backend=...)``,
``SCBASettings.sse_backend``, ``compile_workload(sse_backend=...)``); the
default is ``numpy``, which every pipeline compilation verifies against
the reference kernel.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "Backend",
    "BackendError",
    "StageRunner",
    "SDFG_BACKENDS",
    "available_backends",
    "get_backend",
    "register_backend",
]


class BackendError(ValueError):
    """A stage cannot be lowered or executed by the requested backend."""


class StageRunner:
    """One stage compiled by a backend: a layout-aware callable.

    Calling a runner executes the stage on concrete inputs and returns
    ``(output, executed)`` where ``output`` is the single written
    non-transient array in the caller's original layout and ``executed``
    exposes an ``ExecutionReport`` as ``executed.report`` (the
    interpreter instance itself, or an analytic report for generated
    code).  ``source`` is the generated Python module text, or ``None``
    for backends that do not generate code.
    """

    #: generated source text (None when the backend interprets directly)
    source: Optional[str] = None

    def __call__(
        self,
        dims: Mapping[str, int],
        arrays: Mapping[str, np.ndarray],
        tables: Optional[Mapping[str, np.ndarray]] = None,
    ):
        raise NotImplementedError


class Backend:
    """A stage-lowering strategy.  Subclasses implement
    :meth:`compile_stage` and set :attr:`name`."""

    name: str = ""

    def compile_stage(self, stage) -> StageRunner:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


_REGISTRY: Dict[str, Callable[[], Backend]] = {}


def register_backend(name: str, factory: Callable[[], Backend]) -> None:
    """Register a backend factory under ``name`` (last wins)."""
    _REGISTRY[name] = factory


def available_backends() -> Tuple[str, ...]:
    """Names of all currently registered backends (built-in + custom)."""
    return tuple(_REGISTRY)


def get_backend(name: Optional[str] = None) -> Backend:
    """Instantiate a backend by name (``None`` → ``"numpy"``)."""
    if name is None:
        name = "numpy"
    if name not in _REGISTRY:
        raise BackendError(
            f"unknown SDFG backend {name!r}; expected one of "
            f"{available_backends()}"
        )
    return _REGISTRY[name]()


from .interpreter import InterpreterBackend  # noqa: E402
from .codegen import NumpyBackend  # noqa: E402

register_backend("interpreter", InterpreterBackend)
register_backend("numpy", NumpyBackend)

#: The built-in execution backends of the SDFG layer (custom backends
#: added via :func:`register_backend` show up in :func:`available_backends`).
SDFG_BACKENDS: Tuple[str, ...] = ("interpreter", "numpy")
