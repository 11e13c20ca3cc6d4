"""Execution backends: the two lowerings of SDFG stages to callables.

The paper's pipeline ends with DaCe *generating fast code* from the
optimized graph (§5); this package is the corresponding step in our
reproduction.  A :class:`Backend` turns one pipeline
:class:`~repro.sdfg.pipeline.Stage` into a :class:`StageRunner` — a
callable executing the stage's SDFG on concrete numpy arrays, in the
caller's *original* data layout (the stage's accumulated layout
permutations are applied on the way in and inverted on the way out).

There are two backends, looked up by name with :func:`get_backend`:

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

from typing import Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "Backend",
    "BackendError",
    "StageRunner",
    "SDFG_BACKENDS",
    "get_backend",
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


def get_backend(name: Optional[str] = None) -> Backend:
    """Instantiate a backend by name (``None`` → ``"numpy"``)."""
    if name is None:
        name = "numpy"
    if name not in _BACKENDS:
        raise BackendError(
            f"unknown SDFG backend {name!r}; expected one of "
            f"{SDFG_BACKENDS}"
        )
    return _BACKENDS[name]()


from .interpreter import InterpreterBackend  # noqa: E402
from .codegen import NumpyBackend  # noqa: E402

_BACKENDS = {"interpreter": InterpreterBackend, "numpy": NumpyBackend}

#: The execution backends of the SDFG layer.
SDFG_BACKENDS: Tuple[str, ...] = tuple(_BACKENDS)
