"""External tracing: spans recorded from the benchmark's own files.

One table (:data:`PROBES`) names each layer's entry points as they are
*looked up at call time* — ``from x import f`` binds ``f`` in the importing
module, so that module is the one listed.  :func:`tracing` rebinds every
target to a timing wrapper (name, start, end, parent; kept in memory) and
restores it on exit.  A target that no longer exists raises
:class:`ProbeError`: a renamed function must break the benchmark, never
read as zero seconds.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

#: (module, attribute or Class.method, span name, record argument/result bytes)
PROBES: Tuple[Tuple[str, str, str, bool], ...] = (
    ("repro.api", "compile_workload", "api.compile", False),
    ("repro.api.workload", "DeviceSpec.build", "hamiltonian.build", False),
    ("repro.negf.engine", "SpectralGrid.electron_operators", "hamiltonian.assemble", False),
    ("repro.negf.engine", "SpectralGrid.phonon_operators", "hamiltonian.assemble", False),
    ("repro.negf.scba", "SCBASimulation.run", "scba.run", False),
    ("repro.negf.scba", "SCBASimulation.solve_electrons", "engine.electrons", False),
    ("repro.negf.scba", "SCBASimulation.solve_phonons", "engine.phonons", False),
    ("repro.negf.scba", "SCBASimulation.scattering_self_energies", "sse.phase", False),
    ("repro.negf.engine", "rgf_solve_batched", "rgf.solve", False),
    ("repro.negf.engine", "lead_self_energy_batched", "boundary.solve", False),
    ("repro.negf.scba", "sigma_sse", "sse.sigma", True),
    ("repro.negf.scba", "pi_sse", "sse.pi", True),
    ("repro.negf.scba", "preprocess_phonon_green", "sse.preprocess", False),
    # the distributed runtime reaches the same kernels through rank workers
    ("repro.runtime.scba", "DistributedSCBARuntime.run", "runtime.run", False),
    ("repro.runtime.rank", "RankWorker.solve_gf", "engine.rank_gf", False),
    ("repro.runtime.rank", "preprocess_phonon_green", "sse.preprocess", False),
    ("repro.parallel.schedules", "DaceExchange.run_iteration", "runtime.exchange", False),
    ("repro.parallel.schedules", "RankSSEStore.dace_compute", "sse.tile", True),
    ("repro.core.recipe", "sse_movement_report", "sdfg.movement_report", False),
    ("repro.core.recipe", "tuned_sse_search", "autotune.search", False),
    ("repro.core.recipe", "compile_sse_pipeline", "sdfg.pipeline_compile", False),
)


class ProbeError(LookupError):
    """A probe target does not exist (renamed, moved or deleted)."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the enclosing span in ``Tracer.spans`` (-1: top level)
    parent: int
    #: argument + result ``nbytes`` (computed from array sizes, not measured)
    nbytes: int = 0


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(o) for o in obj)
    if isinstance(obj, dict):
        return sum(_nbytes(o) for o in obj.values())
    return 0


class Tracer:
    """In-memory span list of one single-threaded run."""

    def __init__(self):
        self.spans: List[Span] = []
        self._open = -1

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = Span(name, time.perf_counter(), 0.0, self._open)
        self.spans.append(span)
        self._open = len(self.spans) - 1
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open = span.parent

    def wrap(self, fn, name: str, count_bytes: bool):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if count_bytes:
                span.nbytes = _nbytes(args) + _nbytes(result)
            return result

        return probe


def _resolve(module: str, path: str):
    """(owner object, attribute name) of a probe target, or ProbeError."""
    try:
        owner = importlib.import_module(module)
    except ImportError as exc:
        raise ProbeError(f"probe module {module!r} not importable: {exc}") from exc
    *classes, leaf = path.split(".")
    for cls in classes:
        owner = vars(owner).get(cls)
        if owner is None:
            raise ProbeError(f"probe target {module}.{path}: no {cls!r}")
    if leaf not in vars(owner):
        raise ProbeError(f"probe target {module}.{path} does not exist")
    return owner, leaf


@contextmanager
def tracing(probes: Sequence[Tuple[str, str, str, bool]] = PROBES) -> Iterator[Tracer]:
    """Install ``probes``, yield the recording :class:`Tracer`, restore."""
    tracer = Tracer()
    installed = []
    try:
        for module, path, name, count_bytes in probes:
            owner, leaf = _resolve(module, path)
            original = vars(owner)[leaf]
            setattr(owner, leaf, tracer.wrap(original, name, count_bytes))
            installed.append((owner, leaf, original))
        yield tracer
    finally:
        for owner, leaf, original in reversed(installed):
            setattr(owner, leaf, original)


# -- analysis -------------------------------------------------------------------

@dataclass
class Layer:
    """All spans of one name: inclusive time, self time, calls, bytes."""

    total_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    nbytes: int = 0


def summarize(spans: Sequence[Span]) -> Dict[str, Layer]:
    """Aggregate spans by name; self time = span minus its child spans.

    Children of one span never overlap (one thread), so the covered part
    of a span is the plain sum of its direct children.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out: Dict[str, Layer] = {}
    for s, covered in zip(spans, child_time):
        layer = out.setdefault(s.name, Layer())
        layer.total_s += s.end - s.start
        layer.self_s += s.end - s.start - covered
        layer.calls += 1
        layer.nbytes += s.nbytes
    return out


def coverage(spans: Sequence[Span], root: str) -> float:
    """Fraction of the (single) ``root`` span tiled by its direct children."""
    (index,) = [i for i, s in enumerate(spans) if s.name == root]
    covered = sum(s.end - s.start for s in spans if s.parent == index)
    return covered / (spans[index].end - spans[index].start)
