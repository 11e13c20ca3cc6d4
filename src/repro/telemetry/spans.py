"""Hierarchical tracing spans: the measurement half of the telemetry layer.

A :class:`Span` is one timed region (monotonic ``perf_counter_ns``
timestamps) with attributes and children; spans nest through a
thread-local stack, so a Born-iteration span naturally contains the
engine-row spans it triggered, which contain the RGF batch spans, and so
on.  The :func:`trace` context manager is the single user-facing probe:

    with trace("scba.iteration", iteration=3):
        ...

Everything is gated on the ``REPRO_TELEMETRY`` mode (``off``/``spans``;
see :func:`repro.config.default_telemetry_mode`).  When
tracing is off, :func:`trace` returns a shared no-op context — no span
object, no dictionary, no lock — so instrumented hot paths stay within
noise of the uninstrumented code.

Rank workers of the distributed runtime record into their *own*
:class:`Tracer` (activated with :func:`scoped_span`) so their spans stay
separate from the driver's even under the in-process ``sim`` transport;
the drained span dictionaries are shipped back through the transport and
merged as rank-tagged tracks (:meth:`Tracer.add_track`).
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..config import TELEMETRY_MODES, default_telemetry_mode

__all__ = [
    "Span",
    "Tracer",
    "trace",
    "traced",
    "record_span",
    "configure",
    "mode",
    "spans_enabled",
    "get_tracer",
    "scoped_span",
    "use_scope",
]


# --------------------------------------------------------------------------
# Mode handling
# --------------------------------------------------------------------------
#: module-level fast-path flag; ``trace()`` checks this boolean before
#: doing any work, which is the entire "off" cost.
_MODE: str = "unset"
_SPANS_ON: bool = False

_mode_lock = threading.Lock()


def configure(new_mode: Optional[str] = None) -> str:
    """Activate a telemetry mode, returning the previously active one.

    ``None`` re-reads ``REPRO_TELEMETRY`` from the environment (an
    explicitly set but unknown value raises).
    Forked worker processes (the ``pipe`` transport's ranks) inherit the
    configured mode at fork time.
    """
    global _MODE, _SPANS_ON
    if new_mode is None:
        new_mode = default_telemetry_mode()
    if new_mode not in TELEMETRY_MODES:
        raise ValueError(
            f"telemetry mode {new_mode!r} is not valid; "
            f"expected one of {TELEMETRY_MODES}"
        )
    with _mode_lock:
        previous = _MODE if _MODE != "unset" else default_telemetry_mode()
        _MODE = new_mode
        _SPANS_ON = new_mode == "spans"
    return previous


def mode() -> str:
    """The active telemetry mode (resolving ``REPRO_TELEMETRY`` lazily)."""
    if _MODE == "unset":
        configure(None)
    return _MODE


def spans_enabled() -> bool:
    if _MODE == "unset":
        configure(None)
    return _SPANS_ON


# --------------------------------------------------------------------------
# Spans and tracers
# --------------------------------------------------------------------------
class Span:
    """One timed region: name, attributes, children, monotonic ns stamps."""

    __slots__ = ("name", "attrs", "start_ns", "end_ns", "children", "thread")

    def __init__(self, name: str, attrs: Dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.start_ns = time.perf_counter_ns()
        self.end_ns: Optional[int] = None
        self.children: List["Span"] = []
        self.thread = threading.current_thread().name

    def to_dict(self) -> Dict[str, Any]:
        """A picklable/JSON-serializable snapshot of the subtree."""
        return {
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns
            if self.end_ns is not None
            else time.perf_counter_ns(),
            "thread": self.thread,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }


class Tracer:
    """A span sink: per-thread open-span stacks plus completed root spans.

    On Linux ``perf_counter_ns`` is ``CLOCK_MONOTONIC``, which is shared
    across (forked) processes — rank-worker spans merged back into the
    driver's tracer therefore line up on a common timeline.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        #: completed root span dicts, each tagged with a track label
        self._roots: List[Tuple[str, Dict[str, Any]]] = []

    # -- span stack (one per thread) ---------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, attrs: Dict[str, Any]) -> Span:
        span = Span(name, attrs)
        self._stack().append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        stack = self._stack()
        # tolerate out-of-order exits (generator close etc.): unwind to span
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._roots.append(("main", span.to_dict()))

    def open_depth(self) -> int:
        """Open spans on the calling thread (testing aid)."""
        return len(self._stack())

    # -- completed spans ---------------------------------------------------
    def add_track(self, track: str, span_dicts: List[Dict[str, Any]]) -> None:
        """Merge foreign root-span dicts (e.g. a drained rank) as ``track``."""
        with self._lock:
            for d in span_dicts:
                self._roots.append((track, d))

    def roots(self) -> List[Tuple[str, Dict[str, Any]]]:
        with self._lock:
            return list(self._roots)

    def drain(self) -> List[Dict[str, Any]]:
        """Pop all completed root spans as dicts (picklable, track-less)."""
        with self._lock:
            roots = [d for _, d in self._roots]
            self._roots = []
        return roots

    def clear(self) -> None:
        with self._lock:
            self._roots = []
        self._local = threading.local()


#: the process-global tracer (driver-side spans land here)
_GLOBAL_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return _GLOBAL_TRACER


# --------------------------------------------------------------------------
# Scopes: thread-local tracer redirection for rank workers
# --------------------------------------------------------------------------
_scope_local = threading.local()


def _scope_stack() -> List[Tracer]:
    stack = getattr(_scope_local, "stack", None)
    if stack is None:
        stack = _scope_local.stack = []
    return stack


def current_tracer() -> Tracer:
    stack = _scope_stack()
    return stack[-1] if stack else _GLOBAL_TRACER


@contextmanager
def use_scope(tracer: Optional[Tracer]) -> Iterator[None]:
    """Route spans into a private tracer for the duration — how rank
    workers keep their telemetry separate from the driver's under the
    in-process ``sim`` transport."""
    stack = _scope_stack()
    stack.append(tracer or _GLOBAL_TRACER)
    try:
        yield
    finally:
        stack.pop()


# --------------------------------------------------------------------------
# The probe: trace() / traced()
# --------------------------------------------------------------------------
class _NullContext:
    """Shared no-op context returned by :func:`trace` when spans are off."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _NullContext()


class _SpanContext:
    __slots__ = ("name", "attrs", "tracer", "span")

    def __init__(self, name: str, attrs: Dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.tracer = current_tracer()
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self.tracer.start(self.name, self.attrs)
        return self.span

    def __exit__(self, *exc) -> bool:
        if self.span is not None:
            self.tracer.finish(self.span)
        return False


def trace(name: str, **attrs: Any):
    """Open a span named ``name`` for the duration of a ``with`` block.

    Yields the live :class:`Span` (``None`` when tracing is off), so the
    body may attach late attributes via ``span.attrs[...] = ...``.
    """
    if not _SPANS_ON:
        if _MODE == "unset":
            configure(None)
            if _SPANS_ON:
                return _SpanContext(name, attrs)
        return _NULL
    return _SpanContext(name, attrs)


def record_span(
    name: str,
    start_ns: int,
    end_ns: int,
    tracer: Optional[Tracer] = None,
    **attrs: Any,
) -> None:
    """Record an already-measured interval as a completed root span.

    The probe for blocking points whose duration is known only after the
    fact — transport receive waits, gap-inferred idle time — where a
    ``with trace(...)`` block cannot wrap the interval.  The span lands
    directly in ``tracer`` (default: the current scope's) as a root, so
    it never nests under whatever happens to be open on this thread.
    No-op when spans are off; zero/negative intervals are dropped.
    """
    if not spans_enabled() or end_ns <= start_ns:
        return
    span = Span(name, attrs)
    span.start_ns = int(start_ns)
    span.end_ns = int(end_ns)
    target = tracer if tracer is not None else current_tracer()
    target.add_track("main", [span.to_dict()])


def traced(name: Optional[str] = None, **attrs: Any):
    """Decorator twin of :func:`trace`; the mode is checked per call, so
    decorating at import time is safe."""

    def decorate(fn):
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with trace(span_name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


@contextmanager
def scoped_span(
    tracer: Tracer, name: str, **attrs: Any
) -> Iterator[Optional[Span]]:
    """Activate ``tracer`` and open a span in it — the rank-worker
    entry-point probe.  No-op when spans are off."""
    if not spans_enabled():
        yield None
        return
    with use_scope(tracer):
        with trace(name, **attrs) as span:
            yield span
