"""Unified observability: tracing spans, Chrome-trace export, and
model-vs-measured drift validation.

The telemetry layer measures what the rest of the repo executes and
reconciles it against what the paper's analytic models predict.  Spans
are its only record: every count (bytes, flops, cache hits, Born
iterations) lives on the result or span that produced it — ``run.comm``,
``sweep.reuse``, ``RunResult.iterations``, span attributes.

``repro.telemetry.spans``
    Hierarchical tracing (:func:`trace` / :func:`traced`), thread-safe
    span stacks, per-rank tracers merged as rank-tagged tracks.
``repro.telemetry.timing``
    :func:`timeit`, the shared min-of-repeats wall-clock idiom.
``repro.telemetry.export``
    Chrome-trace/Perfetto JSON of the span tree (``SweepResult.telemetry``).
``repro.telemetry.drift``
    Reconciliation reports: measured comm bytes == §4.1 exchange models
    to the byte, executed flops == Table-3 analytic counts exactly
    (imported lazily — it pulls in the SDFG stack).

Everything is gated on ``REPRO_TELEMETRY`` (``off`` | ``spans``; invalid
values raise), with near-zero overhead when off.  The quickest way in::

    from repro import telemetry
    with telemetry.capture("spans") as cap:
        ...  # any run: Session, SCBASimulation, a distributed runtime
    cap.save("run.trace.json")      # open in https://ui.perfetto.dev
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Dict, List

from .export import (
    chrome_trace_events,
    save_trace,
    telemetry_snapshot,
    trace_json,
)
from .spans import (
    Span,
    Tracer,
    configure,
    get_tracer,
    mode,
    scoped_span,
    spans_enabled,
    trace,
    traced,
    use_scope,
)
from .timing import Timing, timeit

__all__ = [
    "Span",
    "Tracer",
    "trace",
    "traced",
    "configure",
    "mode",
    "spans_enabled",
    "get_tracer",
    "scoped_span",
    "use_scope",
    "Timing",
    "timeit",
    "chrome_trace_events",
    "trace_json",
    "save_trace",
    "telemetry_snapshot",
    "Capture",
    "capture",
    # lazy (PEP 562): the drift module pulls in the SDFG stack
    "drift",
    "DriftReport",
    "DriftRecord",
    "comm_drift",
    "sse_flops_drift",
    "drift_report",
]

_DRIFT_EXPORTS = (
    "DriftReport",
    "DriftRecord",
    "comm_drift",
    "sse_flops_drift",
    "drift_report",
)


def __getattr__(name):
    if name == "drift" or name in _DRIFT_EXPORTS:
        import importlib

        _drift = importlib.import_module(".drift", __name__)
        return _drift if name == "drift" else getattr(_drift, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Capture:
    """The outcome of one :func:`capture` block."""

    def __init__(self):
        self.mode: str = "off"
        self.events: List[Dict[str, Any]] = []

    def snapshot(self) -> Dict[str, Any]:
        return {"mode": self.mode, "trace": self.events}

    def save(self, path) -> None:
        """Write the captured Chrome trace (open in Perfetto)."""
        with open(path, "w") as fh:
            fh.write(json.dumps(self.events))


@contextmanager
def capture(capture_mode: str = "spans"):
    """Scope a telemetry recording: activate ``capture_mode``, clear the
    global tracer, and on exit populate the yielded :class:`Capture` and
    restore the previous mode."""
    previous = configure(capture_mode)
    get_tracer().clear()
    cap = Capture()
    try:
        yield cap
    finally:
        cap.mode = mode()
        cap.events = chrome_trace_events()
        configure(previous)
