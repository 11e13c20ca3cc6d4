"""Chrome-trace/Perfetto export of span trees.

:func:`chrome_trace_events` flattens a :class:`~.spans.Tracer`'s
completed span trees into the Chrome trace-event JSON array format —
complete (``"ph": "X"``) events with microsecond timestamps, one *pid*
per track (``main``, ``rank 0``, …) and one *tid* per recording thread,
named through ``process_name``/``thread_name`` metadata events.  The
resulting file opens directly in https://ui.perfetto.dev or
``chrome://tracing``.

:func:`telemetry_snapshot` bundles the trace with the active mode into
one JSON-serializable dict, the form carried by
``SweepResult.telemetry``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from . import spans as _spans

__all__ = [
    "walk_span_tree",
    "iter_spans",
    "chrome_trace_events",
    "trace_json",
    "save_trace",
    "telemetry_snapshot",
]


def walk_span_tree(span: Dict[str, Any], depth: int = 0):
    """Yield ``(depth, span_dict)`` over one root's subtree, pre-order.

    The one span-tree walker shared by the Chrome export and the
    observatory's timeline analysis (:mod:`repro.observe.timeline`)."""
    yield depth, span
    for child in span.get("children", ()):
        yield from walk_span_tree(child, depth + 1)


def iter_spans(tracer: Optional[_spans.Tracer] = None):
    """Yield ``(track, depth, span_dict)`` over every completed span."""
    tracer = tracer or _spans.get_tracer()
    for track, root in tracer.roots():
        for depth, span in walk_span_tree(root):
            yield track, depth, span


def _walk(
    span: Dict[str, Any],
    pid: int,
    tid: int,
    t0_ns: int,
    events: List[Dict[str, Any]],
) -> None:
    for _, node in walk_span_tree(span):
        end_ns = (
            node["end_ns"] if node["end_ns"] is not None else node["start_ns"]
        )
        events.append(
            {
                "name": node["name"],
                "ph": "X",
                "ts": (node["start_ns"] - t0_ns) / 1000.0,
                "dur": (end_ns - node["start_ns"]) / 1000.0,
                "pid": pid,
                "tid": tid,
                "args": node.get("attrs", {}),
            }
        )


def _earliest_start(roots) -> int:
    starts = [d["start_ns"] for _, d in roots]
    return min(starts) if starts else 0


def chrome_trace_events(
    tracer: Optional[_spans.Tracer] = None,
) -> List[Dict[str, Any]]:
    """Flatten a tracer's completed spans into a Chrome trace-event array."""
    return _trace_events((tracer or _spans.get_tracer()).roots())


def _trace_events(roots) -> List[Dict[str, Any]]:
    """Chrome trace events of ``(track, root span dict)`` pairs.

    Timestamps are microseconds relative to the earliest recorded span;
    tracks share the monotonic clock, so merged rank spans line up with
    the driver's phases.
    """
    t0_ns = _earliest_start(roots)

    events: List[Dict[str, Any]] = []
    pids: Dict[str, int] = {}
    tids: Dict[tuple, int] = {}
    for track, span in roots:
        if track not in pids:
            pids[track] = len(pids)
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pids[track],
                    "tid": 0,
                    "args": {"name": track},
                }
            )
        thread = span.get("thread", "MainThread")
        key = (track, thread)
        if key not in tids:
            tids[key] = len([k for k in tids if k[0] == track])
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pids[track],
                    "tid": tids[key],
                    "args": {"name": thread},
                }
            )
        _walk(span, pids[track], tids[key], t0_ns, events)
    return events


def trace_json(tracer: Optional[_spans.Tracer] = None) -> str:
    """The Chrome trace as a JSON string (an event array)."""
    return json.dumps(chrome_trace_events(tracer))


def save_trace(path, tracer: Optional[_spans.Tracer] = None) -> None:
    """Write a ``.trace.json`` that Perfetto/chrome://tracing opens."""
    with open(path, "w") as fh:
        fh.write(trace_json(tracer))


def telemetry_snapshot(roots) -> Dict[str, Any]:
    """The JSON-serializable bundle carried by ``SweepResult.telemetry``:
    the active mode and the trace events of ``roots``, a list of
    ``(track, root span dict)`` pairs."""
    return {"mode": _spans.mode(), "trace": _trace_events(roots)}
