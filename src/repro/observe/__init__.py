"""The performance observatory: timeline analysis of recorded telemetry.

PR 9's telemetry records byte-exact spans, counters, and drift reports at
every layer; this package is their consumer — it turns recorded telemetry
into decisions.  :mod:`~repro.observe.timeline` reconstructs per-rank
timelines from merged rank-tagged spans: phase breakdowns, load-imbalance
factor, measured idle fractions, the critical path, and the
overlap-headroom estimate the async-runtime roadmap item needs.

``python -m repro.observe trace FILE`` renders it as markdown.  Timings
are recorded and compared by the end-to-end benchmark
(``python -m benchmarks.e2e all --out`` / ``compare``), not here.
"""

from .timeline import TimelineAnalysis, analyze_events, analyze_trace_file, analyze_tracer

__all__ = [
    "TimelineAnalysis",
    "analyze_events",
    "analyze_tracer",
    "analyze_trace_file",
]
