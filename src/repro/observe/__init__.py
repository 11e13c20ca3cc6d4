"""The performance observatory: telemetry analysis and service health.

PR 9's telemetry records byte-exact spans, counters, and drift reports at
every layer; this package is their consumer — it turns recorded telemetry
into decisions:

* :mod:`~repro.observe.timeline` — per-rank timeline reconstruction from
  merged rank-tagged spans: phase breakdowns, load-imbalance factor,
  measured idle fractions, the critical path, and the overlap-headroom
  estimate the async-runtime roadmap item needs;
* :mod:`~repro.observe.health` — service introspection layered on
  :meth:`~repro.service.SchedulerService.stats`: queue depth and
  latency percentiles, failure and cache counters, per-tenant
  breakdowns, and a single ok/degraded verdict.

``python -m repro.observe`` renders either as markdown.  Timings are
recorded and compared by the end-to-end benchmark
(``python -m benchmarks.e2e all --out`` / ``compare``), not here.
"""

from .health import HealthReport, service_health, tenant_breakdown
from .timeline import TimelineAnalysis, analyze_events, analyze_trace_file, analyze_tracer

__all__ = [
    "TimelineAnalysis",
    "analyze_events",
    "analyze_tracer",
    "analyze_trace_file",
    "HealthReport",
    "service_health",
    "tenant_breakdown",
]
