"""Service health introspection over ``SchedulerService.stats()``.

The scheduler's :meth:`~repro.service.SchedulerService.stats` is a raw
(JSON-serializable) dict; this module turns it into an operational
verdict:

* queue depth and queue-latency percentiles (p50/p95/max, from the
  scheduler's bounded latency reservoir) against thresholds;
* failure and cache counters, per-tenant job breakdowns;
* one :func:`service_health` verdict: ``ok`` or ``degraded`` with the
  reasons spelled out.

Works from a live :class:`~repro.service.SchedulerService` *or* from a
previously serialized stats dict (``python -m repro.observe health
stats.json``), so the verdict can run out-of-process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["HealthReport", "service_health", "tenant_breakdown"]

#: default thresholds; any can be overridden per call
DEFAULT_THRESHOLDS: Dict[str, float] = {
    "max_queued": 100,  # jobs sitting unprocessed
    "max_latency_p95_s": 60.0,  # queue latency tail
    "max_failed_fraction": 0.0,  # any failure degrades by default
}


@dataclass
class HealthReport:
    """The verdict plus everything it was derived from."""

    status: str  # "ok" | "degraded"
    reasons: List[str]
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "status": self.status,
            "reasons": list(self.reasons),
            "details": dict(self.details),
        }

    def to_markdown(self) -> str:
        lines = ["## Service health", "",
                 f"- verdict: **{self.status.upper()}**"]
        for reason in self.reasons:
            lines.append(f"  - {reason}")
        d = self.details
        lat = d.get("queue_latency_s") or {}
        lines.append(
            f"- queue: depth {d.get('queued', 0)}, latency "
            f"p50 {_fmt(lat.get('p50'))} / p95 {_fmt(lat.get('p95'))} / "
            f"max {_fmt(lat.get('max'))} s over {lat.get('count', 0)} jobs"
        )
        lines.append(
            f"- jobs: {d.get('jobs', {})}, cache: {d.get('cache', {})}"
        )
        tenants = d.get("tenants", {})
        if tenants:
            lines += ["", "| tenant | jobs | done | cached | failed |",
                      "|---|---:|---:|---:|---:|"]
            for tenant, t in sorted(tenants.items()):
                lines.append(
                    f"| {tenant} | {t['jobs']} | {t['done']} "
                    f"| {t['cached']} | {t['failed']} |"
                )
        return "\n".join(lines)


def _fmt(v: Optional[float]) -> str:
    return "—" if v is None else f"{v:.4f}"


def tenant_breakdown(jobs) -> Dict[str, Dict[str, int]]:
    """Per-tenant job/cache counters from a job list (live service)."""
    out: Dict[str, Dict[str, int]] = {}
    for job in jobs:
        t = out.setdefault(
            job.tenant, {"jobs": 0, "done": 0, "cached": 0, "failed": 0}
        )
        t["jobs"] += 1
        if job.state == "DONE":
            t["done"] += 1
        elif job.state == "CACHED":
            t["cached"] += 1
        elif job.state == "FAILED":
            t["failed"] += 1
    return out


def service_health(
    stats: Optional[Dict[str, Any]] = None,
    service=None,
    **thresholds: float,
) -> HealthReport:
    """The single ok/degraded verdict with reasons.

    Pass a live ``service`` (preferred — adds per-tenant counters from
    the job list when the stats block lacks them) or a serialized
    ``stats`` dict.  Thresholds default to :data:`DEFAULT_THRESHOLDS`.
    """
    if stats is None:
        if service is None:
            raise ValueError("service_health needs stats=... or service=...")
        stats = service.stats()
    limits = {**DEFAULT_THRESHOLDS, **thresholds}
    reasons: List[str] = []

    # queue depth + latency tail
    queued = stats.get("queued", 0)
    if queued > limits["max_queued"]:
        reasons.append(
            f"queue depth {queued} exceeds {limits['max_queued']:.0f}"
        )
    latency = stats.get("queue_latency_s") or {}
    p95 = latency.get("p95")
    if p95 is not None and p95 > limits["max_latency_p95_s"]:
        reasons.append(
            f"queue latency p95 {p95:.3f}s exceeds "
            f"{limits['max_latency_p95_s']:.1f}s"
        )

    # failures
    jobs = stats.get("jobs", {})
    total = sum(jobs.values())
    failed = jobs.get("FAILED", 0)
    if total and failed / total > limits["max_failed_fraction"]:
        reasons.append(f"{failed}/{total} jobs FAILED")

    tenants = stats.get("tenants")
    if tenants is None and service is not None:
        tenants = tenant_breakdown(service.jobs())

    details = dict(stats)
    if tenants is not None:
        details["tenants"] = tenants
    details["thresholds"] = limits
    return HealthReport(
        status="degraded" if reasons else "ok",
        reasons=reasons,
        details=details,
    )
