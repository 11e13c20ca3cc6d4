"""Multi-tenant scheduler service: a queue and a cache in front of one Session.

One :class:`~repro.api.Session` owns the engines, boundary caches and
ranks, one per structural group, for every plan it runs; this package is
the layer above, where many tenants' workloads queue, run through one
long-lived Session (so a group's boundary bill is paid once, across
tenants), and reuse each other's results:

``jobs``
    :class:`Job` — a :class:`~repro.api.Workload` with tenant, priority,
    and deadline context moving through the audited state machine
    ``QUEUED → PLANNING → ADMITTED → RUNNING → DONE/FAILED/CACHED``.
``cache``
    :class:`ResultCache` — content-addressed results keyed by
    :meth:`Workload.cache_key` (sha256 of canonical JSON); in-memory LRU
    plus an optional on-disk tier.  Repeat traffic never touches a rank.
``scheduler``
    :class:`SchedulerService` — ``submit``/``wait``/``drain``/``stats``,
    deterministic ``sync`` mode plus a threaded worker, per-job metrics.

Quick start::

    from repro.api import scenario
    from repro.service import SchedulerService

    with SchedulerService() as svc:
        job = scenario("finfet_iv").submit(svc, tenant="alice")
        sweep = svc.wait(job)          # drains the queue in sync mode
        print(svc.stats()["boundary_solves"])

Knobs are constructor arguments: ``SchedulerService(mode=...)``
(sync/thread) and ``ResultCache(max_entries=...)`` (LRU entries, 0
disables).
"""

from .cache import ResultCache
from .jobs import JOB_STATES, TERMINAL_STATES, Job, JobError, JobRecord
from .scheduler import SchedulerError, SchedulerService

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "Job",
    "JobError",
    "JobRecord",
    "ResultCache",
    "SchedulerError",
    "SchedulerService",
]
