"""Multi-tenant scheduler service: the repo as a servable system.

One :class:`~repro.api.Session` owns its engine and ranks end to end;
this package is the layer above, where many tenants' workloads queue,
share hardware, and reuse each other's results:

``jobs``
    :class:`Job` — a :class:`~repro.api.Workload` with tenant, priority,
    and deadline context moving through the audited state machine
    ``QUEUED → PLANNING → ADMITTED → RUNNING → DONE/FAILED/CACHED``.
``cache``
    :class:`ResultCache` — content-addressed results keyed by
    :meth:`Workload.cache_key` (sha256 of canonical JSON); in-memory LRU
    plus an optional on-disk tier.  Repeat traffic never touches a rank.
``pool``
    :class:`RankPool` — persistent executors with modeled-flop capacity,
    holding one engine + boundary cache + assembled operators per
    structural group, kept warm *across tenants*.
``packer``
    :func:`price_plan` (Table-3 flops + §4.1 volumes) and
    :func:`pack_jobs` — first-fit-decreasing with a greedy
    structural-affinity bonus, so jobs that can share executors land on
    the same pool by construction.
``scheduler``
    :class:`SchedulerService` — ``submit``/``wait``/``drain``/``stats``,
    deterministic ``sync`` mode plus a threaded worker, per-job metrics.

Quick start::

    from repro.api import scenario
    from repro.service import SchedulerService

    with SchedulerService() as svc:
        job = scenario("finfet_iv").submit(svc, tenant="alice")
        sweep = svc.wait(job)          # drains the queue in sync mode
        print(svc.stats()["boundary_solves_saved"])

Knobs are constructor arguments: ``SchedulerService(mode=...)``
(sync/thread), ``SchedulerService(capacity_flops=...)`` (modeled flops
per pool), ``ResultCache(max_entries=...)`` (LRU entries, 0 disables).
"""

from .cache import ResultCache
from .jobs import JOB_STATES, TERMINAL_STATES, Job, JobError, JobRecord
from .packer import (
    JobPrice,
    PackingError,
    PackingResult,
    PoolAssignment,
    pack_jobs,
    price_plan,
)
from .pool import PoolError, RankPool, structural_key
from .scheduler import SchedulerError, SchedulerService

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "Job",
    "JobError",
    "JobRecord",
    "ResultCache",
    "JobPrice",
    "PackingError",
    "PackingResult",
    "PoolAssignment",
    "pack_jobs",
    "price_plan",
    "PoolError",
    "RankPool",
    "structural_key",
    "SchedulerError",
    "SchedulerService",
]
