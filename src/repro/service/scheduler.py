"""SchedulerService: the multi-tenant front door of the repository.

The service is a queue and a result cache in front of one long-lived
:class:`~repro.api.Session`, opened on the first executed job's plan.
``submit()`` queues a :class:`~repro.service.Job`; processing a batch
then walks each job through the lifecycle:

1. **PLANNING** — ``workload.compile()`` validates against Table 1 and
   prices the job (Table-3 flops, :attr:`repro.api.PlanCost.total_flops`).
   A content-addressed cache probe happens here: a hit short-circuits
   straight to **CACHED** without touching a rank.
2. **ADMITTED** — planned and cache-missed: queued for execution in this
   batch.
3. **RUNNING → DONE** — admitted jobs execute in strict priority order
   (priority desc, deadline asc, submit order asc — priority inversion
   is structurally impossible within a batch) as
   ``session.run(job.plan)``, so every job of a structural group shares
   the session's one warm simulation; results enter the cache, and a
   duplicate admitted in the same batch resolves from the cache at this
   point with zero additional boundary solves.

Two modes (the ``mode`` argument): ``sync`` — jobs run inside explicit
:meth:`drain` calls (or a :meth:`wait` that triggers one); fully
deterministic, the mode every test uses — and ``thread`` — a background
worker drains the queue as it fills, with :meth:`wait` blocking on the
job's terminal state.  A batch that raises fails its unfinished jobs
with the reason; the service keeps serving.

Per-job metrics (queue latency, cache hit/miss, flops priced vs
executed, measured boundary solves and hits) live on
:attr:`Job.metrics`, are attached to each result's
:attr:`~repro.api.SweepResult.service` block, and aggregate in
:meth:`stats` — the one home of the service's job counts.  Under
``REPRO_TELEMETRY=spans`` a job additionally records its
``service.plan``/``service.execute`` spans, the latter holding the
job's ``session.run`` with one ``session.point`` per sweep point.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import replace
from typing import Any, Dict, List, Optional, Union

from ..api import PlanError, Workload, WorkloadError
from ..api.session import Session, SweepResult
from ..config import SERVICE_MODES
from ..telemetry.spans import trace
from .cache import ResultCache
from .jobs import Job

__all__ = ["SchedulerError", "SchedulerService"]

#: queue-latency samples retained for percentile reporting — a bounded
#: recent-window reservoir, so ``stats()`` never depends on the full job
#: history (jobs may number far beyond this over a service's lifetime)
LATENCY_RESERVOIR = 256


class SchedulerError(RuntimeError):
    """The service cannot accept, run, or return a job."""


class SchedulerService:
    """Queue, cache-probe, and execute many tenants' workloads."""

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        mode: str = "sync",
        keep_arrays: bool = True,
    ):
        self.mode = mode
        if self.mode not in SERVICE_MODES:
            raise SchedulerError(
                f"unknown scheduler mode {self.mode!r}; "
                f"expected one of {SERVICE_MODES}"
            )
        self.cache = ResultCache() if cache is None else cache
        self.keep_arrays = keep_arrays
        self._jobs: Dict[str, Job] = {}
        self._queue: List[Job] = []
        #: bounded recent-window queue-latency samples + lifetime count
        self._latencies: deque = deque(maxlen=LATENCY_RESERVOIR)
        self._latency_count = 0
        #: the one executor holder, opened on the first executed job
        self._session: Optional[Session] = None
        self._exec_counter = 0
        self._cond = threading.Condition()
        self._stop = False
        self._worker: Optional[threading.Thread] = None
        self._closed = False
        if self.mode == "thread":
            self._worker = threading.Thread(
                target=self._worker_loop, name="repro-scheduler", daemon=True
            )
            self._worker.start()

    # -- submission ---------------------------------------------------------------
    def submit(
        self,
        workload: Workload,
        tenant: str = "default",
        priority: int = 0,
        deadline_s: Optional[float] = None,
    ) -> Job:
        """Queue one workload; returns its :class:`Job` handle immediately."""
        if self._closed:
            raise SchedulerError("scheduler is closed")
        job = Job(
            workload=workload, tenant=tenant, priority=priority,
            deadline_s=deadline_s,
        )
        with self._cond:
            self._jobs[job.job_id] = job
            self._queue.append(job)
            self._cond.notify_all()
        return job

    def job(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise SchedulerError(f"unknown job {job_id!r}") from None

    # -- draining -----------------------------------------------------------------
    def drain(self) -> List[Job]:
        """Process every queued job now; returns the batch in run order.

        In ``thread`` mode the background worker owns execution — drain
        just blocks until the current queue has emptied through it.
        """
        if self.mode == "thread":
            with self._cond:
                while any(not j.terminal for j in self._jobs.values()):
                    self._cond.wait(0.05)
            return []
        with self._cond:
            batch, self._queue = self._queue, []
        return self._run_batch(batch)

    def wait(
        self, job: Union[Job, str], timeout: Optional[float] = None
    ) -> SweepResult:
        """Block until a job is terminal; returns its SweepResult.

        ``sync`` mode triggers a :meth:`drain` if the job is still
        pending; ``thread`` mode waits on the worker.  A FAILED job
        re-raises its recorded reason as a :class:`SchedulerError`.
        """
        if isinstance(job, str):
            job = self.job(job)
        if not job.terminal and self.mode == "sync":
            self.drain()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not job.terminal:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise SchedulerError(
                        f"timed out waiting for {job.job_id} "
                        f"(state {job.state})"
                    )
                self._cond.wait(
                    0.05 if remaining is None else min(remaining, 0.05)
                )
        if job.state == "FAILED":
            raise SchedulerError(f"{job.job_id} failed: {job.error}")
        return job.result

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stop:
                    self._cond.wait(0.05)
                if self._stop and not self._queue:
                    return
                batch, self._queue = self._queue, []
            self._run_batch(batch)

    # -- the batch pipeline -------------------------------------------------------
    def _run_batch(self, batch: List[Job]) -> List[Job]:
        """:meth:`_process` a batch; if it raises, fail what is unfinished.

        The queue outlives any one batch: neither a ``sync`` drain nor
        the ``thread`` worker dies with it, and no job is left waiting
        in a non-terminal state.
        """
        try:
            self._process(batch)
        except Exception as exc:
            for job in batch:
                if not job.terminal:
                    job.fail(f"batch failed: {exc!r}")
        finally:
            with self._cond:
                self._cond.notify_all()
        return sorted(batch, key=Job.order_key)

    def _process(self, batch: List[Job]) -> None:
        """Plan, cache-probe, and execute one batch of jobs."""
        admitted: List[Job] = []
        for job in sorted(batch, key=Job.order_key):
            job.transition("PLANNING")
            with trace("service.plan", job_id=job.job_id, tenant=job.tenant):
                try:
                    job.plan = job.workload.compile()
                except (PlanError, WorkloadError) as exc:
                    job.fail(f"planning failed: {exc}")
                    continue
            job.metrics["flops_priced"] = job.plan.cost.total_flops
            cached = self.cache.get(job.cache_key)
            if cached is not None:
                self._finish_cached(job, cached, "hit at planning")
                continue
            job.metrics["cache"] = "miss"
            job.transition("ADMITTED", "cache miss: queued for execution")
            admitted.append(job)

        # strict priority order (``admitted`` is sorted): no inversion
        for job in admitted:
            self._execute(job)

    def _execute(self, job: Job) -> None:
        """Run one admitted job (or resolve a same-batch duplicate)."""
        cached = self.cache.get(job.cache_key)
        if cached is not None:
            self._finish_cached(job, cached, "hit at execution")
            return
        job.transition("RUNNING")
        self._exec_counter += 1
        job.metrics["exec_order"] = self._exec_counter
        with trace("service.execute", job_id=job.job_id, tenant=job.tenant):
            try:
                if self._session is None:
                    self._session = Session(job.plan)
                result = self._session.run(
                    job.plan, keep_arrays=self.keep_arrays
                )
            except Exception as exc:  # surface, don't kill the batch
                job.fail(f"execution failed: {exc}")
                return
        job.metrics["boundary_solves"] = result.boundary_solves
        job.metrics["boundary_hits"] = result.boundary_hits
        job.metrics["flops_executed"] = job.plan.cost.total_flops
        job.metrics["queue_latency_s"] = job.queue_latency_s
        self._record_latency(job.queue_latency_s)
        result.service = self._service_block(job)
        job.result = result
        self.cache.put(job.cache_key, result)
        job.transition("DONE")

    def _finish_cached(self, job: Job, cached: SweepResult, note: str) -> None:
        """Terminal CACHED: attach the hit's own metadata, zero execution."""
        job.metrics.update(
            cache="hit",
            flops_executed=0.0,
            boundary_solves=0,
            boundary_hits=0,
            queue_latency_s=job.queue_latency_s,
        )
        job.result = replace(cached, service=self._service_block(job))
        self._record_latency(job.queue_latency_s)
        job.transition("CACHED", note)

    def _service_block(self, job: Job) -> Dict[str, Any]:
        """The metrics block serialized with the result."""
        return {
            "job_id": job.job_id,
            "tenant": job.tenant,
            "priority": job.priority,
            "cache": job.metrics.get("cache", "miss"),
            "flops_priced": job.metrics.get("flops_priced", 0.0),
            "flops_executed": job.metrics.get("flops_executed", 0.0),
            "boundary_solves": job.metrics.get("boundary_solves", 0),
            "boundary_hits": job.metrics.get("boundary_hits", 0),
            "queue_latency_s": job.metrics.get("queue_latency_s"),
        }

    # -- accounting ---------------------------------------------------------------
    def _record_latency(self, latency_s: Optional[float]) -> None:
        """Sample one job's queue latency into the bounded reservoir."""
        if latency_s is None:
            return
        self._latencies.append(float(latency_s))
        self._latency_count += 1

    def _latency_stats(self) -> Dict[str, Any]:
        """p50/p95/max/mean over the recent-window reservoir (bounded)."""
        samples = sorted(self._latencies)
        if not samples:
            return {
                "count": self._latency_count, "window": 0,
                "p50": None, "p95": None, "max": None, "mean": None,
            }

        def pct(q: float) -> float:
            return samples[min(int(q * len(samples)), len(samples) - 1)]

        return {
            "count": self._latency_count,
            "window": len(samples),
            "p50": pct(0.50),
            "p95": pct(0.95),
            "max": samples[-1],
            "mean": sum(samples) / len(samples),
        }

    def stats(self) -> Dict[str, Any]:
        """Aggregated service metrics across all jobs and cache tiers.

        JSON-serializable end-to-end (every leaf is a Python scalar,
        string, list or dict), so the dict can be dumped for
        out-of-process health checks
        (:func:`repro.observe.health.service_health`).
        """
        states: Dict[str, int] = {}
        tenants: Dict[str, Dict[str, int]] = {}
        priced = executed = 0.0
        solves = hits = 0
        latencies: List[float] = []
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
            t = tenants.setdefault(
                job.tenant, {"jobs": 0, "done": 0, "cached": 0, "failed": 0}
            )
            t["jobs"] += 1
            if job.terminal:
                t[job.state.lower()] += 1
            priced += job.metrics.get("flops_priced", 0.0)
            executed += job.metrics.get("flops_executed", 0.0)
            solves += job.metrics.get("boundary_solves", 0)
            hits += job.metrics.get("boundary_hits", 0)
            if job.queue_latency_s is not None:
                latencies.append(job.queue_latency_s)
        return {
            "mode": self.mode,
            "jobs": states,
            "tenants": tenants,
            "queued": len(self._queue),
            "flops_priced": priced,
            "flops_executed": executed,
            "boundary_solves": solves,
            "boundary_hits": hits,
            "groups": 0 if self._session is None else len(self._session),
            "mean_queue_latency_s": (
                sum(latencies) / len(latencies) if latencies else None
            ),
            "queue_latency_s": self._latency_stats(),
            "cache": self.cache.stats(),
        }

    def jobs(self) -> List[Job]:
        """Every job the service has seen, in submit order."""
        return sorted(self._jobs.values(), key=lambda j: j.seq)

    # -- lifetime -----------------------------------------------------------------
    def close(self) -> None:
        """Stop the worker (thread mode) and close the session."""
        if self._closed:
            return
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        if self._worker is not None:
            self._worker.join(timeout=30)
        if self._session is not None:
            self._session.close()
        self._closed = True

    def __enter__(self) -> "SchedulerService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
