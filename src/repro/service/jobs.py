"""Jobs: one tenant's workload moving through the scheduler state machine.

A :class:`Job` wraps a declarative :class:`~repro.api.Workload` with the
multi-tenant context the scheduler needs — tenant label, priority,
deadline hint — and an explicit state machine::

    QUEUED → PLANNING → ADMITTED → RUNNING → DONE
                 │           │                 │
                 └─► CACHED ◄┘                 └─► FAILED

``PLANNING`` is the compile step (:func:`repro.api.compile_workload`
validates and prices the job), ``ADMITTED`` means planned, cache-missed
and queued for execution in this batch on the service's one
:class:`~repro.api.Session`, and ``CACHED`` is the short-circuit
taken when the content-addressed result cache already holds the
workload's :class:`~repro.api.SweepResult` — a cached job never touches a
rank.  Every transition is validated (illegal moves raise
:class:`JobError`) and appended to a JSON-serializable
:class:`JobRecord` history, so a job's full lifecycle can be audited
after the fact (:meth:`Job.to_dict`).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..api import Plan, Workload

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobError",
    "JobRecord",
    "Job",
]


#: every state of the job lifecycle, in nominal order
JOB_STATES: Tuple[str, ...] = (
    "QUEUED", "PLANNING", "ADMITTED", "RUNNING", "DONE", "FAILED", "CACHED",
)

#: states a job never leaves
TERMINAL_STATES: Tuple[str, ...] = ("DONE", "FAILED", "CACHED")

#: legal transitions of the state machine (terminal states map to ())
_TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    "QUEUED": ("PLANNING", "FAILED"),
    "PLANNING": ("ADMITTED", "CACHED", "FAILED"),
    # an admitted duplicate resolves from the cache at execution time,
    # after an earlier job of the same batch populated the entry
    "ADMITTED": ("RUNNING", "CACHED", "FAILED"),
    "RUNNING": ("DONE", "FAILED"),
    "DONE": (),
    "FAILED": (),
    "CACHED": (),
}

_JOB_IDS = itertools.count()


class JobError(RuntimeError):
    """An illegal state transition or an invalid job specification."""


@dataclass(frozen=True)
class JobRecord:
    """One audited state transition of a job's history."""

    state: str
    timestamp: float
    note: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class Job:
    """A scheduled workload: tenant context, lifecycle, and accounting."""

    workload: Workload
    tenant: str = "default"
    #: larger runs first; ties broken by deadline hint, then submit order
    priority: int = 0
    #: optional latency hint in seconds (earliest-deadline-first tiebreak)
    deadline_s: Optional[float] = None
    job_id: str = ""
    #: monotonically increasing submit sequence (set by the scheduler)
    seq: int = field(default_factory=lambda: next(_JOB_IDS))
    state: str = "QUEUED"
    history: List[JobRecord] = field(default_factory=list)
    #: compile artifact, filled during PLANNING
    plan: Optional[Plan] = None
    #: outcome: the SweepResult (DONE/CACHED) or the failure reason
    result: Optional[Any] = None
    error: Optional[str] = None
    #: per-job scheduler metrics (queue latency, cache hit/miss, flops
    #: priced vs executed, measured boundary solves and hits)
    metrics: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.workload, Workload):
            raise JobError(
                f"job wraps a {type(self.workload).__name__}, "
                "expected a repro.api.Workload"
            )
        if not self.job_id:
            self.job_id = f"job-{self.seq}"
        if not self.history:
            self.history.append(JobRecord("QUEUED", time.time(), "submitted"))

    # -- state machine ----------------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def transition(self, state: str, note: str = "") -> None:
        """Move to ``state``, validating against the lifecycle graph."""
        if state not in JOB_STATES:
            raise JobError(f"unknown job state {state!r}; known: {JOB_STATES}")
        if state not in _TRANSITIONS[self.state]:
            raise JobError(
                f"{self.job_id}: illegal transition {self.state} -> {state}"
            )
        self.state = state
        self.history.append(JobRecord(state, time.time(), note))

    def fail(self, reason: str) -> None:
        """Record a failure from any non-terminal state."""
        self.error = reason
        self.transition("FAILED", reason)

    # -- ordering ----------------------------------------------------------------
    def order_key(self) -> Tuple:
        """Execution order: priority desc, deadline asc, submit order asc."""
        deadline = self.deadline_s if self.deadline_s is not None else float("inf")
        return (-self.priority, deadline, self.seq)

    # -- accounting ---------------------------------------------------------------
    @property
    def cache_key(self) -> str:
        return self.workload.cache_key()

    @property
    def queue_latency_s(self) -> Optional[float]:
        """Seconds from submission to leaving the queue (first transition)."""
        if len(self.history) < 2:
            return None
        return self.history[1].timestamp - self.history[0].timestamp

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable audit record of the job's lifecycle."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "priority": self.priority,
            "deadline_s": self.deadline_s,
            "seq": self.seq,
            "state": self.state,
            "workload": self.workload.to_dict(),
            "cache_key": self.cache_key,
            "error": self.error,
            "metrics": dict(self.metrics),
            "history": [r.to_dict() for r in self.history],
        }
