"""A simulated MPI layer: per-rank byte-accurate communication accounting.

The paper's communication schedules are executed on real machines with
MPI; here the *actual data* moves between per-rank stores through a
transport (:mod:`repro.runtime.transport`, in-process or over pipes) and
every ``src -> dst`` transfer is metered through :meth:`SimComm.charge`.
This makes the distributed SSE results bit-comparable to the serial
kernels while the measured per-rank byte counts can be checked against
the closed-form volume models of §4.1 (see ``tests/test_parallel.py``
for single exchanges and ``tests/test_runtime.py`` for the distributed
SCBA loop).

Collectives are charged by the code that performs them, as their
point-to-point transfers — matching the paper's accounting: a broadcast
charges every receiving rank with the payload size; a reduction charges
each contributing rank once; an allreduce is a reduce plus a broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

__all__ = ["CommStats", "SimComm"]


@dataclass
class CommStats:
    """Per-rank communication accounting."""

    sent_bytes: np.ndarray
    recv_bytes: np.ndarray
    messages: np.ndarray

    @property
    def P(self) -> int:
        return len(self.sent_bytes)

    @property
    def total_bytes(self) -> int:
        """Total volume: every byte is counted once at the receiver."""
        return int(self.recv_bytes.sum())

    def max_per_rank(self) -> int:
        return int((self.sent_bytes + self.recv_bytes).max())

    # -- arithmetic --------------------------------------------------------------
    def __add__(self, other: "CommStats") -> "CommStats":
        return CommStats(
            sent_bytes=self.sent_bytes + other.sent_bytes,
            recv_bytes=self.recv_bytes + other.recv_bytes,
            messages=self.messages + other.messages,
        )

    def scaled(self, n: int) -> "CommStats":
        """The stats of ``n`` identical repetitions (e.g. Born iterations)."""
        return CommStats(
            sent_bytes=n * self.sent_bytes,
            recv_bytes=n * self.recv_bytes,
            messages=n * self.messages,
        )

    def matches(self, other: "CommStats") -> bool:
        """Exact per-rank equality of byte and message counts."""
        return (
            np.array_equal(self.sent_bytes, other.sent_bytes)
            and np.array_equal(self.recv_bytes, other.recv_bytes)
            and np.array_equal(self.messages, other.messages)
        )

    # -- persistence (mirrors SCBAResult.to_dict/from_dict) ----------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of exact per-rank integer counters.

        Round-trips exactly through :meth:`from_dict`, so runtime results
        and benchmark records (``BENCH_runtime.json``) can persist their
        per-rank byte accounting.
        """
        return {
            "sent_bytes": [int(v) for v in self.sent_bytes],
            "recv_bytes": [int(v) for v in self.recv_bytes],
            "messages": [int(v) for v in self.messages],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "CommStats":
        return cls(
            sent_bytes=np.asarray(d["sent_bytes"], dtype=np.int64),
            recv_bytes=np.asarray(d["recv_bytes"], dtype=np.int64),
            messages=np.asarray(d["messages"], dtype=np.int64),
        )

    @classmethod
    def zeros(cls, P: int) -> "CommStats":
        return cls(
            sent_bytes=np.zeros(P, dtype=np.int64),
            recv_bytes=np.zeros(P, dtype=np.int64),
            messages=np.zeros(P, dtype=np.int64),
        )


class SimComm:
    """A communicator over ``P`` simulated ranks."""

    def __init__(self, P: int):
        if P < 1:
            raise ValueError("communicator needs at least one rank")
        self.P = P
        self.stats = CommStats.zeros(P)

    # -- accounting ----------------------------------------------------------
    def charge(self, src: int, dst: int, nbytes: int):
        """Meter one ``src -> dst`` transfer (self-sends are free).

        The one accounting entry point of every transport (the
        distributed runtime's sim/pipe transports move the payloads
        themselves): local copies cost nothing, as in the paper's §4.1
        model.
        """
        if src == dst:
            return
        self.stats.sent_bytes[src] += nbytes
        self.stats.recv_bytes[dst] += nbytes
        self.stats.messages[src] += 1

    def reset(self):
        self.stats.sent_bytes[:] = 0
        self.stats.recv_bytes[:] = 0
        self.stats.messages[:] = 0

    def snapshot(self) -> CommStats:
        """A frozen copy of the current counters (for phase deltas)."""
        return CommStats(
            sent_bytes=self.stats.sent_bytes.copy(),
            recv_bytes=self.stats.recv_bytes.copy(),
            messages=self.stats.messages.copy(),
        )
