"""Distributed SCBA runtime: rank-parallel Born loop over SSE schedules.

The execution tier between the spectral-grid engine and the ``repro.api``
facade: :class:`DistributedSCBARuntime` shards the Born loop over ``P``
ranks (:class:`~repro.runtime.rank.RankWorker`), exchanges G≷/Σ≷/Π≷/D≷
through the resident OMEN or DaCe communication schedule each iteration,
and meters every byte per rank and per phase.  Transports:
``sim`` (in-process, bit-exact accounting) and ``pipe`` (forked rank
processes over multiprocessing pipes).  Select with
``SCBASettings(runtime=..., ranks=..., schedule=...)`` or
``workload.compile(runtime=...)``.
"""

from .rank import RankWorker
from .scba import DistributedSCBARuntime
from .transport import (
    TRANSPORTS,
    PipeTransport,
    SimTransport,
    Transport,
    TransportError,
    make_transport,
)

__all__ = [
    "DistributedSCBARuntime",
    "RankWorker",
    "Transport",
    "SimTransport",
    "PipeTransport",
    "TransportError",
    "TRANSPORTS",
    "make_transport",
]
