"""Process-wide metrics registry: counters, gauges, byte/flop accumulators.

One flat, thread-safe namespace that the previously ad-hoc counters
publish into when the telemetry mode is ``full``: :class:`BoundaryCache`
solves/hits, every transport ``charge()`` (through
:func:`meter_transfer`, the single metering helper shared by
``SimComm.charge`` and the transports that delegate to it), engine batch
sizes, backend ``ExecutionReport`` flops, and service job outcomes.

The registry is purely *additive* observability — the functional
counters (``CommStats`` byte accounting, boundary-cache hit counters)
keep updating in every mode, because correctness checks and the drift
reports depend on them.  ``counter`` names accumulate; ``gauge`` names
overwrite.

Rank workers route their counts into a private registry via the scope
stack (:func:`repro.telemetry.spans.use_scope`); the distributed runtime
merges drained worker registries back with :meth:`MetricsRegistry.merge`.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Mapping, Optional, Union

from . import spans as _spans

__all__ = [
    "MetricsRegistry",
    "get_registry",
    "add",
    "gauge",
    "snapshot",
    "reset",
    "meter_transfer",
]

Number = Union[int, float]


class MetricsRegistry:
    """A flat name → number map with counter and gauge semantics."""

    def __init__(self):
        self._lock = threading.Lock()
        self._values: Dict[str, Number] = {}

    def add(self, name: str, value: Number = 1) -> None:
        """Accumulate ``value`` into the counter ``name``."""
        with self._lock:
            self._values[name] = self._values.get(name, 0) + value

    def gauge(self, name: str, value: Number) -> None:
        """Overwrite the gauge ``name`` with ``value``."""
        with self._lock:
            self._values[name] = value

    def merge(self, other: Mapping[str, Number]) -> None:
        """Accumulate a snapshot (e.g. a drained rank registry)."""
        with self._lock:
            for name, value in other.items():
                self._values[name] = self._values.get(name, 0) + value

    def snapshot(self) -> Dict[str, Number]:
        with self._lock:
            return dict(self._values)

    def drain(self) -> Dict[str, Number]:
        """Snapshot and reset atomically (rank-worker shipping)."""
        with self._lock:
            values = self._values
            self._values = {}
        return values

    def reset(self) -> None:
        with self._lock:
            self._values = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)


#: the process-global registry (driver-side metrics land here)
_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _GLOBAL_REGISTRY


def _active_registry() -> MetricsRegistry:
    scoped = _spans.current_registry()
    return scoped if scoped is not None else _GLOBAL_REGISTRY


def add(name: str, value: Number = 1) -> None:
    """Accumulate into the active registry iff the mode is ``full``."""
    if _spans.metrics_enabled():
        _active_registry().add(name, value)


def gauge(name: str, value: Number) -> None:
    """Set a gauge in the active registry iff the mode is ``full``."""
    if _spans.metrics_enabled():
        _active_registry().gauge(name, value)


def snapshot() -> Dict[str, Number]:
    return _GLOBAL_REGISTRY.snapshot()


def reset() -> None:
    _GLOBAL_REGISTRY.reset()


def meter_transfer(stats: Any, src: int, dst: int, nbytes: int) -> None:
    """The one point-to-point metering helper (paper §4.1 byte accounting).

    Updates the functional per-rank ``CommStats`` (always — the drift
    reports and ``matches()`` assertions depend on it) and, in ``full``
    telemetry mode, publishes the aggregate into the metrics registry.
    Every transport ``charge()`` — ``SimComm`` and, through it,
    ``runtime.Transport`` — funnels through here.

    Local copies (``src == dst``) are free, as in the paper's model.
    """
    if src == dst:
        return
    stats.sent_bytes[src] += nbytes
    stats.recv_bytes[dst] += nbytes
    stats.messages[src] += 1
    if _spans.metrics_enabled():
        registry = _active_registry()
        registry.add("comm.bytes", nbytes)
        registry.add("comm.messages", 1)
