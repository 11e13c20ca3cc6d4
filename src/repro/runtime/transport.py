"""Pluggable rank transports for the distributed SCBA runtime.

A transport hosts the per-rank workers and carries every payload the
communication schedules move between them, metering each logical
``src -> dst`` transfer through a :class:`~repro.parallel.simmpi.SimComm`
(the paper's per-rank byte accounting):

* :class:`SimTransport` — all ranks live in this process.  Calls are
  direct method invocations, so results and byte counts are exactly
  reproducible (the bit-exact accounting reference).
* :class:`PipeTransport` — each rank is a forked worker process holding
  its own resident state; commands and payloads physically cross
  ``multiprocessing`` pipes.  ``call_all`` dispatches to every rank
  before collecting, so the compute-heavy steps (the per-rank RGF rows
  and the DaCe tile kernels) genuinely run in parallel.

Both meter the same logical rank-to-rank bytes, so measured volumes are
transport-independent and comparable against the closed-form §4.1 models
(:func:`repro.model.communication.omen_exchange_stats` /
:func:`~repro.model.communication.dace_exchange_stats`).
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
import weakref
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..config import RUNTIMES
from ..parallel.simmpi import CommStats, SimComm
from ..telemetry.spans import record_span, scoped_span, spans_enabled

__all__ = [
    "TransportError",
    "Transport",
    "SimTransport",
    "PipeTransport",
    "TRANSPORTS",
    "make_transport",
]


class TransportError(RuntimeError):
    """A transport could not be created or a worker failed irrecoverably."""


class Transport:
    """Base class: worker lifecycle + metered data movement."""

    name = "base"

    def __init__(self, P: int):
        self.comm = SimComm(P)

    @property
    def P(self) -> int:
        return self.comm.P

    @property
    def stats(self) -> CommStats:
        return self.comm.stats

    def charge(self, src: int, dst: int, nbytes: int) -> None:
        """Meter one logical rank-to-rank transfer (self-sends free).

        Delegates to :meth:`SimComm.charge`, the one metering entry
        point.
        """
        self.comm.charge(src, dst, int(nbytes))

    # -- lifecycle --------------------------------------------------------------
    def start(self, factory: Callable[[int], object]) -> None:
        """Create the ``P`` rank workers from ``factory(rank)``."""
        raise NotImplementedError

    def call(self, rank: int, method: str, *args):
        """Invoke ``method(*args)`` on one rank's worker."""
        raise NotImplementedError

    def call_all(self, method: str, args_list: Sequence[Tuple]):
        """Invoke ``method`` on every rank (parallel where possible)."""
        raise NotImplementedError

    # -- wait accounting --------------------------------------------------------
    def mark_epoch(self) -> None:
        """Start measuring per-rank wait time (no-op when spans are off).

        Called by the runtime right after the ``runtime.run`` span opens;
        from here until :meth:`flush_waits` every gap between a rank's
        activities is recorded as a ``runtime.wait`` span on its track.
        """

    def flush_waits(self) -> None:
        """Close the wait-accounting window: record each rank's tail wait
        (last activity → now) and stop measuring."""

    def close(self) -> None:
        """Release workers (idempotent)."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class SimTransport(Transport):
    """In-process ranks: sequential execution, bit-exact accounting.

    Calls are direct method invocations on the hosted workers — any
    object with the :class:`~repro.parallel.schedules.RankSSEStore`
    protocol, from plain stores (``tests/conftest.py``) to the resident
    :class:`~repro.runtime.rank.RankWorker`.
    """

    name = "sim"

    def __init__(self, P: int):
        super().__init__(P)
        self._workers: Optional[list] = None
        #: per-rank end of the last activity inside the wait window
        #: (``None`` outside a :meth:`mark_epoch`/:meth:`flush_waits` pair)
        self._last_end_ns: Optional[Dict[int, int]] = None

    def start(self, factory: Callable[[int], object]) -> None:
        self._workers = [factory(rank) for rank in range(self.P)]

    def _rank_tracer(self, rank: int):
        return getattr(self._workers[rank], "tracer", None)

    def call(self, rank: int, method: str, *args):
        fn = getattr(self._workers[rank], method)
        if not spans_enabled():
            return fn(*args)
        tracer = self._rank_tracer(rank)
        if tracer is None or method == "drain_telemetry":
            return fn(*args)
        with scoped_span(
            tracer, "runtime.exec", rank=rank, method=method
        ) as span:
            result = fn(*args)
        if self._last_end_ns is not None and span is not None:
            # anchor the wait on the exec span's own stamps so the
            # rank's wait+exec intervals tile the window gap-free
            last = self._last_end_ns.get(rank)
            if last is not None:
                record_span(
                    "runtime.wait", last, span.start_ns, tracer=tracer,
                    rank=rank, cause="serialized",
                )
            self._last_end_ns[rank] = span.end_ns
        return result

    def call_all(self, method: str, args_list: Sequence[Tuple]):
        return [
            self.call(r, method, *args) for r, args in enumerate(args_list)
        ]

    def mark_epoch(self) -> None:
        if not spans_enabled():
            return
        now = time.perf_counter_ns()
        self._last_end_ns = {rank: now for rank in range(self.P)}

    def flush_waits(self) -> None:
        if self._last_end_ns is None:
            return
        now = time.perf_counter_ns()
        for rank, last in self._last_end_ns.items():
            tracer = self._rank_tracer(rank)
            if tracer is not None:
                record_span(
                    "runtime.wait", last, now, tracer=tracer,
                    rank=rank, cause="serialized",
                )
        self._last_end_ns = None

    def close(self) -> None:
        self._workers = None
        self._last_end_ns = None


def _pipe_worker_main(factory, rank: int, conn) -> None:
    """Worker loop: build the resident rank state, serve commands.

    Between :data:`_MARK_EPOCH` and :data:`_FLUSH_WAITS` control messages
    the loop measures its own ``conn.recv()`` blocking time — genuine
    rank idle, recorded as ``runtime.wait`` spans in the worker's tracer
    — and wraps each served method in a ``runtime.exec`` span, so the
    drained rank track carries measured wait *and* busy intervals.
    """
    try:
        worker = factory(rank)
    except BaseException:  # noqa: BLE001 - report construction failures too
        conn.send((False, traceback.format_exc()))
        conn.close()
        return
    conn.send((True, None))  # construction handshake
    tracer = getattr(worker, "tracer", None)
    last_end_ns: Optional[int] = None  # wait-window state (None = inactive)
    while True:
        msg = conn.recv()
        recv_ns = time.perf_counter_ns()
        if msg is None:
            break
        method, args = msg
        if method == _MARK_EPOCH:
            last_end_ns = time.perf_counter_ns()
            conn.send((True, None))
            continue
        if method == _FLUSH_WAITS:
            if last_end_ns is not None and tracer is not None:
                record_span(
                    "runtime.wait", last_end_ns, recv_ns, tracer=tracer,
                    rank=rank, cause="recv",
                )
            last_end_ns = None
            conn.send((True, None))
            continue
        instrument = (
            tracer is not None
            and method != "drain_telemetry"
            and spans_enabled()
        )
        try:
            if instrument:
                with scoped_span(
                    tracer, "runtime.exec", rank=rank, method=method
                ) as span:
                    result = getattr(worker, method)(*args)
                if last_end_ns is not None and span is not None:
                    # wait = recv blocking + dispatch, anchored on the
                    # exec span's stamps so wait+exec tile gap-free
                    record_span(
                        "runtime.wait", last_end_ns, span.start_ns,
                        tracer=tracer, rank=rank, cause="recv",
                    )
                    last_end_ns = span.end_ns
            else:
                result = getattr(worker, method)(*args)
                if last_end_ns is not None:
                    last_end_ns = time.perf_counter_ns()
            conn.send((True, result))
        except BaseException:  # noqa: BLE001 - ship the traceback upward
            conn.send((False, traceback.format_exc()))
    conn.close()


#: control messages of the pipe worker loop (never worker method names)
_MARK_EPOCH = "__mark_epoch__"
_FLUSH_WAITS = "__flush_waits__"


def _terminate_procs(procs):
    for proc in procs:
        if proc.is_alive():
            proc.terminate()


class PipeTransport(Transport):
    """Forked rank processes connected through multiprocessing pipes.

    Every command and payload is pickled across a pipe, so the schedule
    exchanges move real bytes between address spaces; ``call_all``
    overlaps the ranks' compute.  Requires the ``fork`` start method (the
    model and decompositions are inherited, never pickled); platforms
    without it raise a :class:`TransportError` — use ``sim`` there.
    """

    name = "pipe"

    def __init__(self, P: int):
        super().__init__(P)
        self._conns = None
        self._procs = None

    def start(self, factory: Callable[[int], object]) -> None:
        try:
            ctx = mp.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise TransportError(
                "the pipe transport needs the fork start method; "
                "use runtime='sim' on this platform"
            ) from exc
        conns, procs = [], []
        for rank in range(self.P):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_pipe_worker_main,
                args=(factory, rank, child),
                daemon=True,
            )
            proc.start()
            child.close()
            conns.append(parent)
            procs.append(proc)
        self._conns, self._procs = conns, procs
        weakref.finalize(self, _terminate_procs, procs)
        for rank, conn in enumerate(conns):
            ok, err = conn.recv()
            if not ok:
                self.close()
                raise TransportError(f"rank {rank} failed to start:\n{err}")

    def _send(self, rank: int, method: str, args: Tuple) -> None:
        try:
            self._conns[rank].send((method, args))
        except OSError as exc:  # BrokenPipeError: the rank is gone
            raise TransportError(
                f"rank {rank} is dead; cannot call {method!r}: {exc!r}"
            ) from exc

    def _recv(self, rank: int, method: str):
        try:
            ok, payload = self._conns[rank].recv()
        except (EOFError, OSError) as exc:  # the rank died mid-call
            raise TransportError(
                f"rank {rank} died during {method!r}: {exc!r}"
            ) from exc
        if not ok:
            raise TransportError(
                f"rank {rank} worker failed in {method!r}:\n{payload}"
            )
        return payload

    def call(self, rank: int, method: str, *args):
        self._send(rank, method, args)
        return self._recv(rank, method)

    def call_all(self, method: str, args_list: Sequence[Tuple]):
        for rank, args in enumerate(args_list):
            self._send(rank, method, args)
        return [self._recv(rank, method) for rank in range(self.P)]

    def mark_epoch(self) -> None:
        if spans_enabled():
            self.call_all(_MARK_EPOCH, [()] * self.P)

    def flush_waits(self) -> None:
        if spans_enabled():
            self.call_all(_FLUSH_WAITS, [()] * self.P)

    def close(self) -> None:
        if self._conns is None:
            return
        for conn in self._conns:
            try:
                conn.send(None)
                conn.close()
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
        self._conns = self._procs = None


TRANSPORTS = {
    SimTransport.name: SimTransport,
    PipeTransport.name: PipeTransport,
}


def make_transport(name: str, P: int) -> Transport:
    """Instantiate the transport behind runtime ``name`` for ``P`` ranks."""
    try:
        cls = TRANSPORTS[name]
    except KeyError:
        raise ValueError(
            f"unknown runtime transport {name!r}; expected one of "
            f"{tuple(TRANSPORTS)} (RUNTIMES={RUNTIMES})"
        ) from None
    return cls(P)
