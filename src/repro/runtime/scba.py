"""The rank-parallel SCBA runtime: a distributed Born loop (Fig. 2/6).

:class:`DistributedSCBARuntime` executes the full self-consistent Born
iteration over ``P`` ranks, the execution tier the paper's §4.1 scaling
results run on (Fig. 13, Tables 4-5):

* each rank owns its ``(kz, E-chunk)`` shard of an
  :class:`~repro.parallel.decomposition.OmenDecomposition` plus a
  round-robin set of ``(qz, ω)`` phonon rows, and solves them with the
  existing batched RGF engine behind a per-rank boundary cache
  (:class:`~repro.runtime.rank.RankWorker`);
* every iteration, G≷ is exchanged through a resident SSE schedule —
  :class:`~repro.parallel.schedules.OmenExchange` (per-round broadcasts)
  or :class:`~repro.parallel.schedules.DaceExchange` (TE x TA tiles from
  the :func:`~repro.model.distribution.search_tiling` tile search) —
  including the Π≷/D≷ feedback path: reduced Π≷ rows drive the owners'
  phonon solves of the next iteration;
* convergence is a metered allreduce of the per-rank ``|ΔG<|²``
  contributions, reproducing the serial residual;
* everything runs over a pluggable transport
  (:mod:`repro.runtime.transport`): ``sim`` in-process ranks with
  bit-exact byte accounting, or ``pipe`` forked rank processes moving
  real bytes.

The per-phase per-rank byte counts land in :attr:`last_comm`
(``{"sse", "residual", "gather"}`` → :class:`~repro.parallel.CommStats`)
and are asserted equal to the closed-form §4.1 exchange models in
``benchmarks/bench_runtime_scaling.py`` / ``tests/test_runtime.py``.
Results match the serial :class:`~repro.negf.SCBASimulation` to ≤ 1e-10.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import SSE_SCHEDULES, validate_parameters
from ..model.distribution import search_tiling
from ..negf.scba import SCBAResult, born_loop
from ..parallel.decomposition import DaceDecomposition, OmenDecomposition
from ..parallel.schedules import (
    DaceExchange,
    OmenExchange,
    default_round_owner,
)
from ..parallel.simmpi import CommStats
from ..telemetry.spans import get_tracer, spans_enabled, trace
from .rank import RankWorker
from .transport import Transport, make_transport

__all__ = ["DistributedSCBARuntime"]


class DistributedSCBARuntime:
    """Run the Born loop rank-parallel over an SSE communication schedule.

    The transport, rank count and SSE schedule are the ``runtime``,
    ``ranks`` (None: one rank per kz) and ``schedule`` fields of
    ``settings``.  The runtime is resident: workers (and their boundary
    caches) survive across :meth:`run` calls, so a
    :class:`~repro.api.Session` sweep reuses them point to point.
    """

    def __init__(self, model, settings):
        self.model = model
        self.s = s = settings
        self.transport_name = s.runtime
        self.schedule = s.schedule
        if self.schedule not in SSE_SCHEDULES:
            raise ValueError(
                f"unknown SSE schedule {self.schedule!r}; "
                f"expected one of {SSE_SCHEDULES}"
            )

        P = s.ranks or s.Nkz
        try:
            self.gf_decomp = OmenDecomposition(Nkz=s.Nkz, NE=s.NE, P=P)
        except ValueError as exc:
            raise ValueError(
                f"ranks={P} cannot decompose the (Nkz={s.Nkz}, NE={s.NE}) "
                f"grid: {exc}"
            ) from exc
        self.owner_of = default_round_owner(s.Nw, P)
        rounds = [(q, w) for q in range(s.Nqz) for w in range(s.Nw)]
        self.phonon_rows: List[List[Tuple[int, int]]] = [
            [row for row in rounds if self.owner_of(*row) == r]
            for r in range(P)
        ]

        dev = model.structure
        self.sse_decomp: Optional[DaceDecomposition] = None
        if self.schedule == "dace":
            params = validate_parameters(
                Nkz=s.Nkz, Nqz=s.Nqz, NE=s.NE, Nw=s.Nw,
                NA=dev.NA, NB=dev.NB, Norb=model.Norb, N3D=model.N3D,
                bnum=dev.bnum,
            )
            tiling = search_tiling(params, P, divisors_only=True)
            self.sse_decomp = DaceDecomposition(
                NE=s.NE, NA=dev.NA, TE=tiling.TE, TA=tiling.TA, Nw=s.Nw
            )
            self.exchange = DaceExchange(
                self.gf_decomp, self.sse_decomp, dev.neighbors,
                s.Nqz, s.Nw, self.owner_of,
            )
        else:
            self.exchange = OmenExchange(
                self.gf_decomp, s.Nqz, s.Nw, self.owner_of
            )

        self._transport: Optional[Transport] = None
        #: per-phase per-rank accounting of the last :meth:`run`
        self.last_comm: Dict[str, CommStats] = {}
        #: SSE exchanges executed by the last :meth:`run`
        self.n_sse_iterations = 0
        #: residual allreduces executed by the last :meth:`run` (the
        #: ``n_checks`` of the drift model — equals ``len(history)``)
        self.n_residual_checks = 0

    # -- lifecycle ----------------------------------------------------------------
    @property
    def P(self) -> int:
        return self.gf_decomp.P

    def _ensure_transport(self) -> Transport:
        if self._transport is None:
            t = make_transport(self.transport_name, self.P)
            model = self.model
            state = dict(vars(self.s))
            decomp = self.gf_decomp
            rows = self.phonon_rows

            def factory(rank: int) -> RankWorker:
                return RankWorker(rank, model, state, decomp, rows[rank])

            t.start(factory)
            self._transport = t
        return self._transport

    def close(self) -> None:
        """Shut the transport (worker processes included) down."""
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    def __enter__(self) -> "DistributedSCBARuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    @contextmanager
    def _meter(self, phase: str, span=None):
        """Accumulate the transport-byte delta of a block under ``phase``.

        When the block's phase ``span`` is live, the per-rank delta is
        also attached to it (``attrs["comm"]``), so exported timelines
        carry the exact §4.1-comparable byte counts alongside the timing
        (consumed by :mod:`repro.observe.timeline`).
        """
        t = self._transport
        before = t.comm.snapshot()
        try:
            yield
        finally:
            after = t.comm.snapshot()
            delta = CommStats(
                sent_bytes=after.sent_bytes - before.sent_bytes,
                recv_bytes=after.recv_bytes - before.recv_bytes,
                messages=after.messages - before.messages,
            )
            if phase in self.last_comm:
                self.last_comm[phase] = self.last_comm[phase] + delta
            else:
                self.last_comm[phase] = delta
            if span is not None:
                span.attrs["comm"] = delta.to_dict()

    # -- driver ------------------------------------------------------------------
    def run(self, ballistic: bool = False):
        """Iterate GF ⇄ SSE to self-consistency, distributed over P ranks.

        Drives the same :func:`~repro.negf.scba.born_loop` as the serial
        :meth:`~repro.negf.SCBASimulation.run`, with rank-parallel phases:
        the residual is the metered allreduce of the per-rank ``|ΔG<|²``
        and ``|G<|²`` contributions, the SSE phase one exchange of the
        resident schedule.  The returned :class:`~repro.negf.SCBAResult`
        matches the serial one to ≤ 1e-10.
        """
        t = self._ensure_transport()
        s = self.s
        P = self.P
        t.call_all("begin_run", [(dict(vars(s)),)] * P)
        t.comm.reset()
        self.last_comm = {}
        self.n_sse_iterations = 0
        self.n_residual_checks = 0

        def gf_phase(it: int) -> Optional[float]:
            with trace("runtime.solve_gf", iteration=it):
                parts = t.call_all("solve_gf", [()] * P)
            if not parts[0][0]:  # no rank has a previous iteration yet
                return None
            with trace(
                "runtime.residual_allreduce", iteration=it
            ) as span, self._meter("residual", span):
                # allreduce of the 2-float residual contribution
                for r in range(1, P):
                    t.charge(r, 0, 16)
                for r in range(1, P):
                    t.charge(0, r, 16)
            self.n_residual_checks += 1
            num = float(np.sqrt(sum(p[1] for p in parts)))
            den = max(float(np.sqrt(sum(p[2] for p in parts))), 1e-300)
            return num / den

        def sse_phase(it: int) -> None:
            with trace(
                "runtime.sse_exchange", iteration=it
            ) as span, self._meter("sse", span):
                t.call_all("sse_begin", [()] * P)
                self.exchange.run_iteration(t)
                t.call_all("finish_iteration", [()] * P)
            self.n_sse_iterations += 1

        # The wait window brackets the run window, so each rank's first
        # and last waits reach past it (the timeline clips them to it):
        # a pipe rank stamps MARK_EPOCH before the driver opens the run
        # and FLUSH_WAITS after the driver closed it.
        t.mark_epoch()
        with trace(
            "runtime.run", ranks=P, schedule=self.schedule,
            transport=self.transport_name,
        ):
            iterations, converged, history = born_loop(
                gf_phase,
                sse_phase,
                tolerance=s.tolerance,
                max_iterations=s.max_iterations,
                ballistic=ballistic,
            )
            with trace("runtime.gather") as span, \
                    self._meter("gather", span):
                tensors = self._gather(t)
        t.flush_waits()
        self._drain_rank_telemetry(t)
        return SCBAResult.assemble(
            s, **tensors,
            iterations=iterations, converged=converged, history=history,
        )

    # -- final assembly -----------------------------------------------------------
    def _gather(self, t: Transport) -> Dict[str, Optional[np.ndarray]]:
        """Collect every shard at rank 0 and assemble the global tensors.

        Keyed as :meth:`~repro.negf.SCBAResult.assemble` takes them:
        electron tensors land at the rank's ``(k, esl)`` block, its
        stacked phonon rows at their ``(q, w)`` indices.  Self-energies
        no rank ever evaluated come back as ``None``.
        """
        s = self.s
        out: Dict[str, Optional[np.ndarray]] = {}
        for r in range(self.P):
            k, _ = self.gf_decomp.coords(r)
            esl = self.gf_decomp.energy_slice(r)
            rows = self.phonon_rows[r]
            q_idx, w_idx = [q for q, _ in rows], [w for _, w in rows]
            for name, value in t.call(r, "result_shard").items():
                if value is None:
                    out[name] = None
                    continue
                t.charge(r, 0, value.nbytes)
                if name in ("Dl", "Dg", "Pl", "Pg"):
                    lead, index = (s.Nqz, s.Nw), (q_idx, w_idx)
                else:
                    lead, index = (s.Nkz, s.NE), (k, esl)
                if name not in out:
                    out[name] = np.zeros(lead + value.shape[1:], value.dtype)
                out[name][index] = value
        return out

    # -- accounting ---------------------------------------------------------------
    def _drain_rank_telemetry(self, t: Transport) -> None:
        """Ship per-rank spans back as rank-tagged tracks of the driver's
        tracer (aligned timelines: ``perf_counter_ns`` is process-shared
        CLOCK_MONOTONIC on Linux)."""
        if not spans_enabled():
            return
        tracer = get_tracer()
        for r, spans in enumerate(
            t.call_all("drain_telemetry", [()] * self.P)
        ):
            if spans:
                tracer.add_track(f"rank {r}", spans)

    def comm_stats(self) -> Dict[str, CommStats]:
        """Per-phase per-rank stats of the last run (copy-safe view)."""
        return dict(self.last_comm)

    def boundary_counters(self) -> Dict[str, int]:
        """Summed per-rank :meth:`RankWorker.counters` (empty before any
        run): boundary solves/hits and operator assemblies."""
        out: Dict[str, int] = {}
        if self._transport is not None:
            for counters in self._transport.call_all("counters", [()] * self.P):
                for key, value in counters.items():
                    out[key] = out.get(key, 0) + value
        return out
