"""The resident per-rank state of the distributed SCBA loop.

A :class:`RankWorker` extends the schedule-facing
:class:`~repro.parallel.schedules.RankSSEStore` protocol with everything
one rank needs to run whole Born iterations:

* a rank-local :class:`~repro.negf.engine.BatchedEngine` over its own
  :class:`~repro.negf.engine.SpectralGrid`, hence a *per-rank*
  :class:`~repro.negf.engine.BoundaryCache` — lead self-energies for the
  rank's grid points are solved once and reused across Born iterations
  and sweep points (counters exposed through :meth:`counters`);
* the electron shard ``G≷[k, esl]`` and the owned phonon rows
  ``D≷(q, w)``, refreshed by :meth:`solve_gf` each iteration (with the
  Π≷ feedback from the previous exchange applied to the phonon systems);
* the Σ≷/Π≷ mixing state of the Born loop, updated rank-locally by
  :meth:`finish_iteration` after each exchange.

Workers are constructed once per runtime (inside the rank process for
the pipe transport) and survive across runs; :meth:`begin_run` syncs the
sweep-mutable settings fields and resets the loop state while keeping
the boundary cache warm.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..negf.engine import BatchedEngine, SpectralGrid
from ..negf.scba import SCBASettings, mix_step, sse_prefactors
from ..negf.sse import preprocess_phonon_green, retarded_from_lesser_greater
from ..parallel.decomposition import OmenDecomposition
from ..parallel.schedules import RankSSEStore
from ..telemetry.spans import Tracer, scoped_span

__all__ = ["RankWorker"]


class RankWorker(RankSSEStore):
    """One rank of the distributed Born loop (see module docstring)."""

    def __init__(
        self,
        rank: int,
        model,
        settings_state: Dict,
        gf_decomp: OmenDecomposition,
        phonon_rows: List[Tuple[int, int]],
    ):
        s = SCBASettings(**settings_state)
        grid = SpectralGrid(model, s)
        self.grid = grid
        self.engine = BatchedEngine(grid)
        k, _ = gf_decomp.coords(rank)
        super().__init__(
            rank,
            k,
            gf_decomp.energy_slice(rank),
            s.NE,
            model.dH,
            model.structure.neighbors,
            grid.rev,
        )
        self.phonon_rows = list(phonon_rows)
        self.rows_by_q: Dict[int, List[int]] = {}
        for q, w in self.phonon_rows:
            self.rows_by_q.setdefault(q, []).append(w)
        #: rank-private span sink — kept separate from the driver's even
        #: under the in-process ``sim`` transport, drained through
        #: :meth:`drain_telemetry` and merged rank-tagged by the runtime
        self.tracer = Tracer()
        self._reset_state()

    # -- run lifecycle ----------------------------------------------------------
    def _reset_state(self) -> None:
        self.Gl = self.Gg = None
        self.I_L = self.I_R = None
        self.Sl = self.Sg = self.Sr = None
        #: raw phonon rows from the last GF phase: {(q, w): [2, NA, NB+1, ...]}
        self.D: Dict[Tuple[int, int], np.ndarray] = {}
        self.Dc = {}
        #: mixed Π≷ / retarded Π rows (owned rows only)
        self.Pi: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        self.Pi_r: Dict[Tuple[int, int], np.ndarray] = {}
        self.pi_raw = {}
        self._acc_Sl = self._acc_Sg = None

    def begin_run(self, state: Dict) -> None:
        """Sync sweep-mutable settings and reset the Born-loop state.

        The worker built its settings once, at runtime construction; a
        sweep mutates bias/temperature fields on the driver's settings
        between points, so every run ships the current values along.
        Only non-structural fields ever change while a runtime lives, so
        plain setattr is sufficient and the boundary cache stays valid
        (and warm) across sweep points.
        """
        for key, value in state.items():
            setattr(self.grid.s, key, value)
        self._reset_state()

    # -- GF phase ---------------------------------------------------------------
    def solve_gf(self) -> Tuple[bool, float, float]:
        """One GF phase: refresh the electron shard and owned phonon rows.

        Returns ``(had_previous, |ΔG<|², |G<|²)`` — the rank's residual
        contributions, allreduced by the driver into the global Born
        convergence criterion.  Engine/boundary spans recorded inside
        land in this rank's private tracer.
        """
        with scoped_span(self.tracer, "rank.solve_gf", rank=self.rank):
            return self._solve_gf()

    def _solve_gf(self) -> Tuple[bool, float, float]:
        e_idx = np.arange(self.esl.start, self.esl.stop)
        Gl_prev = self.Gl
        Gl, Gg, I_L, I_R = self.engine.electron_row(
            self.k, e_idx, self.Sr, self.Sl
        )
        num2 = (
            float(np.sum(np.abs(Gl - Gl_prev) ** 2))
            if Gl_prev is not None
            else 0.0
        )
        den2 = float(np.sum(np.abs(Gl) ** 2))
        self.Gl, self.Gg = Gl, Gg
        self.I_L, self.I_R = I_L, I_R

        for q, ws in self.rows_by_q.items():
            w_idx = np.asarray(ws)
            pr = pl = None
            if self.Pi_r:
                pr = np.stack([self.Pi_r[(q, w)] for w in ws])
                pl = np.stack([self.Pi[(q, w)][0] for w in ws])
            Dl_rows, Dg_rows = self.engine.phonon_row(q, w_idx, pr, pl)
            for j, w in enumerate(ws):
                self.D[(q, w)] = np.stack([Dl_rows[j], Dg_rows[j]])
        return Gl_prev is not None, num2, den2

    # -- SSE phase ---------------------------------------------------------------
    def sse_begin(self) -> None:
        """Combine the owned phonon rows (Eq. 3) and zero the accumulators."""
        with scoped_span(self.tracer, "rank.sse_prepare", rank=self.rank):
            super().sse_begin()
            self.Dc = {}
            for (q, w), d in self.D.items():
                Dcl = preprocess_phonon_green(
                    d[0][None, None], self.neigh, self.rev
                )[0, 0]
                Dcg = preprocess_phonon_green(
                    d[1][None, None], self.neigh, self.rev
                )[0, 0]
                self.Dc[(q, w)] = np.stack([Dcl, Dcg])

    def finish_iteration(self) -> None:
        """Scale, mix, and close the Born feedback loop rank-locally.

        Applies the Eq. 3-5 grid prefactors to the exchanged raw Σ≷/Π≷,
        mixes them into the running self-energies, and derives the
        retarded components (``Σᴿ ≈ (Σ> - Σ<)/2``) that the next
        :meth:`solve_gf` inserts into the linear systems.
        """
        s = self.grid.s
        pre_sigma, pre_pi = sse_prefactors(s, self.grid.dE)
        mix = s.mixing

        self.Sl = mix_step(self.Sl, pre_sigma * self._acc_Sl, mix)
        self.Sg = mix_step(self.Sg, pre_sigma * self._acc_Sg, mix)
        self.Sr = retarded_from_lesser_greater(self.Sl, self.Sg)

        for row, (pl_raw, pg_raw) in self.pi_raw.items():
            Pl_old, Pg_old = self.Pi.get(row, (None, None))
            Pl = mix_step(Pl_old, pre_pi * pl_raw, mix)
            Pg = mix_step(Pg_old, pre_pi * pg_raw, mix)
            self.Pi[row] = (Pl, Pg)
            self.Pi_r[row] = retarded_from_lesser_greater(Pl, Pg)

    # -- result collection --------------------------------------------------------
    def result_shard(self) -> Dict[str, Optional[np.ndarray]]:
        """The rank's electron-side tensors for the final gather."""
        return {
            "Gl": self.Gl,
            "Gg": self.Gg,
            "I_L": self.I_L,
            "I_R": self.I_R,
            "Sl": self.Sl,
            "Sg": self.Sg,
        }

    def phonon_shard(self) -> Dict[Tuple[int, int], Tuple]:
        """The rank's owned phonon rows (D≷ and mixed Π≷) for the gather."""
        out = {}
        for row in self.phonon_rows:
            d = self.D[row]
            pi = self.Pi.get(row)
            out[row] = (
                d[0],
                d[1],
                pi[0] if pi is not None else None,
                pi[1] if pi is not None else None,
            )
        return out

    def counters(self) -> Dict[str, int]:
        """Boundary-cache solve/hit counters and operator assemblies of
        this rank's grid."""
        return {**self.engine.boundary.counters(), **self.grid.assembly_counts()}

    def drain_telemetry(self) -> List[Dict[str, object]]:
        """Pop this rank's recorded root spans (picklable dicts).

        Works identically over both transports: in-process ``sim`` reads
        the tracer directly, ``pipe`` ships the dicts through the worker
        pipe like any other method result.
        """
        return self.tracer.drain()
