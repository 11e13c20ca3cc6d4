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
  ``D≷(q, w)`` (stacked in ``phonon_rows`` order), refreshed by
  :meth:`solve_gf` each iteration (with the Π≷ feedback from the
  previous exchange applied to the phonon systems);
* the Born loop's :class:`~repro.negf.scba.SelfEnergies` over the
  electron shard and the stacked owned rows, updated rank-locally by
  :meth:`finish_iteration` after each exchange.

Workers are constructed once per runtime (inside the rank process for
the pipe transport) and survive across runs; :meth:`begin_run` syncs the
sweep-mutable settings fields and resets the loop state while keeping
the boundary cache warm.
"""

from __future__ import annotations

from itertools import groupby
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..negf.engine import BatchedEngine, SpectralGrid
from ..negf.scba import SCBASettings, SelfEnergies, sse_prefactors
from ..negf.sse import preprocess_phonon_green
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
        #: owned rows per qz: ``(q, ω indices, slice of the stacked rows)``
        self.q_blocks: List[Tuple[int, np.ndarray, slice]] = []
        start = 0
        for q, rows in groupby(self.phonon_rows, key=lambda row: row[0]):
            w_idx = np.array([w for _, w in rows])
            self.q_blocks.append((q, w_idx, slice(start, start + len(w_idx))))
            start += len(w_idx)
        #: rank-private span sink — kept separate from the driver's even
        #: under the in-process ``sim`` transport, drained through
        #: :meth:`drain_telemetry` and merged rank-tagged by the runtime
        self.tracer = Tracer()
        self._reset_state()

    # -- run lifecycle ----------------------------------------------------------
    def _reset_state(self) -> None:
        self.Gl = self.Gg = None
        self.I_L = self.I_R = None
        #: owned phonon rows of the last GF phase, stacked in
        #: ``phonon_rows`` order: ``[n_rows, NA, NB+1, N3D, N3D]``
        self.Dl = self.Dg = None
        self.se = SelfEnergies(self.grid.s)

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
        se = self.se
        e_idx = np.arange(self.esl.start, self.esl.stop)
        Gl_prev = self.Gl
        Gl, Gg, I_L, I_R = self.engine.electron_row(
            self.k, e_idx, se.Sr, se.Sl
        )
        num2 = (
            float(np.sum(np.abs(Gl - Gl_prev) ** 2))
            if Gl_prev is not None
            else 0.0
        )
        den2 = float(np.sum(np.abs(Gl) ** 2))
        self.Gl, self.Gg = Gl, Gg
        self.I_L, self.I_R = I_L, I_R

        shape = (len(self.phonon_rows), self.NA, self.NB + 1, self.N3D, self.N3D)
        self.Dl = np.empty(shape, dtype=np.complex128)
        self.Dg = np.empty(shape, dtype=np.complex128)
        for q, w_idx, rows in self.q_blocks:
            pr = pl = None
            if se.Pr is not None:
                pr, pl = se.Pr[rows], se.Pl[rows]
            self.Dl[rows], self.Dg[rows] = self.engine.phonon_row(
                q, w_idx, pr, pl
            )
        return Gl_prev is not None, num2, den2

    # -- SSE phase ---------------------------------------------------------------
    def sse_begin(self) -> None:
        """Combine the owned phonon rows (Eq. 3) and zero the accumulators."""
        with scoped_span(self.tracer, "rank.sse_prepare", rank=self.rank):
            super().sse_begin()
            self.Dc = {}
            for row, dl, dg in zip(self.phonon_rows, self.Dl, self.Dg):
                Dcl = preprocess_phonon_green(
                    dl[None, None], self.neigh, self.rev
                )[0, 0]
                Dcg = preprocess_phonon_green(
                    dg[None, None], self.neigh, self.rev
                )[0, 0]
                self.Dc[row] = np.stack([Dcl, Dcg])

    def finish_iteration(self) -> None:
        """Scale the exchanged Σ≷/Π≷ and close the Born feedback loop.

        Applies the Eq. 3-5 grid prefactors to the exchanged raw Σ≷ and
        owned Π≷ rows (stacked in ``phonon_rows`` order) and updates the
        rank's :class:`~repro.negf.scba.SelfEnergies`, whose retarded
        parts the next :meth:`solve_gf` inserts into the linear systems.
        """
        pre_sigma, pre_pi = sse_prefactors(self.grid.s, self.grid.dE)
        Pl = np.empty_like(self.Dl)
        Pg = np.empty_like(self.Dg)
        for j, row in enumerate(self.phonon_rows):
            Pl[j], Pg[j] = self.pi_raw[row]
        self.se.update(
            pre_sigma * self._acc_Sl, pre_sigma * self._acc_Sg,
            pre_pi * Pl, pre_pi * Pg,
        )

    # -- result collection --------------------------------------------------------
    def result_shard(self) -> Dict[str, Optional[np.ndarray]]:
        """The rank's tensors for the final gather, keyed as
        :meth:`~repro.negf.SCBAResult.assemble` takes them: the electron
        shard and the stacked owned phonon rows (Σ≷/Π≷ ``None`` before
        the first exchange)."""
        se = self.se
        return {
            "Gl": self.Gl,
            "Gg": self.Gg,
            "I_L": self.I_L,
            "I_R": self.I_R,
            "Sl": se.Sl,
            "Sg": se.Sg,
            "Dl": self.Dl,
            "Dg": self.Dg,
            "Pl": se.Pl,
            "Pg": se.Pg,
        }

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
