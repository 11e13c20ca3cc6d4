"""The paper's quantitative claims, each written once, beside ours.

One :class:`Claim` per number of arXiv 1912.08810 that this repository
recomputes: the Table 3 flop counts, the Tables 4-5 SSE communication
volumes, the Table 8 extreme-scale run and the Fig. 13 anchors of §5.2.
A claim holds when ``lo <= ours <= hi``.  A value claim accepts
``paper * (1 -/+ tol)``; a shape claim carries its own bounds, and its
``paper`` is the figure it is read against (``None`` if there is none).

``kind`` says how much a match means:

* ``exact-model`` — the §4.3 SSE flop closed forms and the §4.1
  communication volumes, derived from the algorithm alone;
* ``calibrated`` — the contour-integral and RGF flops, whose constants
  ``C_CONTOUR``/``C_RGF`` were fitted to Table 3 (Table 8's GF Pflop
  extrapolates them to 10,240 atoms);
* ``predicted`` — times, speedups and efficiencies from the machine
  models, which rest on quoted sustained efficiencies and fitted
  bandwidths.

``python -m repro.analysis`` prints :func:`scorecard_markdown` and exits
with status 1 if a claim fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..config import PAPER_STRUCTURE_4864, PAPER_STRUCTURE_10240
from ..model import (
    PIZ_DAINT,
    SUMMIT,
    comm_volumes,
    gf_phase_flops,
    iteration_flops,
    paper_tiling,
    predict_times,
    sse_flops_dace,
    strong_scaling,
)

__all__ = ["Claim", "paper_claims", "scorecard_markdown"]

EXACT, CALIBRATED, PREDICTED = "exact-model", "calibrated", "predicted"

#: Table 3: Nkz -> Pflop per column of ``_TABLE3_COLUMNS``.
_TABLE3 = {
    3: (8.45, 52.95, 24.41, 12.38),
    5: (14.12, 88.25, 67.80, 34.19),
    7: (19.77, 123.55, 132.89, 66.85),
    9: (25.42, 158.85, 219.67, 110.36),
    11: (31.06, 194.15, 328.15, 164.71),
}
#: (label, ``IterationFlops`` field, tolerance, kind)
_TABLE3_COLUMNS = (
    ("CI", "contour_integral", 0.01, CALIBRATED),
    ("RGF", "rgf", 0.01, CALIBRATED),
    ("SSE-OMEN", "sse_omen", 0.005, EXACT),
    ("SSE-DaCe", "sse_dace", 0.02, EXACT),
)

#: Table 4 (weak scaling, P = 256 Nkz, TE = Nkz): Nkz -> (OMEN, DaCe) TiB.
_TABLE4 = {
    3: (32.11, 0.54),
    5: (89.18, 1.22),
    7: (174.80, 2.17),
    9: (288.95, 3.38),
    11: (431.65, 4.86),
}

#: Table 5 (strong scaling, Nkz = TE = 7): P -> (OMEN, DaCe) TiB.
_TABLE5 = {
    224: (108.24, 0.95),
    448: (117.75, 1.13),
    896: (136.76, 1.48),
    1792: (174.80, 2.17),
    2688: (212.84, 2.87),
}

#: Table 8 (Summit, 10,240 atoms): (Nkz, nodes) -> (GF Pflop, GF s,
#: SSE Pflop, SSE s, communication s).
_TABLE8 = {
    (11, 1852): (2922, 75.84, 490, 95.46, 44.02),
    (15, 2580): (3985, 75.90, 910, 116.67, 43.93),
    (21, 1763): (5579, 150.38, 1784, 346.56, 121.91),
    (21, 3525): (5579, 76.09, 1784, 175.15, 122.35),
}

#: §5.2 / Fig. 13 anchors of DaCe over OMEN at Nkz = 7:
#: (machine, processes, ``ScalingPoint`` field, paper, tolerance).
_FIG13 = (
    (PIZ_DAINT, 224, "speedup", 16.3, 0.10),
    (PIZ_DAINT, 2688, "comm_speedup", 417.2, 0.25),
    (SUMMIT, 1368, "speedup", 24.5, 0.20),
    (SUMMIT, 1368, "comm_speedup", 79.7, 0.25),
)

#: Fig. 13a: the DaCe strong-scaling efficiency on Piz Daint from 224 to
#: 5,400 processes.
_FIG13_EFFICIENCY = 0.74


@dataclass(frozen=True)
class Claim:
    """One paper number, our value, the range accepted and its kind."""

    source: str
    quantity: str
    paper: Optional[float]
    ours: float
    lo: float
    hi: float
    kind: str

    @property
    def holds(self) -> bool:
        return self.lo <= self.ours <= self.hi

    @property
    def ratio(self) -> Optional[float]:
        return None if self.paper is None else self.ours / self.paper


def _value(source, quantity, paper, ours, tol, kind) -> Claim:
    lo, hi = paper * (1 - tol), paper * (1 + tol)
    return Claim(source, quantity, paper, ours, lo, hi, kind)


def paper_claims() -> List[Claim]:
    """Every claim, in paper order."""
    claims = []
    for nkz, paper in _TABLE3.items():
        f = iteration_flops(PAPER_STRUCTURE_4864.replace(Nkz=nkz, Nqz=nkz))
        for (label, field, tol, kind), value in zip(_TABLE3_COLUMNS, paper):
            quantity = f"Nkz={nkz} {label} Pflop"
            ours = getattr(f, field) / 1e15
            claims.append(_value("Table 3", quantity, value, ours, tol, kind))

    for nkz, (omen, dace) in _TABLE4.items():
        p, P = PAPER_STRUCTURE_4864.replace(Nkz=nkz, Nqz=nkz), 256 * nkz
        t = paper_tiling(p, P, TE=nkz)
        v = comm_volumes(p, P, t.TE, t.TA)
        claims += [
            _value("Table 4", f"P={P} OMEN TiB", omen, v.omen_tib, 0.005, EXACT),
            _value("Table 4", f"P={P} DaCe TiB", dace, v.dace_tib, 0.01, EXACT),
        ]

    p7 = PAPER_STRUCTURE_4864.replace(Nkz=7, Nqz=7)
    ratios = []
    for P, (omen, dace) in _TABLE5.items():
        t = paper_tiling(p7, P, TE=7)
        v = comm_volumes(p7, P, t.TE, t.TA)
        ratio = v.omen_tib / v.dace_tib
        ratios.append(ratio)
        claims += [
            _value("Table 5", f"P={P} OMEN TiB", omen, v.omen_tib, 0.005, EXACT),
            _value("Table 5", f"P={P} DaCe TiB", dace, v.dace_tib, 0.01, EXACT),
            _value("Table 5", f"P={P} OMEN:DaCe", omen / dace, ratio, 0.015, EXACT),
        ]
    claims.append(
        Claim("Table 5", "min OMEN:DaCe", None, min(ratios), 70, math.inf, EXACT)
    )

    for (nkz, nodes), (gf, gf_t, sse, sse_t, comm_t) in _TABLE8.items():
        p = PAPER_STRUCTURE_10240.replace(Nkz=nkz, Nqz=nkz)
        t = predict_times(SUMMIT, p, nodes * SUMMIT.procs_per_node, "dace")
        at = f"Nkz={nkz} nodes={nodes}"
        gf_ours, sse_ours = gf_phase_flops(p) / 1e15, sse_flops_dace(p) / 1e15
        claims += [
            _value("Table 8", f"{at} GF Pflop", gf, gf_ours, 0.03, CALIBRATED),
            _value("Table 8", f"{at} GF s", gf_t, t.gf, 0.05, PREDICTED),
            _value("Table 8", f"{at} SSE Pflop", sse, sse_ours, 0.01, EXACT),
            _value("Table 8", f"{at} SSE s", sse_t, t.sse, 0.06, PREDICTED),
            Claim("Table 8", f"{at} comm s", comm_t, t.comm,
                  0.3 * comm_t, 1.5 * comm_t, PREDICTED),
        ]

    for machine, P, field, paper, tol in _FIG13:
        (pt,) = strong_scaling(machine, p7, [P])
        quantity = f"{machine.name} P={P} {field.replace('_', ' ')}"
        claims.append(
            _value("Fig. 13", quantity, paper, getattr(pt, field), tol, PREDICTED)
        )
    first, last = strong_scaling(PIZ_DAINT, p7, [224, 5400])
    efficiency = (first.dace.total * first.processes) / (
        last.dace.total * last.processes
    )
    claims.append(
        Claim("Fig. 13", "Piz Daint P=224->5400 DaCe efficiency",
              _FIG13_EFFICIENCY, efficiency, 0.4, 1.0, PREDICTED)
    )
    return claims


def _num(x: Optional[float]) -> str:
    return "—" if x is None else f"{x:.5g}"


def scorecard_markdown(claims: List[Claim]) -> str:
    """One markdown row per claim, then how many hold."""
    lines = [
        "| source | quantity | paper | ours | ours/paper | accepted | kind | verdict |",
        "|---|---|---:|---:|---:|---|---|---|",
    ]
    for c in claims:
        accepted = f"{_num(c.lo)}–{_num(c.hi)}"
        if c.hi == math.inf:
            accepted = f"≥ {_num(c.lo)}"
        ratio = "—" if c.ratio is None else f"{c.ratio:.4f}"
        verdict = "ok" if c.holds else "FAIL"
        lines.append(
            f"| {c.source} | {c.quantity} | {_num(c.paper)} | {_num(c.ours)} "
            f"| {ratio} | {accepted} | {c.kind} | {verdict} |"
        )
    held = sum(c.holds for c in claims)
    lines.append(f"\n{held} of {len(claims)} claims hold.")
    return "\n".join(lines)
