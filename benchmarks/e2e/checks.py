"""Output correctness: the scalar record of a sweep point and its comparison."""

from __future__ import annotations

from typing import Any, Dict, Sequence

#: |got - want| <= tol * |want| + ABS_FLOOR counts as agreement
ABS_FLOOR = 1e-12
GOLDEN_TOL = 1e-6
TWIN_TOL = 1e-8

_FLOATS = ("current_left", "current_right", "total_dissipation")


def point_record(run) -> Dict[str, Any]:
    """The checked scalars of one ``RunResult``."""
    return {
        "index": run.index,
        "iterations": run.iterations,
        "converged": run.converged,
        **{f: getattr(run, f) for f in _FLOATS},
    }


def point_agrees(got: Dict[str, Any], want: Dict[str, Any], tol: float) -> bool:
    return got["iterations"] == want["iterations"] and all(
        abs(got[f] - want[f]) <= tol * abs(want[f]) + ABS_FLOOR for f in _FLOATS
    )


def points_agree(
    got: Sequence[Dict[str, Any]], want: Sequence[Dict[str, Any]], tol: float
) -> bool:
    return len(got) == len(want) and all(
        point_agrees(g, w, tol) for g, w in zip(got, want)
    )
