"""Shared wall-clock timing: the min-of-repeats ``perf_counter`` idiom.

:func:`timeit` is the one implementation; ``api/session.py`` and the
benchmarks use it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, List

__all__ = ["Timing", "timeit"]


@dataclass(frozen=True)
class Timing:
    """Outcome of :func:`timeit`: per-repeat seconds plus the last result."""

    seconds: List[float]
    #: return value of the final timed call
    result: Any

    @property
    def best(self) -> float:
        """Minimum over repeats — the standard noise-rejecting estimate."""
        return min(self.seconds)

    @property
    def mean(self) -> float:
        return sum(self.seconds) / len(self.seconds)


def timeit(fn: Callable[[], Any], repeats: int = 3, warmup: int = 0) -> Timing:
    """Call ``fn`` ``repeats`` times (after ``warmup`` untimed calls) and
    return the per-call wall times plus the last call's return value.

    ``repeats=1`` is the plain elapsed-wall-clock case (sessions, pools);
    ``repeats>1`` with :attr:`Timing.best` is the benchmark idiom.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    for _ in range(warmup):
        fn()
    seconds = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        seconds.append(time.perf_counter() - t0)
    return Timing(seconds=seconds, result=result)
