"""Measured machine peaks: the base every per-layer rate is a fraction of.

Both peaks are measured once per harness invocation, in a child process
of their own under the same thread pins as the program, so a rate and its
peak always come from one run on one machine.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict

import numpy as np

#: thread pins every child runs under (recorded in the output)
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

_ZGEMM_N = 256
#: triad arrays are 4x the last-level cache, capped so that hosts that
#: report a whole socket's L3 to a 2-core guest stay within memory/time
_TRIAD_CAP_BYTES = 64 * 2**20


def best_of(k: int, fn) -> float:
    """Fastest of ``k`` calls, in seconds."""
    best = float("inf")
    for _ in range(k):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def llc_bytes() -> int:
    """Largest cache of cpu0 as sysfs reports it (0 when unknown)."""
    sizes = []
    for f in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = f.read_text().strip()
        unit = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1])
        sizes.append(int(text[:-1]) * unit if unit else int(text))
    return max(sizes, default=0)


def zgemm_gflops() -> float:
    """complex128 matmul at n=256, best of 10, 8 n^3 real flops."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((_ZGEMM_N, _ZGEMM_N)) + 1j * rng.standard_normal(
        (_ZGEMM_N, _ZGEMM_N)
    )
    b = a.T.copy()
    return 8.0 * _ZGEMM_N**3 / best_of(10, lambda: a @ b) / 1e9


def triad(llc: int) -> Dict[str, float]:
    """``a = b + s*c`` as numpy runs it (two passes: 5 array transfers)."""
    array_bytes = min(4 * llc, _TRIAD_CAP_BYTES) if llc else _TRIAD_CAP_BYTES
    n = array_bytes // 8
    b, c, a = np.full(n, 1.0), np.full(n, 2.0), np.empty(n)

    def kernel():
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)

    return {
        "machine.triad_gbs": 5 * n * 8 / best_of(3, kernel) / 1e9,
        "machine.triad_array_mb": n * 8 / 2**20,
    }


def measure() -> Dict[str, float]:
    llc = llc_bytes()
    return {
        "machine.zgemm_gflops": zgemm_gflops(),
        **triad(llc),
        "machine.llc_mb": llc / 2**20,
        "machine.nproc": float(os.cpu_count() or 1),
        # the pin this process actually runs under (0: unpinned)
        "machine.blas_threads": float(os.environ.get("OPENBLAS_NUM_THREADS") or 0),
    }
