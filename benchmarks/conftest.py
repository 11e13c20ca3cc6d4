"""Shared fixtures for the benchmark harness."""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.report import drain
from repro.negf import (
    SCBASettings,
    SCBASimulation,
    build_device,
    build_hamiltonian_model,
    preprocess_phonon_green,
)


def _collect_machine_info() -> dict:
    info = {
        "platform": platform.platform(),
        "processor": platform.processor() or None,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        info["blas"] = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, AttributeError, KeyError):  # older numpy layouts
        info["blas"] = None
    return info


@pytest.fixture(scope="session")
def machine_info() -> dict:
    """Host record stamped into every ``BENCH_*.json`` so numbers stay
    comparable over time (shared by all BENCH-writing benchmarks).

    A fixture rather than an importable helper: fixture lookup is
    conftest-directory-scoped, so it stays unambiguous when ``tests/``
    and ``benchmarks/`` are collected in one pytest invocation."""
    return _collect_machine_info()


@pytest.fixture(scope="session")
def bench_writer(machine_info):
    """The one place benchmark records get stamped and written.

    ``write(name, record, fast)`` stamps the shared ``machine_info``
    block and, on **full** runs only, writes ``BENCH_<name>.json`` to
    this directory (the committed artifact) — REPRO_BENCH_FAST smoke
    runs never touch the committed records.  Returns the stamped record.
    """

    def write(name: str, record: dict, fast: bool) -> dict:
        if "machine" not in record:
            record = {"machine": machine_info, **record}
        if not fast:
            committed = Path(__file__).resolve().parent
            (committed / f"BENCH_{name}.json").write_text(
                json.dumps(record, indent=2) + "\n"
            )
        return record

    return write


@pytest.fixture(scope="session")
def single_node_workload():
    """A scaled-down single-node GF+SSE workload (Table 7 analogue)."""
    dev = build_device(nx_cols=8, ny_rows=4, NB=6, slab_width=2)
    model = build_hamiltonian_model(dev, Norb=3)
    st = SCBASettings(
        NE=24, Nkz=3, Nqz=3, Nw=4, e_min=-1.5, e_max=1.5, eta=1e-3
    )
    sim = SCBASimulation(model, st)
    Gl, Gg, _, _ = sim.solve_electrons(None, None)
    Dl, Dg = sim.solve_phonons(None, None)
    rev = dev.reverse_neighbor()
    Dcl = preprocess_phonon_green(Dl, dev.neighbors, rev)
    return dict(dev=dev, model=model, sim=sim, Gl=Gl, Gg=Gg, Dcl=Dcl)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Re-emit the paper-comparison tables after the benchmark summary."""
    lines = drain()
    if lines:
        terminalreporter.write_line("")
        terminalreporter.write_sep("=", "paper comparison tables")
        for block in lines:
            for line in block.splitlines():
                terminalreporter.write_line(line)
