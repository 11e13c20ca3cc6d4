"""Smoke tests: the fast example scripts run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
_SRC = Path(__file__).resolve().parent.parent / "src"


def _run(name: str, timeout: int = 240) -> str:
    # Prepend src/ so the examples also run under a bare `pytest` (the
    # ini-file pythonpath does not reach subprocesses).
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(_EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_examples_present():
    names = {p.name for p in _EXAMPLES.glob("*.py")}
    assert {
        "quickstart.py",
        "finfet_iv_curve.py",
        "self_heating.py",
        "communication_planning.py",
        "sdfg_transformations.py",
        "distributed_runtime.py",
        "scheduler_service.py",
        "autotune_recipe.py",
    } <= names


def test_sdfg_transformations_example():
    out = _run("sdfg_transformations.py")
    assert "fig12s" in out
    assert "speedup" in out


def test_communication_planning_example():
    out = _run("communication_planning.py")
    assert "optimal tiling" in out
    assert "Min(Nkz" in out or "skz" in out
    # The workload now enters through the facade: the compiled plan of
    # the paper_4864 scenario is printed before the machine planning.
    assert "plan[paper_4864]" in out
    assert "NA=4864" in out


def test_finfet_iv_example():
    out = _run("finfet_iv_curve.py")
    assert "plan[finfet_iv]" in out
    assert "ballistic transport sane" in out
    # Sweep-level reuse: boundary solves reported once per grid point.
    assert "boundary solves: 120 (= 2 x Nkz x NE = 120)" in out


def test_distributed_runtime_example():
    out = _run("distributed_runtime.py")
    assert "runtime: P=4 ranks" in out
    assert "bytes==model" in out
    assert "distributed runtime sane" in out


def test_autotune_recipe_example():
    out = _run("autotune_recipe.py")
    # The search must rediscover at least the hand recipe's reduction,
    # and on every winning stage the flops and bytes the interpreter
    # counts must equal the models.
    assert "autotune[greedy]" in out
    assert "x less movement" in out
    assert "work check clean: interpreter-counted flops and bytes" in out


def test_scheduler_service_example():
    out = _run("scheduler_service.py")
    # alice's priority 5 runs ahead of bob and carol, who queued before her
    assert "run order            : alice-iv > bob-spot > carol-fine > dave-copy" in out
    # dave's resubmission is the one cache hit, and it paid no boundary solve
    hits = [line.split() for line in out.splitlines() if line.endswith(" hit")]
    assert hits == [["4", "dave-copy", "0", "0", "0", "hit"]]
    assert "cache hits           : 1" in out
    # bob shares alice's group: only alice and carol paid boundary solves
    assert "boundary solves paid : 96" in out
    assert "structural groups    : 2" in out
    assert "job queue sane" in out


@pytest.mark.slow
def test_quickstart_example():
    out = _run("quickstart.py", timeout=400)
    assert "dissipative: converged=True" in out
    assert "plan[quickstart]" in out
    assert "max dev vs serial" in out
