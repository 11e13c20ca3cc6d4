"""Tier-1 smoke test of the end-to-end benchmark harness.

Runs the real harness once at the ``--smoke`` dims (every workload < 1 s,
one repeat, traced) and checks the schema, the presence of every metric
on every workload it applies to, and the tracing invariants.  Timings are
never asserted here: that is what the full-size benchmark is for.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import probes  # noqa: E402
import run as harness  # noqa: E402
from workloads import CASES  # noqa: E402

BENCH = harness.spec_of_benchmark()
END_TO_END = {
    "solve_s", "setup_s", "peak_rss_mb", "iterations", "failed_frac",
    "grid_points_per_s",
}

# per-layer metrics by the workloads they apply to
EVERY = {
    "machine.zgemm_gflops", "machine.triad_gbs", "machine.triad_array_mb",
    "machine.llc_mb", "machine.nproc", "machine.blas_threads",
    "trace.coverage", "trace.overhead_frac", "trace.spans",
    "api.compile_s", "api.session_self_s", "api.points",
    "hamiltonian.build_s", "hamiltonian.assemble_s", "hamiltonian.assemblies",
    "boundary.solve_s", "boundary.solves", "boundary.hits", "boundary.hit_ratio",
    "rgf.solve_s", "rgf.calls", "rgf.model_gflop", "rgf.gflops", "rgf.frac_peak",
    "engine.electrons_s", "engine.phonons_s", "engine.self_s",
    "sse.sigma_calls", "sse.pi_calls",
    "scba.iterations", "scba.loop_self_s", "scba.final_residual",
    "model.gf_gflop_per_iteration", "model.sse_gflop_per_iteration",
}
SCBA = {
    "sse.sigma_s", "sse.pi_s", "sse.tile_s", "sse.preprocess_s", "sse.combine_s",
    "sse.model_gflop", "sse.sigma_gflops", "sse.sigma_frac_peak",
    "sse.computed_gb", "sse.flops_per_byte", "sdfg.movement_report_s",
}
RUNTIME = {
    "runtime.run_s", "runtime.loop_self_s", "runtime.exchange_self_s",
    "runtime.exchange_bytes", "runtime.exchange_messages",
    "runtime.residual_bytes", "runtime.gather_bytes",
    "runtime.bytes_per_iteration", "runtime.bytes_drift",
    "runtime.overhead_ratio", "runtime.pipe2_ratio",
}
SDFG = {
    "sdfg.pipeline_compile_s", "sdfg.source_lines", "sdfg.generated_vs_hand",
    "autotune.search_s", "autotune.moves", "autotune.modeled_reduction",
}
APPLIES = {
    "scba_sse": EVERY | SCBA,
    "scba_gf": EVERY | SCBA,
    "iv_sweep": EVERY,
    "dist_sim4": EVERY | SCBA | RUNTIME,
    "plan_sdfg": EVERY | SCBA | SDFG,
}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """(stored results, stdout) of the harness at the smoke dims.

    Two harness processes, one per core, each running about half the
    work: nothing here asserts a timing, and tier-1 gets its answer in
    half the wall time.
    """
    tmp = tmp_path_factory.mktemp("e2e")
    halves = (["plan_sdfg", "scba_sse", "iv_sweep"], ["dist_sim4", "scba_gf"])
    procs = [
        subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "all", "--smoke", "--repeats", "1",
             "--trace", "1", "--out", str(tmp / f"{i}.json"), "--workloads", *names],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for i, names in enumerate(halves)
    ]
    stored, stdout = {"workloads": {}}, ""
    for i, proc in enumerate(procs):
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0, out
        part = json.loads((tmp / f"{i}.json").read_text())
        part["workloads"].update(stored["workloads"])
        stored, stdout = part, stdout + out
    return stored, stdout


def test_every_workload_and_metric_is_declared():
    assert [w["name"] for w in BENCH["workloads"]] == list(CASES)
    assert set().union(*APPLIES.values()) == {m["name"] for m in BENCH["per_layer"]}
    assert {m["name"] for m in BENCH["end_to_end"]} | {
        m["name"] for m in harness.EXTRA_END_TO_END
    } == END_TO_END


def test_smoke_schema_and_metrics(smoke):
    stored, stdout = smoke
    assert stored["size"] == "smoke"
    assert stored["harness"]["thread_pins"]["OPENBLAS_NUM_THREADS"] == "1"
    assert stored["harness"]["nproc"] >= 1
    assert set(stored["workloads"]) == set(CASES)
    for name, w in stored["workloads"].items():
        assert set(w["end_to_end"]) == END_TO_END, name
        for metric, s in w["end_to_end"].items():
            assert {"unit", "median", "min", "max", "q1", "q3", "n"} <= set(s)
            assert f"  {metric} " in stdout  # printed by name
        assert set(w["per_layer"]) == APPLIES[name], name
        assert w["twin_ok"], name
        assert w["end_to_end"]["failed_frac"]["median"] == 0, name
        assert w["per_layer"]["trace.coverage"] >= 0.95, name
        assert w["spans"], name


def test_smoke_layer_separation_counts(smoke):
    layers = {n: w["per_layer"] for n, w in smoke[0]["workloads"].items()}
    assert layers["iv_sweep"]["sse.sigma_calls"] == 0
    assert layers["iv_sweep"]["sse.pi_calls"] == 0
    assert layers["iv_sweep"]["boundary.hit_ratio"] >= 0.85
    assert layers["scba_sse"]["sse.sigma_calls"] > 0
    assert layers["dist_sim4"]["runtime.bytes_drift"] == 0
    assert layers["dist_sim4"]["sse.tile_s"] > 0
    assert layers["plan_sdfg"]["autotune.moves"] >= 1


def test_probes_are_restored_after_exit():
    import repro.negf.scba as scba

    before = scba.sigma_sse, scba.SCBASimulation.run
    with probes.tracing() as tracer:
        assert scba.sigma_sse is not before[0]
        assert scba.SCBASimulation.run is not before[1]
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    assert (scba.sigma_sse, scba.SCBASimulation.run) == before
    layers = probes.summarize(tracer.spans)
    assert layers["outer"].self_s == pytest.approx(
        layers["outer"].total_s - layers["inner"].total_s
    )
    assert 0 < probes.coverage(tracer.spans, "outer") <= 1


@pytest.mark.parametrize(
    "target",
    [
        ("repro.negf.scba", "no_such_kernel", "x", False),
        ("repro.negf.scba", "SCBASimulation.no_such_method", "x", False),
        ("repro.no_such_module", "f", "x", False),
    ],
)
def test_bogus_probe_target_raises_and_restores(target):
    import repro.api as api

    original = api.compile_workload
    with pytest.raises(probes.ProbeError):
        with probes.tracing(probes.PROBES[:1] + (target,)):
            pass  # pragma: no cover - never entered
    assert api.compile_workload is original


def test_compare_verdicts(tmp_path):
    solve = {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.10}
    rate = {"name": "grid_points_per_s", "unit": "1/s", "better": "higher", "bound": 0.10}
    count = {"name": "iterations", "unit": "count", "better": "lower", "bound": 0.0}
    steady = harness.summary([1.00, 1.01, 1.02, 1.01, 1.00])
    assert harness.compare_row(solve, steady, harness.summary([1.05, 1.06, 1.04, 1.05, 1.05]))["verdict"] == "ok"
    assert harness.compare_row(solve, steady, harness.summary([1.20, 1.21, 1.22, 1.21, 1.20]))["verdict"] == "worse"
    assert harness.compare_row(solve, steady, harness.summary([0.7, 1.0, 1.3, 1.6, 1.9]))["verdict"] == "unresolved"
    assert harness.compare_row(rate, steady, harness.summary([0.8, 0.8, 0.81, 0.8, 0.8]))["verdict"] == "worse"
    assert harness.compare_row(count, harness.summary([9, 9, 9]), harness.summary([9, 9, 9]))["verdict"] == "ok"
    assert harness.compare_row(count, harness.summary([9, 9, 9]), harness.summary([10, 10, 10]))["verdict"] == "worse"

    def stored(solve_values):
        return {"workloads": {"w": {"end_to_end": {"solve_s": {"unit": "s", **harness.summary(solve_values)}}}}}

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(stored([1.00, 1.01, 1.02])))
    b.write_text(json.dumps(stored([1.30, 1.31, 1.32])))
    assert harness.main(["compare", str(a), str(a)]) == 0
    assert harness.main(["compare", str(a), str(b)]) == 1


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_output_line(monkeypatch, capsys, trace):
    """The last stdout line is one JSON object with exactly the contract's
    keys; ``--trace 0`` carries every end-to-end metric, ``--trace 1`` every
    per-layer metric (0 where the metric does not apply to the workload)."""
    canned = {
        "workload": "iv_sweep", "why": "w", "size": "smoke", "seed": 3, "n": 3,
        "attempted": 27, "failed": 0, "twin_ok": True, "plan": None,
        "samples": {
            "solve_s": [1.0, 1.2, 1.1], "setup_s": [0.5, 0.4, 0.6],
            "peak_rss_mb": [100.0, 101.0, 102.0],
            "grid_points_per_s": [90.0, 80.0, 85.0],
            "iterations": [9, 9, 9], "failed_frac": [0.0, 0.0, 0.0],
        },
        "per_layer": {"rgf.solve_s": 0.7},
    }
    monkeypatch.setattr(harness, "run_workload", lambda *a, **k: dict(canned))
    monkeypatch.setattr(harness, "machine_peaks", lambda smoke: {})
    argv = ["--workload", "iv_sweep", "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert harness.main(argv) == 0
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert (line["correct"], line["attempted"], line["failed"]) == (True, 27, 0)
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert line["metrics"]["rgf.solve_s"]["value"] == 0.7
        assert line["metrics"]["runtime.run_s"]["value"] == 0.0
    else:
        assert line["metrics"]["solve_s"]["value"] == 1.1
