"""Performance observatory: timeline analytics and its CLI.

Covers the ISSUE-10 acceptance surface:

* on a 2-rank distributed SCBA smoke the timeline **reconciles with the
  telemetry it came from**: per-rank measured busy + wait covers the
  ``runtime.run`` wall within 1% (the transport-instrumented waits agree
  with subtraction-inferred idle), the critical path is >= the slowest
  rank's busy time, and the exchange bytes re-derived from the phase
  spans match the §4.1 models to the byte (through
  ``drift.comm_drift(last_comm=...)``);
* the ``python -m repro.observe trace`` CLI renders the report.
"""

from __future__ import annotations

import json

import pytest

from repro.negf import SCBASettings, SCBASimulation
from repro.observe import (
    analyze_events,
    analyze_trace_file,
    analyze_tracer,
)
from repro.observe.__main__ import main as observe_main
from repro.telemetry import capture, configure, get_tracer
from repro.telemetry.drift import comm_drift


@pytest.fixture(autouse=True)
def _clean_telemetry():
    previous = configure("off")
    get_tracer().clear()
    yield
    configure(previous)
    get_tracer().clear()


def _distributed_settings(runtime, ranks=2):
    return SCBASettings(
        runtime=runtime, ranks=ranks, schedule="omen",
        NE=8, Nkz=2, Nqz=2, Nw=2, e_min=-1.0, e_max=1.0,
        coupling=0.2, mixing=0.5, max_iterations=2, tolerance=0.0,
    )


def _smoke(small_model, runtime):
    """One captured 2-rank run: (events, analysis, runtime_state).

    The distributed runtime object is grabbed before the simulation
    closes — ``comm_drift`` reads its decompositions and byte counters.
    """
    with capture("spans") as cap:
        with SCBASimulation(
            small_model, _distributed_settings(runtime)
        ) as sim:
            sim.run()
            rt = sim._runtime
    return cap.events, analyze_events(cap.events), rt


# -- timeline reconciliation (the acceptance criterion) ----------------------


@pytest.mark.parametrize("runtime", ["sim", "pipe"])
def test_timeline_reconciles_with_telemetry(small_model, runtime):
    _, analysis, sim = _smoke(small_model, runtime)

    assert set(analysis.ranks) == {0, 1}
    assert set(analysis.phases) == {"solve_gf", "sse", "residual", "gather"}
    wall = analysis.wall_s
    assert wall > 0

    for rank, info in analysis.ranks.items():
        # measured busy + measured wait tile the run window within 1% —
        # i.e. the instrumented transport waits agree with the idle one
        # would infer by subtracting busy from the wall.
        assert info["coverage"] == pytest.approx(1.0, abs=0.01), (
            f"rank {rank} busy+wait covers {info['coverage']:.4f} "
            f"of the wall under {runtime}"
        )
        inferred_idle = wall - info["busy_s"]
        assert info["wait_s"] == pytest.approx(
            inferred_idle, abs=0.01 * wall
        )
        assert info["by_method_s"], "runtime.exec method split missing"

    # critical path: >= the slowest rank, <= the wall it lower-bounds
    max_busy = max(info["busy_s"] for info in analysis.ranks.values())
    assert analysis.critical_path_s >= max_busy - 1e-12
    assert analysis.critical_path_s <= wall * (1 + 1e-9)

    # phase windows: per-rank busy in solve_gf dominates, headroom sane
    assert analysis.phases["solve_gf"]["seconds"] > 0
    assert analysis.imbalance_factor >= 1.0
    ov = analysis.overlap
    assert ov["headroom_s"] is not None
    assert 0.0 <= ov["headroom_s"] <= ov["exchange_s"] + 1e-12


@pytest.mark.parametrize("runtime", ["sim", "pipe"])
def test_timeline_comm_matches_section41_models(small_model, runtime):
    _, analysis, rt = _smoke(small_model, runtime)
    # bytes re-derived from the phase spans, fed through the drift
    # checker in place of the runtime's own accounting: still exact.
    report = comm_drift(rt, last_comm=analysis.comm_stats())
    assert report.clean, report.describe()
    sse = report.record("sse.omen")
    assert sse.measured == sse.modeled > 0


def test_timeline_roundtrips_and_renders(small_model, tmp_path):
    events, analysis, _ = _smoke(small_model, "sim")

    # to_dict is JSON-serializable and carries the headline numbers
    blob = json.loads(json.dumps(analysis.to_dict()))
    assert blob["wall_s"] == analysis.wall_s
    assert blob["ranks"]["0"]["busy_s"] > 0

    md = analysis.to_markdown()
    assert "load-imbalance factor" in md
    assert "critical path" in md
    assert "overlap headroom" in md

    # file round trip (save_trace format = the raw event array)
    path = tmp_path / "smoke.trace.json"
    path.write_text(json.dumps(events))
    from_file = analyze_trace_file(path)
    assert from_file.wall_s == analysis.wall_s
    assert from_file.comm == analysis.comm


def test_analyze_tracer_in_place(small_model):
    configure("spans")
    with SCBASimulation(small_model, _distributed_settings("sim")) as sim:
        sim.run()
    analysis = analyze_tracer()
    assert set(analysis.ranks) == {0, 1}
    assert analysis.critical_path_s > 0


def test_analyze_events_requires_a_run():
    with pytest.raises(ValueError, match="runtime.run"):
        analyze_events([])


def test_analysis_selects_run_window(small_model):
    """A resident runtime traces one runtime.run per sweep point."""
    configure("spans")
    with SCBASimulation(small_model, _distributed_settings("sim")) as sim:
        sim.run()
        sim.run()
    first = analyze_tracer(run=0)
    last = analyze_tracer(run=-1)
    assert first.wall_s != last.wall_s or first.to_dict() != last.to_dict()


# -- the CLI -----------------------------------------------------------------


def test_cli_trace_report(small_model, tmp_path, capsys):
    events, _, _ = _smoke(small_model, "sim")
    trace = tmp_path / "run.trace.json"
    trace.write_text(json.dumps(events))
    out = tmp_path / "report.md"
    assert observe_main(["trace", str(trace), "--out", str(out)]) == 0
    text = out.read_text()
    assert "Timeline analysis" in text and "critical path" in text
    assert "critical path" in capsys.readouterr().out
    assert observe_main(["trace", str(trace), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["wall_s"] > 0
