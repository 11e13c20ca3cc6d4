"""Telemetry subsystem: spans, export, drift, and off-mode cost.

Covers:

* span nesting and thread-safety of the tracer;
* Chrome-trace export schema (opens in Perfetto);
* sweep telemetry round-trip through ``SweepResult.to_dict/from_dict``,
  carrying only the spans of its own ``Session.run``;
* per-rank span merge under both distributed transports;
* drift zero-divergence on a 2-rank distributed SCBA run — measured
  comm bytes equal the §4.1 models to the byte, executed flops equal
  the analytic counts exactly;
* ``REPRO_TELEMETRY=off`` leaves results bit-identical and records
  nothing.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.config import default_telemetry_mode
from repro.negf import SCBASettings, SCBASimulation
from repro.telemetry import (
    Tracer,
    capture,
    chrome_trace_events,
    configure,
    get_tracer,
    scoped_span,
    timeit,
    trace,
    traced,
    use_scope,
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends with telemetry off and sinks empty."""
    previous = configure("off")
    get_tracer().clear()
    yield
    configure(previous)
    get_tracer().clear()


# -- mode knob ---------------------------------------------------------------


def test_telemetry_mode_knob(monkeypatch):
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    assert default_telemetry_mode() == "off"
    monkeypatch.setenv("REPRO_TELEMETRY", "spans")
    assert default_telemetry_mode() == "spans"
    for retired in ("full", "verbose"):
        monkeypatch.setenv("REPRO_TELEMETRY", retired)
        with pytest.raises(ValueError, match=r"REPRO_TELEMETRY.*'off', 'spans'"):
            default_telemetry_mode()
    for retired in ("full", "everything"):
        with pytest.raises(ValueError, match="not valid"):
            configure(retired)


def test_trace_is_noop_when_off():
    with trace("outer", a=1) as span:
        assert span is None
    assert get_tracer().roots() == []


# -- spans -------------------------------------------------------------------


def test_span_nesting():
    configure("spans")
    with trace("outer", kind="test"):
        with trace("inner", i=0):
            pass
        with trace("inner", i=1):
            pass
    roots = get_tracer().roots()
    assert len(roots) == 1
    track, outer = roots[0]
    assert track == "main"
    assert outer["name"] == "outer"
    assert outer["attrs"] == {"kind": "test"}
    names = [c["name"] for c in outer["children"]]
    assert names == ["inner", "inner"]
    assert [c["attrs"]["i"] for c in outer["children"]] == [0, 1]
    for c in outer["children"]:
        assert outer["start_ns"] <= c["start_ns"] <= c["end_ns"]
        assert c["end_ns"] <= outer["end_ns"]


def test_traced_decorator():
    configure("spans")

    @traced("decorated", layer="test")
    def fn(x):
        return x + 1

    assert fn(1) == 2
    (track, root), = get_tracer().roots()
    assert root["name"] == "decorated"
    assert root["attrs"] == {"layer": "test"}


def test_tracer_thread_safety():
    configure("spans")
    n_threads, n_spans = 8, 25

    def worker(tid):
        for i in range(n_spans):
            with trace("thread.span", tid=tid, i=i):
                with trace("thread.child"):
                    pass

    threads = [
        threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    roots = get_tracer().roots()
    # every span completed, nesting intact, no cross-thread adoption
    assert len(roots) == n_threads * n_spans
    for _, d in roots:
        assert d["name"] == "thread.span"
        assert len(d["children"]) == 1
        assert d["children"][0]["thread"] == d["thread"]
    assert get_tracer().open_depth() == 0


def test_scoped_span_routes_to_private_sinks():
    configure("spans")
    private_tracer = Tracer()
    with scoped_span(private_tracer, "rank.work"):
        with trace("rank.inner"):
            pass
    assert get_tracer().roots() == []
    (root,) = private_tracer.drain()
    assert root["name"] == "rank.work"
    assert [c["name"] for c in root["children"]] == ["rank.inner"]


# -- export ------------------------------------------------------------------


def test_chrome_trace_schema():
    configure("spans")
    with trace("phase", n=2):
        with trace("step"):
            pass
    get_tracer().add_track(
        "rank 0",
        [{
            "name": "rank.solve_gf",
            "start_ns": 10,
            "end_ns": 20,
            "thread": "MainThread",
            "attrs": {"rank": 0},
            "children": [],
        }],
    )
    events = chrome_trace_events()
    payload = json.loads(json.dumps(events))  # JSON-serializable
    meta = [e for e in payload if e["ph"] == "M"]
    spans = [e for e in payload if e["ph"] == "X"]
    assert {e["args"]["name"] for e in meta if e["name"] == "process_name"} == {
        "main",
        "rank 0",
    }
    assert {e["name"] for e in spans} == {"phase", "step", "rank.solve_gf"}
    for e in spans:
        assert set(e) == {"name", "ph", "ts", "dur", "pid", "tid", "args"}
        assert e["ts"] >= 0 and e["dur"] >= 0
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
    # timestamps are relative to the earliest span across all tracks
    assert min(e["ts"] for e in spans) == 0.0


def test_chrome_trace_empty_tracer():
    assert chrome_trace_events(Tracer()) == []


def test_chrome_trace_multithread_tid_ordering():
    """Spans from several threads land on distinct, stable tids."""
    configure("spans")
    tracer = get_tracer()

    def work(i):
        with trace(f"worker-{i}"):
            pass

    threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
    with trace("driver"):
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    events = chrome_trace_events(tracer)
    spans = [e for e in events if e["ph"] == "X"]
    tid_of = {e["name"]: e["tid"] for e in spans}
    # four recording threads -> four distinct tids on the main track,
    # assigned contiguously in root-completion order
    tids = {tid_of["driver"]} | {tid_of[f"worker-{i}"] for i in range(3)}
    assert tids == {0, 1, 2, 3}
    # thread_name metadata covers every tid used by a span
    named = {
        (e["pid"], e["tid"])
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert {(e["pid"], e["tid"]) for e in spans} <= named


def test_chrome_trace_span_open_at_export():
    """A span still open when exported gets a zero duration, not a crash."""
    configure("spans")
    with trace("closed"):
        pass
    # simulate an open span: to_dict on a live one stamps end = now, but a
    # root dict drained with end_ns None must export as dur 0
    get_tracer().add_track(
        "rank 0",
        [{
            "name": "rank.open",
            "start_ns": 100,
            "end_ns": None,
            "thread": "MainThread",
            "attrs": {},
            "children": [],
        }],
    )
    events = chrome_trace_events()
    by_name = {e["name"]: e for e in events if e["ph"] == "X"}
    assert by_name["rank.open"]["dur"] == 0.0
    assert by_name["closed"]["dur"] >= 0.0


def test_walk_span_tree_preorder_and_iter_spans():
    from repro.telemetry.export import iter_spans, walk_span_tree

    configure("spans")
    with trace("root"):
        with trace("child-a"):
            with trace("leaf"):
                pass
        with trace("child-b"):
            pass
    ((_, root),) = get_tracer().roots()
    walked = [(d, s["name"]) for d, s in walk_span_tree(root)]
    assert walked == [
        (0, "root"), (1, "child-a"), (2, "leaf"), (1, "child-b")
    ]
    flat = [(track, d, s["name"]) for track, d, s in iter_spans(get_tracer())]
    assert ("main", 0, "root") in flat and ("main", 2, "leaf") in flat


def test_capture_roundtrip(tmp_path):
    with capture("spans") as cap:
        with trace("captured"):
            pass
    assert cap.mode == "spans"
    assert cap.snapshot() == {"mode": "spans", "trace": cap.events}
    assert any(e.get("name") == "captured" for e in cap.events)
    out = tmp_path / "t.trace.json"
    cap.save(out)
    assert json.loads(out.read_text()) == cap.events
    # mode restored, sinks left to the ambient state
    assert telemetry.mode() == "off"


def test_timeit_repeats_and_result():
    calls = []
    t = timeit(lambda: calls.append(1) or len(calls), repeats=3, warmup=1)
    assert len(calls) == 4
    assert t.result == 4
    assert len(t.seconds) == 3
    assert t.best == min(t.seconds) <= t.mean
    with pytest.raises(ValueError):
        timeit(lambda: None, repeats=0)


# -- session integration ------------------------------------------------------


def _quick_workload():
    from repro.api import DeviceSpec, GridSpec, PhysicsSpec, Workload

    return Workload(
        name="telemetry-test",
        device=DeviceSpec(nx_cols=6, ny_rows=3, NB=4, slab_width=2, Norb=2),
        grid=GridSpec(e_min=-1.0, e_max=1.0, NE=6, Nkz=2, Nqz=2, Nw=2),
        physics=PhysicsSpec(
            transport="scba", coupling=0.2, mixing=0.5,
            max_iterations=2, tolerance=0.0,
        ),
    )


def _span_count(events, name):
    return sum(1 for e in events if e["ph"] == "X" and e["name"] == name)


def test_metrics_roundtrip_through_run_result():
    from repro.api import Session
    from repro.api.session import SweepResult

    configure("spans")
    with Session(_quick_workload().compile()) as session:
        sweep = session.run()
    rr = sweep[0]
    assert sweep.telemetry is not None and sweep.telemetry["mode"] == "spans"
    events = sweep.telemetry["trace"]
    assert _span_count(events, "session.point") == 1
    # the Born iteration count lives on the result and in the spans
    assert _span_count(events, "scba.iteration") == rr.iterations == 2

    d = sweep.to_dict()
    back = SweepResult.from_dict(json.loads(json.dumps(d)))
    assert back.telemetry == sweep.telemetry
    assert back[0].iterations == rr.iterations


def test_sweep_telemetry_holds_only_its_own_run():
    from repro.api import Session

    configure("spans")
    plan = _quick_workload().compile()
    sweeps = []
    for _ in range(2):
        with Session(plan) as session:
            sweeps.append(session.run())
    first, second = (s.telemetry["trace"] for s in sweeps)
    assert _span_count(first, "session.run") == 1
    assert _span_count(second, "session.run") == 1
    assert len(second) == len(first)


def test_nested_run_telemetry_holds_its_own_subtree():
    """A ``Session.run`` inside an open span (a caller that wraps each
    queued job in a span of its own) still carries its own spans."""
    from repro.api import Session

    plan = _quick_workload().compile()
    with capture("spans"):
        with Session(plan) as session:
            top = session.run()
        with trace("outer"):
            with Session(plan) as session:
                nested = session.run()
    for sweep in (top, nested):
        events = sweep.telemetry["trace"]
        assert _span_count(events, "session.run") == 1
        assert _span_count(events, "session.point") == 1
        assert _span_count(events, "scba.iteration") == sweep[0].iterations
        assert _span_count(events, "outer") == 0
    assert len(nested.telemetry["trace"]) == len(top.telemetry["trace"])


def test_service_result_has_no_telemetry_when_off():
    from repro.api import Session

    configure("off")
    with Session(_quick_workload().compile()) as session:
        sweep = session.run()
    assert sweep.telemetry is None
    assert set(sweep.to_dict()) == {"workload", "engine", "reuse", "runs"}


# -- distributed runtime ------------------------------------------------------


def _distributed_settings(runtime):
    return SCBASettings(
        runtime=runtime, ranks=2, schedule="omen",
        NE=8, Nkz=2, Nqz=2, Nw=2, e_min=-1.0, e_max=1.0,
        coupling=0.2, mixing=0.5, max_iterations=2, tolerance=0.0,
    )


@pytest.mark.parametrize("runtime", ["sim", "pipe"])
def test_rank_span_merge_under_both_transports(small_model, runtime):
    with capture("spans") as cap:
        with SCBASimulation(small_model, _distributed_settings(runtime)) as sim:
            sim.run()
            last_comm = sim.last_comm
    tracks = {
        e["args"]["name"] for e in cap.events if e["name"] == "process_name"
    }
    assert tracks == {"main", "rank 0", "rank 1"}
    names = {e["name"] for e in cap.events if e["ph"] == "X"}
    # driver phases and rank-side engine/boundary work all present
    for required in (
        "runtime.run", "runtime.solve_gf", "runtime.sse_exchange",
        "runtime.residual_allreduce", "runtime.gather",
        "rank.solve_gf", "rank.sse_prepare", "rgf.batch", "boundary.solve",
    ):
        assert required in names, f"missing span {required} under {runtime}"
    # rank-side engine spans merged as rank tracks (2 ranks x 2 iterations)
    track_of = {
        e["pid"]: e["args"]["name"]
        for e in cap.events
        if e["name"] == "process_name"
    }
    rank_electron_batches = [
        e for e in cap.events
        if e["ph"] == "X" and e["name"] == "rgf.batch"
        and e["args"].get("kind") == "electron"
        and track_of[e["pid"]].startswith("rank ")
    ]
    assert len(rank_electron_batches) == 4
    # the phase spans carry the exact per-phase bytes of the run
    span_bytes = sum(
        sum(e["args"]["comm"]["recv_bytes"])
        for e in cap.events
        if e["ph"] == "X" and "comm" in e["args"]
    )
    run_bytes = sum(stats.total_bytes for stats in last_comm.values())
    assert span_bytes == run_bytes > 0


@pytest.mark.parametrize("runtime", ["sim", "pipe"])
def test_drift_clean_on_distributed_run(small_model, runtime):
    from repro.telemetry.drift import comm_drift

    with SCBASimulation(small_model, _distributed_settings(runtime)) as sim:
        sim.run()
        report = comm_drift(sim)
    assert report.clean, report.describe()
    sse = report.record("sse.omen")
    assert sse.measured == sse.modeled > 0
    residual = report.record("residual.allreduce")
    assert residual.measured == residual.modeled > 0
    json.dumps(report.to_dict())


def test_sse_flops_drift_exact():
    from repro.telemetry.drift import sse_flops_drift

    report = sse_flops_drift()
    assert report.clean, report.describe()
    # every pipeline stage contributes an exact flop and byte record
    flops = [r for r in report.records if r.name.endswith(".flops")]
    bytes_ = [r for r in report.records if r.name.endswith(".bytes")]
    assert len(flops) == len(bytes_) == 9
    for r in report.records:
        assert r.measured == r.modeled


# -- off mode -----------------------------------------------------------------


def test_off_mode_bit_identical_and_no_registry_growth(small_model):
    settings = dict(
        NE=6, Nkz=2, Nqz=2, Nw=2, e_min=-1.0, e_max=1.0,
        coupling=0.2, mixing=0.5, max_iterations=2, tolerance=0.0,
    )
    configure("off")
    with SCBASimulation(small_model, SCBASettings(**settings)) as sim:
        res_off = sim.run()
    assert get_tracer().roots() == []

    configure("spans")
    with SCBASimulation(small_model, SCBASettings(**settings)) as sim:
        res_spans = sim.run()
    assert len(get_tracer().roots()) > 0

    for name in ("Gl", "Gg", "Sigma_l", "Sigma_g", "current_left"):
        a, b = getattr(res_off, name), getattr(res_spans, name)
        assert np.array_equal(a, b), f"{name} not bit-identical"
    assert res_off.iterations == res_spans.iterations


def test_use_scope_restores_on_exit():
    configure("spans")
    private = Tracer()
    with use_scope(private):
        with trace("scoped"):
            pass
    with trace("ambient"):
        pass
    assert [d["name"] for d in private.drain()] == ["scoped"]
    assert [d["name"] for _, d in get_tracer().roots()] == ["ambient"]
