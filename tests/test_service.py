"""Multi-tenant scheduler service: jobs, cache, executors, metrics."""

import json

import numpy as np
import pytest

from repro.api import (
    DeviceSpec,
    GridSpec,
    PhysicsSpec,
    Session,
    SweepAxis,
    SweepResult,
    Workload,
)
from repro.config import SERVICE_MODES
from repro.service import (
    Job,
    JobError,
    ResultCache,
    SchedulerError,
    SchedulerService,
)


def small_workload(name="svc", bias=0.2, NE=8, transport="ballistic", **kwargs):
    defaults = dict(
        name=name,
        device=DeviceSpec(nx_cols=6, ny_rows=3, NB=4, slab_width=2, Norb=2),
        grid=GridSpec(e_min=-1.2, e_max=1.2, NE=NE, Nkz=2, Nqz=2, Nw=2, eta=1e-4),
        physics=PhysicsSpec(
            transport=transport, mu_left=bias / 2, mu_right=-bias / 2,
            coupling=0.25, mixing=0.6, max_iterations=3, tolerance=1e-12,
        ),
    )
    defaults.update(kwargs)
    return Workload(**defaults)


def sync_service(**kwargs):
    defaults = dict(mode="sync", cache=ResultCache(max_entries=32))
    defaults.update(kwargs)
    return SchedulerService(**defaults)


# -- job state machine ---------------------------------------------------------


class TestJobStateMachine:
    def test_nominal_lifecycle(self):
        job = Job(workload=small_workload())
        assert job.state == "QUEUED" and not job.terminal
        for state in ("PLANNING", "ADMITTED", "RUNNING", "DONE"):
            job.transition(state)
        assert job.terminal
        assert [r.state for r in job.history] == [
            "QUEUED", "PLANNING", "ADMITTED", "RUNNING", "DONE",
        ]

    def test_illegal_transition_raises(self):
        job = Job(workload=small_workload())
        with pytest.raises(JobError, match="illegal transition"):
            job.transition("RUNNING")  # must pass through PLANNING/ADMITTED

    def test_terminal_states_are_final(self):
        job = Job(workload=small_workload())
        job.transition("PLANNING")
        job.transition("CACHED")
        with pytest.raises(JobError, match="illegal transition"):
            job.transition("PLANNING")

    def test_unknown_state_raises(self):
        job = Job(workload=small_workload())
        with pytest.raises(JobError, match="unknown job state"):
            job.transition("PAUSED")

    def test_non_workload_raises(self):
        with pytest.raises(JobError, match="Workload"):
            Job(workload={"not": "a workload"})

    def test_record_is_json_serializable(self):
        job = Job(workload=small_workload(), tenant="alice", priority=3)
        job.transition("PLANNING")
        job.fail("synthetic")
        d = json.loads(json.dumps(job.to_dict()))
        assert d["tenant"] == "alice" and d["state"] == "FAILED"
        assert d["error"] == "synthetic"
        assert [r["state"] for r in d["history"]][-1] == "FAILED"
        assert d["cache_key"] == job.workload.cache_key()

    def test_order_key_priority_then_deadline_then_seq(self):
        lo = Job(workload=small_workload(), priority=0)
        hi = Job(workload=small_workload(), priority=5)
        soon = Job(workload=small_workload(), priority=5, deadline_s=1.0)
        assert sorted([lo, hi, soon], key=Job.order_key) == [soon, hi, lo]


# -- result cache --------------------------------------------------------------


def _dummy_sweep(tag: str) -> SweepResult:
    return SweepResult(workload={"name": tag}, runs=[], reuse={}, engine="batched")


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(max_entries=4)
        assert cache.get("k") is None
        cache.put("k", _dummy_sweep("a"))
        assert cache.get("k").workload["name"] == "a"
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", _dummy_sweep("a"))
        cache.put("b", _dummy_sweep("b"))
        cache.get("a")  # a is now most recently used
        cache.put("c", _dummy_sweep("c"))  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None
        assert cache.stats()["evictions"] == 1

    def test_zero_entries_disables(self):
        cache = ResultCache(max_entries=0)
        cache.put("k", _dummy_sweep("a"))
        assert cache.get("k") is None and not cache.enabled

    def test_disk_tier_survives_new_instance(self, tmp_path):
        first = ResultCache(max_entries=4, directory=tmp_path)
        first.put("k", _dummy_sweep("persisted"))
        second = ResultCache(max_entries=4, directory=tmp_path)
        hit = second.get("k")
        assert hit is not None and hit.workload["name"] == "persisted"
        assert second.stats()["hits"] == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        (tmp_path / "k.json").write_text('{"workload": {"na')  # torn write
        cache = ResultCache(max_entries=4, directory=tmp_path)
        assert cache.get("k") is None
        assert cache.stats()["misses"] == 1 and cache.stats()["hits"] == 0
        cache.put("k", _dummy_sweep("rewritten"))
        fresh = ResultCache(max_entries=4, directory=tmp_path)
        assert fresh.get("k").workload["name"] == "rewritten"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k.json"]

    def test_negative_entries_raise(self):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(max_entries=-1)


# -- the executor holder: one Session across plans ----------------------------


def resident_groups(*plans):
    """Resident simulations after running every plan through one Session."""
    with Session(plans[0]) as session:
        for plan in plans:
            session.run(plan)
        return len(session)


class TestSharedSession:
    def test_separates_grids_not_bias(self):
        w1 = small_workload(bias=0.1)
        w2 = small_workload(bias=0.5)
        w3 = small_workload(NE=12)
        plans = [w.compile(engine="batched") for w in (w1, w2, w3)]
        assert resident_groups(plans[0], plans[1]) == 1
        assert resident_groups(*plans) == 2

    def test_separates_execution_choices(self):
        w = small_workload(transport="scba")

        def groups(*compile_kwargs):
            return resident_groups(*(w.compile(**kw) for kw in compile_kwargs))

        assert groups({"engine": "serial"}, {"engine": "batched"}) == 2
        sim2 = {"runtime": "sim", "ranks": 2}
        assert groups({"runtime": "serial"}, sim2) == 2
        # bias still merges under every execution choice
        for kw in ({"engine": "serial"}, sim2):
            assert resident_groups(
                small_workload(bias=0.1).compile(**kw),
                small_workload(bias=0.5).compile(**kw),
            ) == 1

    def test_second_plan_reuses_boundary_cache(self):
        a, b = small_workload("a", bias=0.1), small_workload("b", bias=0.5)
        plan_a, plan_b = (w.compile(engine="batched") for w in (a, b))
        with Session(plan_a) as session:
            first = session.run()
            second = session.run(plan_b)
            assert len(session) == 1
        assert first.boundary_solves > 0
        assert second.boundary_solves == 0
        assert second.boundary_hits > 0
        assert second.workload["name"] == "b"

    def test_second_device_builds_second_model(self, monkeypatch):
        other = DeviceSpec(nx_cols=6, ny_rows=3, NB=4, slab_width=2, Norb=2,
                           seed=7)
        plans = [
            small_workload(bias=0.1).compile(),
            small_workload(bias=0.5).compile(),
            small_workload(device=other).compile(),
        ]
        builds = []
        real_build = DeviceSpec.build

        def counting_build(spec):
            builds.append(spec)
            return real_build(spec)

        monkeypatch.setattr(DeviceSpec, "build", counting_build)
        with Session(plans[0]) as session:
            for plan in plans:
                session.run(plan)
            assert len(session) == 2
            assert session.model is session.model
        assert builds == [plans[0].workload.device, other]

    def test_run_after_close_raises(self):
        plan = small_workload().compile()
        session = Session(plan)
        session.run()
        session.close()
        with pytest.raises(RuntimeError, match="session is closed"):
            session.run(small_workload(bias=0.5).compile())

    def test_simulation_index_is_the_run_executor(self):
        """``simulation(gi)`` is what ``run()`` uses for group ``gi`` — the
        contract the e2e harness builds its set-up on."""
        w = small_workload(sweeps=(SweepAxis("grid", (8, 12)),))
        plan = w.compile()
        assert plan.n_groups == 2
        with Session(plan) as session:
            sims = [session.simulation(gi) for gi in range(plan.n_groups)]
            sweep = session.run()
            # run() built no simulation of its own ...
            assert len(session) == 2
            assert all(
                session.simulation(gi) is sim for gi, sim in enumerate(sims)
            )
            # ... and every boundary solve of the run was paid by those two
            assert sweep.boundary_solves == sum(
                sim.boundary_counters()[k]
                for sim in sims for k in ("el_solves", "ph_solves")
            )


# -- scheduler service ----------------------------------------------------------


class TestSchedulerService:
    def test_empty_queue_drain(self):
        with sync_service() as svc:
            assert svc.drain() == []
            assert svc.stats()["jobs"] == {}

    def test_results_match_session_ballistic(self):
        w = small_workload(sweeps=(SweepAxis("bias", (0.0, 0.2, 0.4)),))
        with Session(w.compile()) as session:
            reference = session.run()
        with sync_service() as svc:
            sweep = svc.wait(svc.submit(w))
        assert np.abs(
            reference.currents_left - sweep.currents_left
        ).max() <= 1e-10
        assert [r.index for r in sweep.runs] == [0, 1, 2]

    def test_results_match_session_scba(self):
        w = small_workload(transport="scba")
        with Session(w.compile()) as session:
            reference = session.run()
        with sync_service() as svc:
            sweep = svc.wait(svc.submit(w))
        ref, got = reference.runs[0], sweep.runs[0]
        assert np.abs(
            np.asarray(ref.result.Gl) - np.asarray(got.result.Gl)
        ).max() <= 1e-10
        assert got.current_left == pytest.approx(ref.current_left, abs=1e-10)
        assert got.total_dissipation == pytest.approx(
            ref.total_dissipation, abs=1e-10
        )

    def test_pool_points_carry_per_point_telemetry(self):
        """Jobs run through the service's Session, so each job's
        ``service.execute`` span holds ``session.point`` spans with the
        same Born iterations as a direct ``Session.run``."""
        from repro.telemetry import capture, get_tracer
        from repro.telemetry.export import walk_span_tree

        def point_iterations(root):
            return {
                span["attrs"]["index"]: sum(
                    c["name"] == "scba.iteration" for c in span["children"]
                )
                for _, span in walk_span_tree(root)
                if span["name"] == "session.point"
            }

        w = small_workload(transport="scba")
        with capture("spans"):
            with Session(w.compile()) as session:
                session.run()
            with sync_service() as svc:
                sweep = svc.wait(svc.submit(w))
            roots = {root["name"]: root for _, root in get_tracer().roots()}
        direct = point_iterations(roots["session.run"])
        job = point_iterations(roots["service.execute"])
        assert roots["service.execute"]["attrs"]["job_id"] == sweep.service[
            "job_id"
        ]
        assert job == direct
        assert job == {r.index: r.iterations for r in sweep.runs}

    def test_duplicate_submission_served_from_cache(self):
        w = small_workload()
        twin = small_workload(name="other-label")  # same physics, new name
        with sync_service() as svc:
            first = svc.submit(w, tenant="alice")
            dup = svc.submit(twin, tenant="bob")
            svc.drain()
            assert first.state == "DONE" and dup.state == "CACHED"
            assert dup.metrics["boundary_solves"] == 0
            assert dup.metrics["flops_executed"] == 0.0
            # the pool never saw additional solves for the duplicate
            assert (
                svc.stats()["boundary_solves"]
                == first.metrics["boundary_solves"]
            )
            assert dup.result.service["cache"] == "hit"
            assert np.abs(
                dup.result.currents_left - first.result.currents_left
            ).max() == 0.0

    def test_repeat_traffic_across_drains_hits_cache(self):
        w = small_workload()
        with sync_service() as svc:
            svc.wait(svc.submit(w))
            job = svc.submit(w)
            svc.drain()
            assert job.state == "CACHED"
            assert svc.cache.stats()["hits"] >= 1

    def test_sharing_tenants_vs_disjoint_tenants(self):
        shared_a = small_workload("a", bias=0.1)
        shared_b = small_workload("b", bias=0.5)      # same structural group
        disjoint = small_workload("c", NE=12)         # its own group
        with sync_service() as svc:
            ja = svc.submit(shared_a, tenant="alice")
            jb = svc.submit(shared_b, tenant="bob")
            jc = svc.submit(disjoint, tenant="carol")
            svc.drain()
            # the sharing pair: second tenant solves nothing, only hits
            first, second = sorted(
                (ja, jb), key=lambda j: j.metrics["exec_order"]
            )
            assert first.metrics["boundary_solves"] > 0
            assert second.metrics["boundary_solves"] == 0
            assert second.metrics["boundary_hits"] > 0
            # the disjoint tenant pays its own boundary bill in full
            assert jc.metrics["boundary_solves"] > 0
            assert svc.stats()["groups"] == 2

    def test_same_group_tenants_pay_one_boundary_bill(self):
        """One structural group, four tenants over two drains: the group's
        boundary bill is paid once, by whichever job runs first."""
        biases = (0.1, 0.3, 0.5, 0.7)
        workloads = [
            small_workload(f"t{i}", bias=b, transport="scba")
            for i, b in enumerate(biases)
        ]
        isolated = []
        for w in workloads:
            with Session(w.compile()) as session:
                isolated.append(session.run())
        bill = isolated[0].boundary_solves
        assert bill > 0
        assert all(r.boundary_solves == bill for r in isolated)
        with sync_service() as svc:
            jobs = [
                svc.submit(w, tenant=f"tenant-{i}")
                for i, w in enumerate(workloads[:3])
            ]
            svc.drain()
            jobs.append(svc.submit(workloads[3], tenant="tenant-3"))
            svc.drain()
            s = svc.stats()
        assert s["groups"] == 1 and s["jobs"] == {"DONE": 4}
        assert s["boundary_solves"] == bill
        first, *later = sorted(jobs, key=lambda j: j.metrics["exec_order"])
        assert first.metrics["boundary_solves"] == bill
        for job in later:
            assert job.metrics["boundary_solves"] == 0
            assert job.metrics["boundary_hits"] > 0
        for job, ref in zip(jobs, isolated):
            assert np.abs(
                job.result.currents_left - ref.currents_left
            ).max() <= 1e-10

    def test_priority_inversion_avoided(self):
        with sync_service() as svc:
            low = svc.submit(small_workload(bias=0.1), priority=0)
            high = svc.submit(small_workload(bias=0.3), priority=10)
            svc.drain()
            assert high.metrics["exec_order"] < low.metrics["exec_order"]

    def test_deadline_breaks_priority_ties(self):
        with sync_service() as svc:
            late = svc.submit(small_workload(bias=0.1), priority=1)
            soon = svc.submit(
                small_workload(bias=0.3), priority=1, deadline_s=0.5
            )
            svc.drain()
            assert soon.metrics["exec_order"] < late.metrics["exec_order"]

    @pytest.mark.parametrize("mode", SERVICE_MODES)
    def test_corrupt_cache_entry_reruns_job(self, tmp_path, mode):
        w = small_workload(bias=0.1)
        torn = tmp_path / f"{w.cache_key()}.json"
        torn.write_text('{"workload": {"na')  # a crash mid-write
        cache = ResultCache(max_entries=8, directory=tmp_path)
        with SchedulerService(mode=mode, cache=cache) as svc:
            job = svc.submit(w)
            other = svc.submit(small_workload(bias=0.3))
            svc.wait(job, timeout=60)
            svc.wait(other, timeout=60)
            assert job.state == other.state == "DONE"
            assert job.metrics["cache"] == "miss"
        restored = SweepResult.from_dict(json.loads(torn.read_text()))
        assert restored.currents_left[0] == job.result.currents_left[0]

    @pytest.mark.parametrize("mode", SERVICE_MODES)
    def test_failing_batch_fails_its_jobs_and_keeps_serving(
        self, monkeypatch, mode
    ):
        real_get = ResultCache.get
        calls = []

        def flaky_get(cache, key):
            calls.append(key)
            if len(calls) == 1:
                raise RuntimeError("injected cache fault")
            return real_get(cache, key)

        monkeypatch.setattr(ResultCache, "get", flaky_get)
        with SchedulerService(mode=mode, cache=ResultCache()) as svc:
            doomed = [svc.submit(small_workload(bias=b)) for b in (0.1, 0.3)]
            with pytest.raises(SchedulerError, match="injected cache fault"):
                svc.wait(doomed[0], timeout=60)
            # in thread mode the worker may have taken it as its own batch
            try:
                svc.wait(doomed[1], timeout=60)
            except SchedulerError as exc:
                assert "injected cache fault" in str(exc)
            assert all(j.terminal for j in svc.jobs())
            later = svc.submit(small_workload(bias=0.5))
            assert len(svc.wait(later, timeout=60).runs) == 1
            assert later.state == "DONE"

    def test_invalid_workload_fails_job_not_batch(self):
        bad = small_workload(grid=GridSpec(NE=8, Nkz=2, Nqz=3, Nw=2))
        good = small_workload()
        with sync_service() as svc:
            jbad, jgood = svc.submit(bad), svc.submit(good)
            svc.drain()
            assert jbad.state == "FAILED" and "planning failed" in jbad.error
            assert jgood.state == "DONE"

    def test_service_metadata_serializes_with_result(self):
        w = small_workload()
        with sync_service() as svc:
            sweep = svc.wait(svc.submit(w, tenant="alice", priority=2))
        restored = SweepResult.from_dict(json.loads(sweep.to_json()))
        assert restored.service["tenant"] == "alice"
        assert restored.service["priority"] == 2
        assert restored.service["flops_priced"] > 0
        assert restored.reuse == sweep.reuse
        assert restored.boundary_solves == sweep.boundary_solves

    def test_stats_aggregate(self):
        with sync_service() as svc:
            svc.submit(small_workload(bias=0.1))
            svc.submit(small_workload(bias=0.1))  # duplicate
            svc.drain()
            s = svc.stats()
            assert s["jobs"] == {"DONE": 1, "CACHED": 1}
            assert s["flops_executed"] < s["flops_priced"]
            assert s["cache"]["hits"] == 1
            assert s["groups"] == 1
            assert s["mean_queue_latency_s"] is not None

    def test_stats_json_roundtrip(self):
        """The whole stats dict survives json end-to-end (ISSUE 10): no
        numpy scalars, tuples, or other non-serializable leaves."""
        with sync_service() as svc:
            svc.submit(small_workload(bias=0.1), tenant="alice")
            svc.submit(small_workload(bias=0.1), tenant="bob")  # cached
            svc.drain()
            s = svc.stats()
        restored = json.loads(json.dumps(s))
        assert restored == s

    def test_stats_queue_latency_percentiles(self):
        with sync_service() as svc:
            for bias in (0.1, 0.2, 0.3):
                svc.submit(small_workload(bias=bias))
            svc.drain()
            lat = svc.stats()["queue_latency_s"]
        assert lat["count"] == 3 and lat["window"] == 3
        assert 0.0 <= lat["p50"] <= lat["p95"] <= lat["max"]
        assert lat["mean"] >= 0.0

    def test_stats_latency_reservoir_bounded(self):
        from repro.service.scheduler import LATENCY_RESERVOIR

        with sync_service() as svc:
            for _ in range(LATENCY_RESERVOIR + 5):
                svc._record_latency(0.001)
            lat = svc._latency_stats()
        assert lat["count"] == LATENCY_RESERVOIR + 5
        assert lat["window"] == LATENCY_RESERVOIR

    def test_stats_tenant_counters(self):
        with sync_service() as svc:
            svc.submit(small_workload(bias=0.1), tenant="alice")
            svc.submit(small_workload(bias=0.1), tenant="bob")  # cache hit
            svc.submit(small_workload(bias=0.3), tenant="bob")
            svc.drain()
            tenants = svc.stats()["tenants"]
        assert tenants["alice"]["done"] == 1
        assert tenants["bob"]["jobs"] == 2 and tenants["bob"]["cached"] == 1

    def test_service_health_on_live_service(self):
        from repro.observe import service_health

        with sync_service() as svc:
            svc.submit(small_workload(bias=0.1), tenant="alice")
            svc.drain()
            report = service_health(service=svc)
        assert report.ok, report.reasons
        assert report.details["tenants"]["alice"]["done"] == 1
        json.loads(json.dumps(report.to_dict()))

    def test_submit_convenience_on_workload(self):
        with sync_service() as svc:
            job = small_workload().submit(svc, tenant="alice", priority=1)
            assert job.tenant == "alice" and job.priority == 1
            assert svc.wait(job) is job.result

    def test_closed_service_rejects_submission(self):
        svc = sync_service()
        svc.close()
        with pytest.raises(SchedulerError, match="closed"):
            svc.submit(small_workload())

    def test_invalid_mode_raises(self):
        with pytest.raises(SchedulerError, match="unknown scheduler mode"):
            SchedulerService(mode="fiber")

    def test_threaded_mode_matches_sync(self):
        w = small_workload(sweeps=(SweepAxis("bias", (0.0, 0.2)),))
        with sync_service() as svc:
            reference = svc.wait(svc.submit(w))
        with SchedulerService(
            mode="thread", cache=ResultCache(max_entries=8)
        ) as svc:
            job = svc.submit(w, tenant="threaded")
            sweep = svc.wait(job, timeout=240)
            assert job.state == "DONE"
        assert np.abs(
            reference.currents_left - sweep.currents_left
        ).max() <= 1e-10


# -- service configuration ----------------------------------------------------


class TestServiceConfig:
    def test_defaults(self):
        with SchedulerService() as svc:
            assert svc.mode == "sync"
            assert svc.cache.max_entries == 128

    def test_modes_registry(self):
        assert SERVICE_MODES == ("sync", "thread")
