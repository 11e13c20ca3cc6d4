"""One fresh-subprocess run of one workload: set-up, solve, report.

The parent (``run.py``) starts this file once per repeat so every run
pays what a batch user pays: cold import, cold ``BoundaryCache``, cold
``lru_cache``d kernels.  ``argv[1]`` is a JSON spec, the last stdout line
a JSON result.  ``setup_s`` is counted from the parent's spawn time
(CLOCK_MONOTONIC is system-wide), so interpreter start-up is inside it.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import astuple
from typing import Any, Dict

ROOT_SPAN = "api.session_run"


def _solve(api, workload, compile_kwargs):
    with api.Session(api.compile_workload(workload, **compile_kwargs)) as session:
        return session.run(keep_arrays=False)


def twin_agrees(api, case, seed: int, plan) -> bool:
    """Production configuration == serial/reference oracle at twin dims."""
    from checks import TWIN_TOL, point_record, points_agree
    from workloads import ORACLE_COMPILE, with_sse_variant

    w = case.sized("twin", seed)
    got = _solve(api, w, case.twin_compile_kwargs(plan))
    # the oracle: loop-nest reference SSE, serial engine, reference RGF
    want = _solve(api, with_sse_variant(w, "reference"), ORACLE_COMPILE)
    return points_agree(
        [point_record(r) for r in got.runs],
        [point_record(r) for r in want.runs],
        TWIN_TOL,
    )


def measure(api, case, spec: Dict[str, Any]) -> Dict[str, Any]:
    import probes
    from checks import point_record

    workload = case.sized(spec["size"], spec["seed"])
    kwargs = spec.get("compile")
    if kwargs is None:
        kwargs = dict(case.compile_kwargs)
    traced = spec.get("traced", False)

    with probes.tracing() if traced else nullcontext() as tracer:
        plan = api.compile_workload(workload, **kwargs)
        with api.Session(plan) as session:
            model = session.model
            for gi in range(plan.n_groups):
                session.simulation(gi)
            setup_s = time.monotonic() - spec["spawn_t"]
            t0 = time.perf_counter()
            with tracer.span(ROOT_SPAN) if traced else nullcontext():
                # a traced run keeps the tensors: the residual history and
                # the generated-vs-hand comparison read them afterwards
                sweep = session.run(keep_arrays=traced)
            solve_s = time.perf_counter() - t0
        usage = [
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ]
        p = plan.groups[0].parameters
        out = {
            "setup_s": setup_s,
            "solve_s": solve_s,
            "peak_rss_mb": sum(usage) / 1024.0,  # Linux reports KiB
            "points": [point_record(r) for r in sweep.runs],
            "grid_points": sum(
                (g.parameters.Nkz * g.parameters.NE + g.parameters.Nqz * g.parameters.Nw)
                * sweep.runs[index].iterations
                for g in plan.groups
                for index, _coords, _overrides in g.points
            ),
            "plan": {
                "engine": plan.engine,
                "rgf_kernel": plan.rgf_kernel,
                "runtime": plan.runtime,
                "dims": dict(Nkz=p.Nkz, NE=p.NE, Nqz=p.Nqz, Nw=p.Nw, NA=p.NA,
                             NB=p.NB, Norb=p.Norb, bnum=p.bnum),
            },
        }
        if traced:
            import layers

            out["layers"] = layers.layer_metrics(
                tracer.spans, plan, model, sweep, ROOT_SPAN, spec["machine"]
            )
            out["spans"] = [astuple(s) for s in tracer.spans]
    if spec.get("twin"):
        out["twin_ok"] = twin_agrees(api, case, spec["seed"], plan)
    return out


def main(argv) -> int:
    spec = json.loads(argv[1])
    if spec.get("mode") == "machine":
        import machine

        print(json.dumps(machine.measure()))
        return 0
    import repro.api as api  # the cold import is part of setup_s

    from workloads import CASES

    case = CASES[spec["case"]]
    if spec.get("mode") == "golden":
        from checks import point_record

        # the smoke dims are only ever run at the default seed
        seeds = case.device_seeds if spec["size"] == "full" else case.device_seeds[:1]
        result = {"points": {}}
        for seed, device_seed in enumerate(seeds):
            workload, kwargs = case.golden(spec["size"], seed)
            result["points"][str(device_seed)] = [
                point_record(r) for r in _solve(api, workload, kwargs).runs
            ]
    else:
        result = measure(api, case, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
