"""End-to-end benchmark harness: Workload -> Plan -> Session, measured.

Contract mode (the command recorded in ``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload scba_sse --seed 7 --seconds 15 --trace 0

runs fresh child processes of one workload, one at a time, until
``--seconds`` have passed, checks every output and prints one JSON object
as the last line.  The harness's own modes::

    python3 benchmarks/e2e/run.py all [--repeats 5] [--trace 1] [--out A.json]
    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py golden

See ``README.md`` for the metrics, the workloads and the measurement rules.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _p in (str(ROOT / "src"), str(HERE)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from checks import GOLDEN_TOL, point_agrees  # noqa: E402
from machine import THREAD_PINS  # noqa: E402
from workloads import CASES, DEFAULT_SEED, Case  # noqa: E402

GOLDEN_PATH = HERE / "golden.json"
#: a time-limited run still makes this many repeats (quartiles need them)
MIN_REPEATS = 3
#: traced children per workload; per-layer numbers are their medians
TRACED_REPEATS = 3
#: one child may not hang the run: the contract allows 180 s per command
CHILD_TIMEOUT_S = 120.0

#: Reported by the harness beside ``BENCHMARK.json``'s end-to-end metrics.
#: They cannot be contract metrics there: a contract metric may never read
#: 0 (``failed_frac`` always should) and must hold still across ``--seed``
#: values (``iterations`` is a property of the seeded device).
EXTRA_END_TO_END = (
    {"name": "iterations", "unit": "count", "better": "lower", "bound": 0.0},
    {"name": "failed_frac", "unit": "1", "better": "lower", "bound": 0.0},
)


def spec_of_benchmark() -> Dict[str, Any]:
    """``BENCHMARK.json``: the registry of metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end_specs() -> List[Dict[str, Any]]:
    return list(spec_of_benchmark()["end_to_end"]) + list(EXTRA_END_TO_END)


# -- child processes ----------------------------------------------------------------

def child_env(smoke: bool) -> Dict[str, str]:
    """1 BLAS thread, telemetry off, every other ``REPRO_*`` knob unset."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(THREAD_PINS)
    env["REPRO_TELEMETRY"] = "off"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    if smoke:
        # schema check only: one search move instead of ~8 s of search
        env["REPRO_AUTOTUNE_MAX_MOVES"] = "1"
    return env


def run_child(spec: Dict[str, Any], env: Dict[str, str]) -> Optional[Dict[str, Any]]:
    """One fresh interpreter; None when it failed (its stderr is passed on)."""
    spec = {**spec, "spawn_t": time.monotonic()}
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # rank processes included
        out, err = proc.communicate()
        err += f"\nchild timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        sys.stderr.write(err)
        return None
    return json.loads(out.splitlines()[-1])


# -- one workload ----------------------------------------------------------------------

def golden_points(case: Case, size: str, seed: int) -> List[Dict[str, Any]]:
    """The expected points of the device ``seed`` draws (``golden.json``
    holds every device seed ``--seed`` can draw)."""
    golden = json.loads(GOLDEN_PATH.read_text())
    return golden[size][case.name][str(case.device_seed(seed))]


def failed_points(
    n_points: int, golden: List[Dict[str, Any]], child: Optional[Dict[str, Any]],
    twin_ok: bool,
) -> int:
    """Points that raised, did not converge, or deviate from ``golden``; a
    failed twin fails every point."""
    if child is None or not twin_ok:
        return n_points
    return sum(
        not (point["converged"] and point_agrees(point, want, GOLDEN_TOL))
        for point, want in zip(child["points"], golden)
    )


def run_workload(
    case: Case,
    size: str,
    seed: int,
    *,
    repeats: Optional[int] = None,
    seconds: Optional[float] = None,
    peaks: Optional[Dict[str, float]] = None,
) -> Dict[str, Any]:
    """Closed loop, one fresh child at a time: ``repeats`` runs, or as many
    as fit in ``seconds`` (at least ``MIN_REPEATS``).

    Given the machine ``peaks``, each of the first ``TRACED_REPEATS`` runs is
    followed by a traced child: interleaved, so that the traced and the
    untraced runs see the same drift of the host's speed.
    """
    env = child_env(smoke=size == "smoke")
    base = {"case": case.name, "size": size, "seed": seed}
    deadline = time.monotonic() + (seconds or 0.0)
    children: List[Optional[Dict[str, Any]]] = []
    traced: List[Optional[Dict[str, Any]]] = []

    def wanted() -> bool:
        if repeats is not None:
            return len(children) < repeats
        return len(children) < MIN_REPEATS or time.monotonic() < deadline

    while wanted():
        # the first child also solves the reduced-dims twin, after its own
        # measurement is taken
        children.append(run_child({**base, "twin": not children}, env))
        if peaks is not None and len(traced) < TRACED_REPEATS:
            traced.append(run_child({**base, "traced": True, "machine": peaks}, env))

    twin_ok = bool(children[0] and children[0]["twin_ok"])
    n_points = case.workload.n_points
    golden = golden_points(case, size, seed)
    failed = [failed_points(n_points, golden, c, twin_ok) for c in children]
    good = [c for c in children if c is not None]
    samples = {
        "solve_s": [c["solve_s"] for c in good],
        "setup_s": [c["setup_s"] for c in good],
        "peak_rss_mb": [c["peak_rss_mb"] for c in good],
        "grid_points_per_s": [c["grid_points"] / c["solve_s"] for c in good],
        "iterations": [sum(p["iterations"] for p in c["points"]) for c in good],
        "failed_frac": [f / n_points for f in failed],
    }
    result: Dict[str, Any] = {
        "workload": case.name, "why": case.why, "size": size, "seed": seed,
        "n": len(children), "attempted": n_points * len(children),
        "failed": sum(failed), "twin_ok": twin_ok,
        "plan": good[0]["plan"] if good else None,
        "samples": samples,
    }
    if traced and good:
        if None in traced:
            raise RuntimeError(f"traced run of {case.name} failed")
        untraced_solve_s = statistics.median(samples["solve_s"])
        result["per_layer"] = per_layer(case, base, env, traced, untraced_solve_s)
        result["spans"] = traced[0]["spans"]
    return result


def machine_peaks(smoke: bool) -> Dict[str, float]:
    """zgemm/triad peaks, measured once per harness invocation in a child
    under the same thread pins as the program."""
    peaks = run_child({"mode": "machine"}, child_env(smoke))
    if peaks is None:
        raise RuntimeError("machine peak measurement failed")
    return peaks


def per_layer(
    case: Case, base: Dict[str, Any], env: Dict[str, str],
    traced: List[Dict[str, Any]], untraced_solve_s: float,
) -> Dict[str, float]:
    """Each per-layer number as the median over the traced children, plus
    the numbers that compare whole runs (tracing overhead; for the
    distributed workload one serial and one pipe run)."""
    layers = {
        name: statistics.median(c["layers"][name] for c in traced)
        for name in traced[0]["layers"]
    }
    layers["trace.overhead_frac"] = (
        statistics.median(c["solve_s"] for c in traced) / untraced_solve_s - 1.0
    )
    if case.compile_kwargs.get("runtime", "serial") != "serial":

        def solve_s_with(**compile_kwargs) -> float:
            other = run_child({**base, "compile": compile_kwargs}, env)
            if other is None:
                raise RuntimeError(f"{compile_kwargs} run of {case.name} failed")
            return other["solve_s"]

        # base: the serial Born loop on the same workload
        layers["runtime.overhead_ratio"] = untraced_solve_s / solve_s_with(
            runtime="serial"
        )
        # base: the in-process sim transport (informational: 2 forked ranks)
        layers["runtime.pipe2_ratio"] = (
            solve_s_with(runtime="pipe", ranks=2, schedule="dace") / untraced_solve_s
        )
    return layers


# -- statistics and reports -----------------------------------------------------------

def summary(values: Sequence[float]) -> Dict[str, Any]:
    """median + min/max + quartiles + n (no percentile below 11 samples)."""
    q1, _, q3 = (
        statistics.quantiles(values, n=4, method="inclusive")
        if len(values) > 1
        else [values[0]] * 3
    )
    return {
        "median": statistics.median(values), "min": min(values), "max": max(values),
        "q1": q1, "q3": q3, "n": len(values), "values": list(values),
    }


def summarize_workload(result: Dict[str, Any]) -> Dict[str, Any]:
    """The stored form of one workload: samples replaced by their summaries."""
    out = {k: v for k, v in result.items() if k != "samples"}
    out["end_to_end"] = {
        spec["name"]: {"unit": spec["unit"], **summary(result["samples"][spec["name"]])}
        for spec in end_to_end_specs()
        if result["samples"][spec["name"]]
    }
    return out


def print_workload(stored: Dict[str, Any], units: Dict[str, str]) -> None:
    print(f"== {stored['workload']} ({stored['size']}, seed {stored['seed']}, "
          f"n={stored['n']}): {stored['why']}")
    for name, s in stored["end_to_end"].items():
        print(f"  {name:28s} {s['median']:14.6g} {s['unit']:8s} "
              f"min {s['min']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
              f"max {s['max']:.6g} n={s['n']}")
    for name, value in sorted((stored.get("per_layer") or {}).items()):
        print(f"  {name:28s} {value:14.6g} {units[name]}")


def harness_block() -> Dict[str, Any]:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "thread_pins": dict(THREAD_PINS),
        "telemetry": "off",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
    }


# -- modes ------------------------------------------------------------------------------

def mode_contract(args) -> int:
    case = CASES[args.workload]
    bench = spec_of_benchmark()
    result = run_workload(
        case, "smoke" if args.smoke else "full", args.seed, seconds=args.seconds,
        peaks=machine_peaks(args.smoke) if args.trace else None,
    )
    stored = summarize_workload(result)
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    print_workload(stored, units)
    if args.trace:
        # every per-layer name is reported; one that does not apply to this
        # workload (runtime.* on a serial run) reads 0 here and is absent
        # from the harness's own report
        layers = stored.get("per_layer") or {}
        metrics = {
            m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
            for m in bench["per_layer"]
        }
    else:
        if not stored["end_to_end"].get("solve_s"):
            print("no run of the workload completed", file=sys.stderr)
            return 1
        metrics = {
            m["name"]: {"value": stored["end_to_end"][m["name"]]["median"], "unit": m["unit"]}
            for m in bench["end_to_end"]
        }
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def mode_all(args) -> int:
    bench = spec_of_benchmark()
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    size = "smoke" if args.smoke else "full"
    names = args.workloads or list(CASES)
    peaks = machine_peaks(args.smoke) if args.trace else None
    stored = {"harness": {**harness_block(), "peaks": peaks}, "size": size, "workloads": {}}
    print(f"harness: {json.dumps(stored['harness'])}")
    for name in names:
        result = run_workload(
            CASES[name], size, args.seed, repeats=args.repeats, peaks=peaks
        )
        stored["workloads"][name] = summarize_workload(result)
        print_workload(stored["workloads"][name], units)
    if args.out:
        Path(args.out).write_text(json.dumps(stored, indent=1) + "\n")
    return 1 if any(w["failed"] for w in stored["workloads"].values()) else 0


def compare_row(spec: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """One (workload, metric) verdict of B against A (A is the base)."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    base = abs(a["median"])
    worse_by = sign * (b["median"] - a["median"]) / base if base else (
        0.0 if b["median"] == a["median"] else float("inf")
    )

    def spread(s):
        return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0

    interleave = a["min"] <= b["max"] and b["min"] <= a["max"]
    noisy = max(spread(a), spread(b)) > spec["bound"]
    if noisy and interleave and spec["bound"] > 0:
        verdict = "unresolved"
    else:
        verdict = "worse" if worse_by > spec["bound"] else "ok"
    return {
        "metric": spec["name"], "a": a["median"], "b": b["median"],
        "ratio": b["median"] / a["median"] if a["median"] else float("nan"),
        "bound": spec["bound"], "spread": max(spread(a), spread(b)),
        "verdict": verdict,
    }


def mode_compare(args) -> int:
    a = json.loads(Path(args.a).read_text())["workloads"]
    b = json.loads(Path(args.b).read_text())["workloads"]
    print(f"{'workload':10s} {'metric':18s} {'A median':>13s} {'B median':>13s} "
          f"{'B/A':>8s} {'bound':>6s} {'spread':>7s}  verdict   (base: A = {args.a})")
    worse = 0
    for name in a:
        if name not in b:
            continue
        for spec in end_to_end_specs():
            sa, sb = a[name]["end_to_end"].get(spec["name"]), b[name]["end_to_end"].get(spec["name"])
            if sa is None or sb is None:
                continue
            row = compare_row(spec, sa, sb)
            worse += row["verdict"] == "worse"
            print(f"{name:10s} {row['metric']:18s} {row['a']:13.6g} {row['b']:13.6g} "
                  f"{row['ratio']:8.4f} {row['bound']:6.2f} {row['spread']:7.4f}  "
                  f"{row['verdict']}")
    return 1 if worse else 0


def mode_golden(args) -> int:
    """Regenerate ``golden.json`` for every device seed of every workload,
    through the independent path of the workload where one exists."""
    golden: Dict[str, Dict[str, Any]] = {}
    for size in ("full", "smoke"):
        env = child_env(smoke=size == "smoke")
        for name in CASES:
            child = run_child({"case": name, "size": size, "mode": "golden"}, env)
            if child is None:
                return 1
            golden.setdefault(size, {})[name] = child["points"]
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.set_defaults(func=mode_contract)
    parser.add_argument("--workload", choices=list(CASES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="<1 s dims (schema checks)")
    sub = parser.add_subparsers()
    p_all = sub.add_parser("all", help="every workload, every metric")
    p_all.add_argument("--repeats", type=int, default=5)
    p_all.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_all.add_argument("--trace", type=int, choices=(0, 1), default=1)
    p_all.add_argument("--smoke", action="store_true")
    p_all.add_argument("--workloads", nargs="*", choices=list(CASES))
    p_all.add_argument("--out", help="write the results JSON here")
    p_all.set_defaults(func=mode_all)
    p_cmp = sub.add_parser("compare", help="two result files, one row per pair")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    p_cmp.set_defaults(func=mode_compare)
    p_gold = sub.add_parser("golden", help="regenerate golden.json")
    p_gold.set_defaults(func=mode_golden)
    args = parser.parse_args(argv)
    if args.func is mode_contract and args.workload is None:
        parser.error("--workload is required (or use: all | compare | golden)")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
