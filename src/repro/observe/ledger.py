"""The benchmark regression ledger over the ``BENCH_*.json`` artifacts.

Every benchmark already writes a machine-stamped JSON record; this module
gives those records a consumer:

* :func:`extract_metrics` distills each record into named scalar metrics
  through the per-file :data:`METRIC_SPECS` (dotted paths with
  ``[key=value]`` list selectors, tolerant of missing paths so FAST- and
  full-shaped records both work), plus derived *model-anchored
  efficiency* metrics — measured seconds joined against the Table-3 flop
  and §4.1 byte counts the records carry (GFLOP/s, effective exchange
  bandwidth);
* :class:`Ledger` persists an append-only history
  (``benchmarks/LEDGER.json``) of such entries, normalized by a
  :func:`machine_fingerprint` of the ``machine_info`` stamp;
* :func:`compare_entries` checks a fresh entry against a committed
  baseline with per-kind tolerances — the CI regression gate.

Metric kinds and gating rules:

========  ========================  =======================================
kind      gated                     regression criterion
========  ========================  =======================================
model     always (same mode)        relative deviation > 1e-9 (exact
                                    model-derived numbers: byte counts,
                                    flop counts, movement reductions)
error     always (same mode)        value above its absolute ceiling
time      same machine + mode only  > 50% slower than baseline
ratio     same machine + mode only  > 40% below baseline (speedups)
info      never                     — (reported only)
========  ========================  =======================================

Cross-machine timing comparisons are recorded but never gated — wall
times on different hosts (or shared CI runners vs a quiet workstation)
are not comparable; the machine-independent model metrics are.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "METRIC_SPECS",
    "MetricCheck",
    "RegressionReport",
    "Ledger",
    "machine_fingerprint",
    "load_bench_records",
    "extract_metrics",
    "make_entry",
    "compare_entries",
]

#: kind → (direction, relative tolerance, gated across machines?)
KINDS: Dict[str, Tuple[str, float, bool]] = {
    "model": ("exact", 1e-9, True),
    "error": ("ceiling", 0.0, True),
    "time": ("lower", 0.50, False),
    "ratio": ("higher", 0.40, False),
    "info": ("none", 0.0, False),
}

#: per-benchmark metric specs: (metric path, kind[, ceiling])
#: paths are dotted keys with ``[k=v,...]`` list selectors
METRIC_SPECS: Dict[str, List[Tuple]] = {
    "engine": [
        ("seconds.seed", "time"),
        ("seconds.batched", "time"),
        ("speedup_vs_seed.batched", "ratio"),
    ],
    "api": [
        ("session.seconds", "time"),
        ("independent.seconds", "time"),
        ("speedup", "ratio"),
        ("session.boundary_solves", "model"),
        ("independent.boundary_solves", "model"),
        ("max_current_deviation", "error", 1e-8),
    ],
    "service": [
        ("scheduler.seconds", "time"),
        ("isolated.seconds", "time"),
        ("speedup", "ratio"),
        ("solve_reduction", "model"),
        ("scheduler.boundary_solves", "model"),
        ("scheduler.boundary_solves_saved", "model"),
        ("max_current_deviation", "error", 1e-8),
    ],
    "recipe": [
        ("movement_reduction", "model"),
        ("stages[name=fig8].flops", "model"),
        ("stages[name=fig8].seconds_numpy_backend", "time"),
    ],
    "codegen": [
        ("total_numpy_seconds", "time"),
        ("total_interpreter_seconds", "time"),
        ("total_speedup", "ratio"),
        ("stages[stage=fig8].flops", "model"),
        ("stages[stage=fig8].tasklets", "model"),
    ],
    "rgf": [
        ("table6_in_solver.seconds.csrmm", "time"),
        ("table6_in_solver.speedup_vs_dense.csrmm", "ratio"),
        ("scba_end_to_end.seconds.csrmm", "time"),
        ("scba_end_to_end.speedup_vs_reference.csrmm", "ratio"),
        ("scba_end_to_end.max_err_vs_reference.csrmm", "error", 1e-8),
    ],
    "runtime": [
        ("strong[schedule=omen,P=2].seconds", "time"),
        ("strong[schedule=dace,P=2].seconds", "time"),
        ("strong[schedule=omen,P=2].total_sse_bytes", "model"),
        ("strong[schedule=dace,P=2].total_sse_bytes", "model"),
        ("strong[schedule=omen,P=2].matched", "model"),
        ("strong[schedule=dace,P=2].matched", "model"),
        ("strong[schedule=omen,P=2].max_dev_vs_serial", "error", 1e-8),
        ("strong[schedule=dace,P=2].max_dev_vs_serial", "error", 1e-8),
    ],
    "autotune": [
        ("hand_reduction", "model"),
        ("strategies.greedy.reduction", "model"),
        ("strategies.greedy.final_bytes", "model"),
        ("strategies.greedy.seconds", "time"),
        ("strategies.greedy.max_verify_error", "error", 1e-8),
    ],
    "telemetry": [
        ("seconds.off", "time"),
        ("spans_overhead", "info"),
        # timing-derived ratio: sub-second FAST runs on shared runners
        # make it a scheduling lottery, so it is reported, never gated
        ("full_overhead", "info"),
        ("smoke.clean", "model"),
        ("off_trace_call_ns", "info"),
    ],
    "observe": [
        ("analysis_seconds", "error", 1.0),
        ("scaling[P=2].imbalance_factor", "info"),
        ("scaling[P=2].headroom_fraction", "info"),
        ("scaling[P=4].imbalance_factor", "info"),
        ("scaling[P=4].headroom_fraction", "info"),
    ],
}

_SELECT = re.compile(r"^(\w+)\[(.+)\]$")


def _resolve(record: Any, path: str) -> Optional[float]:
    """Follow a dotted/selector path; None when any segment is missing."""
    node = record
    for segment in path.split("."):
        if node is None:
            return None
        m = _SELECT.match(segment)
        if m:
            key, selector = m.groups()
            items = node.get(key) if isinstance(node, dict) else None
            if not isinstance(items, list):
                return None
            want = dict(pair.split("=", 1) for pair in selector.split(","))
            node = next(
                (
                    item
                    for item in items
                    if isinstance(item, dict)
                    and all(str(item.get(k)) == v for k, v in want.items())
                ),
                None,
            )
        elif isinstance(node, dict):
            node = node.get(segment)
        else:
            return None
    if isinstance(node, bool):
        return 1.0 if node else 0.0
    if isinstance(node, (int, float)):
        return float(node)
    return None


def _efficiency_metrics(name: str, record: Dict) -> Dict[str, float]:
    """Model-anchored efficiency: measured seconds vs modeled flops/bytes."""
    out: Dict[str, float] = {}
    if name == "codegen":
        flops = sum(
            s.get("flops", 0) for s in record.get("stages", ()) or ()
        )
        seconds = record.get("total_numpy_seconds")
        if flops and seconds:
            out["eff.numpy_gflops"] = flops / seconds / 1e9
    if name == "runtime":
        for row in record.get("strong", ()) or ():
            if row.get("seconds") and row.get("total_sse_bytes"):
                key = f"eff.{row['schedule']}_P{row['P']}_MiB_per_s"
                out[key] = row["total_sse_bytes"] / row["seconds"] / 2**20
    if name == "recipe":
        for stage in record.get("stages", ()) or ():
            if stage.get("name") == "fig8" and stage.get(
                "seconds_numpy_backend"
            ):
                out["eff.fig8_gflops"] = (
                    stage.get("flops", 0)
                    / stage["seconds_numpy_backend"]
                    / 1e9
                )
    return out


def extract_metrics(name: str, record: Dict) -> Dict[str, float]:
    """Distill one ``BENCH_<name>.json`` record into named scalars.

    Paths missing from the record (FAST-shaped runs, older files) are
    simply absent from the result — comparison happens on the
    intersection.  Derived ``eff.*`` efficiency metrics ride along as
    kind ``info``.
    """
    out: Dict[str, float] = {}
    for spec in METRIC_SPECS.get(name, ()):
        value = _resolve(record, spec[0])
        if value is not None:
            out[spec[0]] = value
    out.update(_efficiency_metrics(name, record))
    return out


def metric_kind(name: str, metric: str) -> Tuple[str, Optional[float]]:
    """``(kind, ceiling)`` of one metric (``eff.*`` and unknown → info)."""
    for spec in METRIC_SPECS.get(name, ()):
        if spec[0] == metric:
            return spec[1], (spec[2] if len(spec) > 2 else None)
    return "info", None


# --------------------------------------------------------------------------
# Entries and the append-only ledger
# --------------------------------------------------------------------------
def machine_fingerprint(machine: Optional[Dict]) -> Optional[str]:
    """A short stable hash of the ``machine_info`` stamp (None → None)."""
    if not machine:
        return None
    blob = json.dumps(machine, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def load_bench_records(bench_dir) -> Dict[str, Dict]:
    """All ``BENCH_<name>.json`` files of a directory, keyed by ``name``."""
    records: Dict[str, Dict] = {}
    for path in sorted(Path(bench_dir).glob("BENCH_*.json")):
        name = path.stem[len("BENCH_"):]
        with open(path) as fh:
            records[name] = json.load(fh)
    return records


def make_entry(
    records: Dict[str, Dict],
    fast: bool = False,
    timestamp: Optional[str] = None,
    note: str = "",
) -> Dict[str, Any]:
    """One ledger entry: fingerprinted, mode-tagged, metric-distilled."""
    machine = next(
        (r["machine"] for r in records.values() if isinstance(r, dict)
         and r.get("machine")),
        None,
    )
    return {
        "timestamp": timestamp
        or datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": "fast" if fast else "full",
        "fingerprint": machine_fingerprint(machine),
        "machine": machine,
        "note": note,
        "metrics": {
            name: extract_metrics(name, record)
            for name, record in sorted(records.items())
        },
    }


@dataclass
class Ledger:
    """Append-only history of benchmark entries (``LEDGER.json``)."""

    path: Path
    entries: List[Dict[str, Any]] = field(default_factory=list)

    @classmethod
    def load(cls, path) -> "Ledger":
        path = Path(path)
        entries: List[Dict[str, Any]] = []
        if path.exists():
            with open(path) as fh:
                entries = json.load(fh)["entries"]
        return cls(path=path, entries=entries)

    def append(self, entry: Dict[str, Any]) -> None:
        self.entries.append(entry)

    def save(self) -> None:
        self.path.write_text(
            json.dumps({"entries": self.entries}, indent=2) + "\n"
        )

    def latest(self) -> Optional[Dict[str, Any]]:
        return self.entries[-1] if self.entries else None


# --------------------------------------------------------------------------
# The regression gate
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class MetricCheck:
    """One metric's fresh-vs-baseline verdict."""

    bench: str
    metric: str
    kind: str
    fresh: Optional[float]
    baseline: Optional[float]
    #: ok / improved / regressed / informational / missing / new
    status: str
    note: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "regressed"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bench": self.bench,
            "metric": self.metric,
            "kind": self.kind,
            "fresh": self.fresh,
            "baseline": self.baseline,
            "status": self.status,
            "note": self.note,
        }


@dataclass(frozen=True)
class RegressionReport:
    """All checks of one comparison; ``passed`` gates the CI job."""

    checks: Tuple[MetricCheck, ...]
    comparable: bool
    note: str = ""

    @property
    def passed(self) -> bool:
        return not any(c.failed for c in self.checks)

    @property
    def regressions(self) -> Tuple[MetricCheck, ...]:
        return tuple(c for c in self.checks if c.failed)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "passed": self.passed,
            "comparable": self.comparable,
            "note": self.note,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_markdown(self) -> str:
        lines = ["## Benchmark regression ledger", ""]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"- gate: **{verdict}** "
            f"({len(self.regressions)} regression(s), "
            f"{len(self.checks)} metrics checked)"
        )
        if self.note:
            lines.append(f"- {self.note}")
        lines += ["", "| bench | metric | kind | baseline | fresh | status |",
                  "|---|---|---|---:|---:|---|"]
        order = {"regressed": 0, "improved": 1, "ok": 2}
        for c in sorted(
            self.checks, key=lambda c: (order.get(c.status, 3), c.bench)
        ):
            fmt = lambda v: "—" if v is None else f"{v:.6g}"  # noqa: E731
            flag = "**REGRESSED**" if c.failed else c.status
            lines.append(
                f"| {c.bench} | {c.metric} | {c.kind} "
                f"| {fmt(c.baseline)} | {fmt(c.fresh)} | {flag} |"
            )
        return "\n".join(lines)


def _check(
    bench: str, metric: str, kind: str, ceiling: Optional[float],
    fresh: Optional[float], baseline: Optional[float], gate_timing: bool,
) -> MetricCheck:
    direction, tol, always = KINDS[kind]
    if fresh is None:
        return MetricCheck(bench, metric, kind, fresh, baseline, "missing",
                           "metric absent from fresh records")
    if baseline is None:
        return MetricCheck(bench, metric, kind, fresh, baseline, "new",
                           "metric absent from baseline")
    gated = always or gate_timing
    if not gated or direction == "none":
        return MetricCheck(bench, metric, kind, fresh, baseline,
                           "informational", "not gated on this machine")
    if direction == "ceiling":
        limit = ceiling if ceiling is not None else abs(baseline) * 10
        if fresh > limit:
            return MetricCheck(
                bench, metric, kind, fresh, baseline, "regressed",
                f"{fresh:.3g} exceeds ceiling {limit:.3g}",
            )
        return MetricCheck(bench, metric, kind, fresh, baseline, "ok")
    if direction == "exact":
        scale = max(abs(baseline), 1.0)
        if abs(fresh - baseline) / scale > tol:
            return MetricCheck(
                bench, metric, kind, fresh, baseline, "regressed",
                "model-derived value changed",
            )
        return MetricCheck(bench, metric, kind, fresh, baseline, "ok")
    if direction == "lower":  # timing
        if fresh > baseline * (1 + tol):
            return MetricCheck(
                bench, metric, kind, fresh, baseline, "regressed",
                f"{fresh / baseline:.2f}x slower than baseline",
            )
        status = "improved" if fresh < baseline * (1 - tol) else "ok"
        return MetricCheck(bench, metric, kind, fresh, baseline, status)
    # direction == "higher": speedups and reductions
    if fresh < baseline * (1 - tol):
        return MetricCheck(
            bench, metric, kind, fresh, baseline, "regressed",
            f"dropped to {fresh / baseline:.2f}x of baseline",
        )
    status = "improved" if fresh > baseline * (1 + tol) else "ok"
    return MetricCheck(bench, metric, kind, fresh, baseline, status)


def compare_entries(
    fresh: Dict[str, Any], baseline: Dict[str, Any]
) -> RegressionReport:
    """Gate a fresh entry against a baseline entry.

    Mode mismatch (fast vs full workload shapes) makes the whole
    comparison informational; fingerprint mismatch demotes timing/ratio
    metrics to informational while the machine-independent model and
    error metrics stay gated.
    """
    same_mode = fresh.get("mode") == baseline.get("mode")
    same_machine = (
        fresh.get("fingerprint") is not None
        and fresh.get("fingerprint") == baseline.get("fingerprint")
    )
    if not same_mode:
        return RegressionReport(
            checks=(),
            comparable=False,
            note=(
                f"entries not comparable: fresh mode="
                f"{fresh.get('mode')!r} vs baseline mode="
                f"{baseline.get('mode')!r}"
            ),
        )
    checks: List[MetricCheck] = []
    benches = sorted(
        set(fresh.get("metrics", {})) | set(baseline.get("metrics", {}))
    )
    for bench in benches:
        f_metrics = fresh.get("metrics", {}).get(bench, {})
        b_metrics = baseline.get("metrics", {}).get(bench, {})
        for metric in sorted(set(f_metrics) | set(b_metrics)):
            kind, ceiling = metric_kind(bench, metric)
            checks.append(
                _check(
                    bench, metric, kind, ceiling,
                    f_metrics.get(metric), b_metrics.get(metric),
                    gate_timing=same_machine,
                )
            )
    note = "" if same_machine else (
        "different machine fingerprints: timing/ratio metrics reported "
        "but not gated"
    )
    return RegressionReport(
        checks=tuple(checks), comparable=True, note=note
    )
