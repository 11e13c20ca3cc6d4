"""``python -m repro.observe`` — render telemetry into markdown reports.

Subcommands:

* ``trace FILE.trace.json`` — timeline analysis of a saved trace
  (phase breakdown, imbalance, idle fractions, overlap headroom);
* ``health STATS.json`` — the ok/degraded service verdict from a
  serialized ``SchedulerService.stats()`` dump.

Every subcommand prints markdown; ``--out`` also writes it to a file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .health import service_health
from .timeline import analyze_trace_file


def _emit(markdown: str, out: str | None) -> None:
    print(markdown)
    if out:
        Path(out).write_text(markdown + "\n")


def _cmd_trace(args) -> int:
    analysis = analyze_trace_file(args.trace, run=args.run)
    if args.json:
        _emit(json.dumps(analysis.to_dict(), indent=2), args.out)
    else:
        _emit(analysis.to_markdown(), args.out)
    return 0


def _cmd_health(args) -> int:
    with open(args.stats) as fh:
        stats = json.load(fh)
    report = service_health(stats=stats)
    _emit(report.to_markdown(), args.out)
    if args.gate and not report.ok:
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observe",
        description="performance-observatory reports over recorded telemetry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="timeline analysis of a .trace.json")
    p.add_argument("trace", help="trace file (save_trace format)")
    p.add_argument("--run", type=int, default=-1,
                   help="which runtime.run window (default: last)")
    p.add_argument("--json", action="store_true",
                   help="emit the raw analysis dict instead of markdown")
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("health", help="service verdict from a stats dump")
    p.add_argument("stats", help="JSON dump of SchedulerService.stats()")
    p.add_argument("--gate", action="store_true",
                   help="exit non-zero when degraded")
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(fn=_cmd_health)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
