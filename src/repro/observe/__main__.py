"""``python -m repro.observe`` — render telemetry into markdown reports.

``trace FILE.trace.json`` is the one subcommand: timeline analysis of a
saved trace (phase breakdown, imbalance, idle fractions, overlap
headroom), printed as markdown (``--json`` for the raw dict); ``--out``
also writes it to a file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .timeline import analyze_trace_file


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

    args = parser.parse_args(argv)
    analysis = analyze_trace_file(args.trace, run=args.run)
    if args.json:
        report = json.dumps(analysis.to_dict(), indent=2)
    else:
        report = analysis.to_markdown()
    print(report)
    if args.out:
        Path(args.out).write_text(report + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
