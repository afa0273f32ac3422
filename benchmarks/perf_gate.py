#!/usr/bin/env python
"""Command-line throughput gate: measure FLB tasks/s and compare against the
baseline stored in ``BENCH_sched.json``.

Exit status 1 on regression (throughput more than --tolerance below the
baseline), 0 otherwise.  See ``docs/performance.md``.

Examples::

    PYTHONPATH=src python benchmarks/perf_gate.py                  # full gate
    PYTHONPATH=src python benchmarks/perf_gate.py --tasks 300      # smoke
    PYTHONPATH=src python benchmarks/perf_gate.py --update-baseline
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.perfgate import (
    DEFAULT_BASELINE_PATH,
    DEFAULT_TOLERANCE,
    run_gate,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tasks", type=int, default=2000,
                        help="target tasks per instance (paper scale: 2000)")
    parser.add_argument("--seeds", type=int, default=2)
    parser.add_argument("--procs", nargs="+", type=int, default=[2, 8, 32])
    parser.add_argument("--repeats", type=int, default=3)
    def _tolerance(text):
        value = float(text)
        if not 0 <= value < 1:
            raise argparse.ArgumentTypeError(
                f"tolerance must be in [0, 1), got {value}"
            )
        return value

    parser.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE,
                        help="allowed fractional drop below baseline")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE_PATH),
                        help="baseline JSON path")
    parser.add_argument("--update-baseline", action="store_true",
                        help="replace the stored baseline with this run")
    parser.add_argument("--no-write", action="store_true",
                        help="do not touch the baseline file")
    args = parser.parse_args(argv)

    result = run_gate(
        baseline_path=args.baseline,
        tolerance=args.tolerance,
        update_baseline=args.update_baseline,
        write=not args.no_write,
        target_tasks=args.tasks,
        seeds=args.seeds,
        procs=tuple(args.procs),
        repeats=args.repeats,
    )
    print(result.message)
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
