#!/usr/bin/env python
"""The perf ledger: perfbench's own numbers, recorded and checked.

Run from the repository root::

    PYTHONPATH=src python benchmarks/perf_gate.py --record   # full runs
    PYTHONPATH=src python benchmarks/perf_gate.py            # the check

``--record`` runs every ``BENCHMARK.json`` workload through the
benchmark's command (``perfbench/run.py``) for its ``run_seconds``, once
untraced (``--trace 0``: the end-to-end metrics) and once traced
(``--trace 1``: the per-layer metrics).  It appends each result line, with
its workload, seed, seconds, trace flag and date, to
``benchmarks/ledger.json`` and renders ``benchmarks/ledger.txt`` from that
file alone.

Without a flag, each workload runs for ``CHECK_SECONDS`` untraced, and the
command exits 1 when a run is not correct, failed an operation, lacks an
``end_to_end`` metric, or has one worse than the ledger's newest untraced
value for that workload by more than the metric's ``bound``.  The fresh
records go to standard output, one JSON line each; the verdicts go to
standard error.

Per-layer values are recorded and rendered but not checked: perfbench
scales only its end-to-end figures to the reference host speed, so a raw
per-layer value moves with the host as much as with the code.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from repro.util.tables import format_table

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
LEDGER_JSON = ROOT / "benchmarks" / "ledger.json"
LEDGER_TXT = ROOT / "benchmarks" / "ledger.txt"

#: perfbench's input seed for every recorded and checked run.
SEED = 1
#: Length of each untraced run of the check.  At 3 s, batch-sweep's p90
#: rests on about seven operations, and on unmodified code it read up to
#: 24% over its 30 s record, against a 25% bound.
CHECK_SECONDS = 5

Record = Dict[str, Any]


def run_workload(command: Sequence[str], workload: str, seconds: float,
                 trace: int) -> Record:
    """One perfbench run: its last stdout line, with what it ran."""
    out = subprocess.run(
        [*command, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    return {
        "workload": workload, "seed": SEED, "seconds": seconds, "trace": trace,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "result": json.loads(out.strip().splitlines()[-1]),
    }


def check(ledger: List[Record], fresh: List[Record],
          end_to_end: List[Dict[str, Any]]) -> List[Tuple[bool, str]]:
    """``(ok, verdict)`` per fresh run and per end-to-end metric, against
    the newest untraced ledger record of the run's workload."""
    newest = {rec["workload"]: rec for rec in ledger if rec["trace"] == 0}
    verdicts = []
    for rec in fresh:
        name, result = rec["workload"], rec["result"]
        ok = result["correct"] and result["failed"] == 0
        verdicts.append((ok, f"{name}: correct {result['correct']}, "
                             f"failed {result['failed']} of {result['attempted']}"))
        ref = newest.get(name)
        if ref is None:
            verdicts.append((False, f"{name}: no untraced record in the ledger"))
            continue
        for metric in end_to_end:
            key, bound = metric["name"], metric["bound"]
            value = result["metrics"].get(key, {}).get("value")
            was = ref["result"]["metrics"].get(key, {}).get("value")
            if value is None or was is None:
                verdicts.append((False, f"{name} {key}: missing "
                                        f"(now {value}, ledger {was})"))
                continue
            worse = value / was - 1 if metric["better"] == "lower" else 1 - value / was
            verdicts.append((worse <= bound, (
                f"{name} {key}: {value:.4g} vs {was:.4g} ({ref['date']}), "
                f"{worse:+.1%} worse, bound {bound:.0%}"
            )))
    return verdicts


def render(ledger: List[Record]) -> str:
    """The ledger as text: per workload, its untraced and its traced
    records, oldest first, one row each."""
    blocks = ["perf ledger: perfbench result lines from benchmarks/ledger.json, "
              "oldest first (python benchmarks/perf_gate.py --record)"]
    titles = {
        0: "end to end (--trace 0; ms and s at perfbench's reference host speed)",
        1: "per layer (--trace 1; raw ms per operation on the recording host)",
    }
    for workload in dict.fromkeys(rec["workload"] for rec in ledger):
        for trace, title in titles.items():
            recs = [r for r in ledger if r["workload"] == workload and r["trace"] == trace]
            if not recs:
                continue
            keys = list(dict.fromkeys(k for r in recs for k in r["result"]["metrics"]))
            blocks.append(format_table(
                ["date", "seed", "seconds", "ops", "failed", "correct", *keys],
                [[r["date"], r["seed"], r["seconds"], r["result"]["attempted"],
                  r["result"]["failed"], r["result"]["correct"],
                  *(float(r["result"]["metrics"][k]["value"])
                    if k in r["result"]["metrics"] else "-" for k in keys)]
                 for r in recs],
                title=f"{workload}, {title}",
            ))
    return "\n\n".join(blocks) + "\n"


def write_ledger(ledger: List[Record]) -> None:
    """``ledger.json``, one record per line in perfbench's key order, and
    its rendering, read back from the text just written."""
    text = "[\n" + ",\n".join(json.dumps(rec) for rec in ledger) + "\n]\n"
    LEDGER_JSON.write_text(text)
    LEDGER_TXT.write_text(render(json.loads(text)))


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="append full traced and untraced runs to the ledger")
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK.read_text())
    ledger = json.loads(LEDGER_JSON.read_text()) if LEDGER_JSON.exists() else []
    workloads = [w["name"] for w in benchmark["workloads"]]
    if args.record:
        for workload in workloads:
            for trace in (0, 1):
                ledger.append(run_workload(benchmark["command"], workload,
                                           benchmark["run_seconds"], trace))
                write_ledger(ledger)
        print(f"recorded {2 * len(workloads)} runs in {LEDGER_JSON}")
        return 0
    fresh = [run_workload(benchmark["command"], w, CHECK_SECONDS, 0) for w in workloads]
    for rec in fresh:
        print(json.dumps(rec))
    verdicts = check(ledger, fresh, benchmark["end_to_end"])
    for ok, line in verdicts:
        print(("ok   " if ok else "FAIL ") + line, file=sys.stderr)
    return 0 if all(ok for ok, _ in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
