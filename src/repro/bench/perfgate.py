"""Throughput performance gate for the FLB kernel.

The array kernel (``docs/performance.md``) exists for one number:
scheduling throughput, in tasks placed per second of wall-clock scheduling
time, measured on the Fig. 2 suite (LU, Laplace, stencil).  This module
measures that number and *gates* on it, so a refactor that quietly gives the
speedup back fails CI instead of shipping:

* :func:`measure_throughput` times the array kernel
  (:func:`repro.core.flb_array.flb_array`) across the suite and,
  optionally, the pre-CSR reference implementation
  (:func:`repro.core.flb._flb_observed` with no observer — the seed
  algorithm, kept verbatim for trace fidelity) for a speedup-vs-seed figure.
* :func:`run_gate` compares the measurement against the baseline stored in
  ``BENCH_sched.json`` at the repo root and fails when current throughput
  drops more than ``tolerance`` (default 20%) below it.  The current
  measurement is always recorded back into the file so the JSON doubles as
  a running log; the baseline only moves on an explicit ``update_baseline``.

``benchmarks/perf_gate.py`` is the command-line wrapper and
``tools/perf_smoke.sh`` runs the whole thing at smoke scale in under a
minute.  The gate logic takes the measurement as an injectable dict so the
threshold arithmetic is tested deterministically (``tests/test_perf_gate.py``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.bench.suite import paper_suite
from repro.core.flb_array import flb_array
from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.schedule.schedule import Schedule

__all__ = [
    "DEFAULT_BASELINE_PATH",
    "GateResult",
    "measure_throughput",
    "run_gate",
    "seed_flb",
]

#: Repo-root location of the stored baseline (next to pyproject.toml).
DEFAULT_BASELINE_PATH = Path(__file__).resolve().parents[3] / "BENCH_sched.json"

#: Drop larger than this fraction below the baseline fails the gate.
DEFAULT_TOLERANCE = 0.20


def seed_flb(graph: TaskGraph, machine: MachineModel) -> Schedule:
    """The pre-CSR FLB implementation (the seed's algorithm).

    ``_flb_observed`` with ``observer=None`` is the original dict-and-
    IndexedHeap loop, preserved verbatim for trace/oracle fidelity; timing it
    gives the honest "before" number for ``speedup_vs_seed``.
    """
    from repro.core.flb import _flb_observed

    return _flb_observed(graph, machine, None, True)


def measure_throughput(
    target_tasks: int = 2000,
    seeds: int = 2,
    procs: Sequence[int] = (2, 8, 32),
    problems: Sequence[str] = ("lu", "laplace", "stencil"),
    repeats: int = 3,
    include_seed: bool = True,
) -> Dict[str, object]:
    """Measure FLB scheduling throughput on the Fig. 2 suite.

    Throughput is total tasks placed over total median scheduling seconds,
    summed across every (instance, P) pair — one aggregate number rather
    than a per-cell table, because the gate needs a single scalar that
    regressions cannot hide from by trading cells against each other.
    """
    from repro.metrics.metrics import time_scheduler

    instances = paper_suite(target_tasks, seeds=seeds, problems=problems)
    total_tasks = 0
    kernel_seconds = 0.0
    seed_seconds = 0.0
    for inst in instances:
        for p in procs:
            machine = MachineModel(p)
            total_tasks += inst.graph.num_tasks
            kernel_seconds += time_scheduler(
                flb_array, inst.graph, machine, repeats=repeats
            )
            if include_seed:
                seed_seconds += time_scheduler(
                    seed_flb, inst.graph, machine, repeats=repeats
                )
    result: Dict[str, object] = {
        "tasks_per_s": round(total_tasks / kernel_seconds, 1),
        "total_tasks": total_tasks,
        "suite": {
            "target_tasks": target_tasks,
            "seeds": seeds,
            "procs": list(procs),
            "problems": list(problems),
            "repeats": repeats,
        },
    }
    if include_seed:
        result["seed_tasks_per_s"] = round(total_tasks / seed_seconds, 1)
        result["speedup_vs_seed"] = round(seed_seconds / kernel_seconds, 2)
    return result


@dataclass(frozen=True)
class GateResult:
    """Outcome of one gate run."""

    ok: bool
    message: str
    current: Dict[str, object]
    baseline: Optional[Dict[str, object]]
    threshold: Optional[float]  # tasks/s floor the measurement had to clear


def run_gate(
    current: Optional[Dict[str, object]] = None,
    baseline_path: Path = DEFAULT_BASELINE_PATH,
    tolerance: float = DEFAULT_TOLERANCE,
    update_baseline: bool = False,
    write: bool = True,
    **measure_kwargs: object,
) -> GateResult:
    """Compare throughput (measured now, or injected via ``current``) against
    the stored baseline.

    * No baseline file yet: the measurement becomes the baseline and the
      gate passes (first run bootstraps the gate).
    * ``update_baseline``: the measurement replaces the baseline.
    * Otherwise: fail iff ``current < baseline * (1 - tolerance)``.

    The file's ``current`` entry is rewritten on every run (unless
    ``write=False``), so the JSON records the latest measurement alongside
    the baseline it was judged against.  Every baseline ever adopted is
    appended to the file's ``history`` list (timestamped, newest last), so
    re-baselining after a speedup keeps the old floor on record instead of
    silently discarding it; ``baseline`` always equals the latest history
    entry minus the timestamp.
    """
    if not 0 <= tolerance < 1:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    if current is None:
        current = measure_throughput(**measure_kwargs)
    baseline_path = Path(baseline_path)
    stored = (
        json.loads(baseline_path.read_text()) if baseline_path.exists() else {}
    )
    baseline = stored.get("baseline")
    history = list(stored.get("history", []))
    rebaseline = baseline is None or update_baseline

    if rebaseline:
        result = GateResult(
            ok=True,
            message=(
                f"baseline {'updated' if baseline is not None else 'recorded'}: "
                f"{current['tasks_per_s']:,.0f} tasks/s"
            ),
            current=current,
            baseline=current,
            threshold=None,
        )
    else:
        floor = baseline["tasks_per_s"] * (1.0 - tolerance)
        ok = current["tasks_per_s"] >= floor
        verdict = "ok" if ok else "REGRESSION"
        result = GateResult(
            ok=ok,
            message=(
                f"{verdict}: {current['tasks_per_s']:,.0f} tasks/s vs baseline "
                f"{baseline['tasks_per_s']:,.0f} (floor {floor:,.0f}, "
                f"tolerance {tolerance:.0%})"
            ),
            current=current,
            baseline=baseline,
            threshold=floor,
        )

    if write:
        timestamp = time.strftime("%Y-%m-%dT%H:%M:%S")
        if not history and baseline is not None:
            # Migrate pre-history files: the standing baseline becomes the
            # first history entry, so a simultaneous re-baseline appends
            # after it instead of discarding it.
            history.append({**dict(baseline), "recorded": timestamp})
        if rebaseline and (not history or dict(result.baseline or {}) != {
            k: v for k, v in history[-1].items() if k != "recorded"
        }):
            history.append({**dict(result.baseline or {}), "recorded": timestamp})
        payload = {
            "benchmark": "flb-scheduling-throughput",
            "unit": "tasks/s",
            "tolerance": tolerance,
            "baseline": result.baseline,
            "history": history,
            "current": current,
            "last_run": {
                "ok": result.ok,
                "message": result.message,
                "timestamp": timestamp,
            },
        }
        baseline_path.write_text(json.dumps(payload, indent=2) + "\n")
    return result
