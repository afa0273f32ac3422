"""Schedule-quality and cost metrics used by the paper's evaluation.

* **speedup** (Fig. 3): sequential time (sum of computation costs) over the
  schedule length;
* **NSL** — normalized schedule length (Fig. 4): the schedule length of an
  algorithm divided by MCP's schedule length on the same instance;
* **efficiency**, **utilisation**, **load imbalance**, and communication
  statistics for deeper analysis;
* :func:`time_scheduler` — wall-clock cost measurement (Fig. 2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.schedule.schedule import Schedule

__all__ = [
    "speedup",
    "efficiency",
    "normalized_schedule_length",
    "utilization",
    "load_imbalance",
    "comm_stats",
    "CommStats",
    "summarize",
    "time_scheduler",
]


def speedup(schedule: Schedule) -> float:
    """Sequential execution time over parallel schedule length (Fig. 3).

    Raises :class:`ValueError` for a degenerate schedule with non-positive
    makespan (empty graph or all-zero computation costs): speedup is
    undefined there, and a bare ``ZeroDivisionError`` would not say which
    schedule was at fault.
    """
    span = schedule.makespan
    if span <= 0:
        raise ValueError(
            f"speedup undefined: schedule of {schedule.graph.num_tasks} task(s) "
            f"on {schedule.num_procs} processor(s) has non-positive makespan "
            f"{span!r}"
        )
    return schedule.graph.total_comp() / span


def efficiency(schedule: Schedule) -> float:
    """Speedup per processor, in ``(0, 1]`` for valid schedules.

    Like :func:`speedup`, raises :class:`ValueError` on a zero-makespan
    (degenerate) schedule.
    """
    return speedup(schedule) / schedule.num_procs


def normalized_schedule_length(schedule: Schedule, reference_makespan: float) -> float:
    """NSL: this schedule's length relative to a reference (MCP in Fig. 4).

    Values below 1 beat the reference, above 1 lose to it.
    """
    if reference_makespan <= 0:
        raise ValueError(f"reference makespan must be positive, got {reference_makespan}")
    return schedule.makespan / reference_makespan


def utilization(schedule: Schedule) -> List[float]:
    """Per-processor busy fraction of the makespan."""
    span = schedule.makespan
    if span <= 0:
        return [0.0] * schedule.num_procs
    return [
        sum(
            schedule.finish_of(t) - schedule.start_of(t)
            for t in schedule.proc_tasks(p)
        )
        / span
        for p in schedule.machine.procs
    ]


def load_imbalance(schedule: Schedule) -> float:
    """Max over mean per-processor busy time (1.0 = perfectly balanced).

    Returns ``inf`` for a degenerate schedule whose total busy time is zero
    (nothing placed, or every placed task has zero cost): with no work to
    balance, imbalance is undefined and reported as infinite rather than
    masquerading as a perfect ``0.0``.
    """
    busy = [
        sum(
            schedule.finish_of(t) - schedule.start_of(t)
            for t in schedule.proc_tasks(p)
        )
        for p in schedule.machine.procs
    ]
    mean = sum(busy) / len(busy)
    if mean <= 0:
        return float("inf")
    return max(busy) / mean


@dataclass(frozen=True)
class CommStats:
    """Cross-processor communication statistics for a schedule."""

    total_messages: int  # all edges
    remote_messages: int  # edges crossing processors
    remote_volume: float  # sum of crossing edges' costs
    local_volume: float  # sum of zeroed (same-processor) edges' costs

    @property
    def remote_fraction(self) -> float:
        return self.remote_messages / self.total_messages if self.total_messages else 0.0


def comm_stats(schedule: Schedule) -> CommStats:
    """Count messages and volume that actually cross processors."""
    graph = schedule.graph
    remote = 0
    remote_volume = 0.0
    local_volume = 0.0
    total = 0
    for src, dst, comm in graph.edges():
        total += 1
        if schedule.proc_of(src) != schedule.proc_of(dst):
            remote += 1
            remote_volume += comm
        else:
            local_volume += comm
    return CommStats(
        total_messages=total,
        remote_messages=remote,
        remote_volume=remote_volume,
        local_volume=local_volume,
    )


def summarize(schedule: Schedule) -> Dict[str, float]:
    """One-line metric summary of a complete schedule."""
    stats = comm_stats(schedule)
    return {
        "makespan": schedule.makespan,
        "speedup": speedup(schedule),
        "efficiency": efficiency(schedule),
        "load_imbalance": load_imbalance(schedule),
        "procs_used": float(schedule.num_procs_used()),
        "remote_messages": float(stats.remote_messages),
        "remote_volume": stats.remote_volume,
    }


def time_scheduler(
    scheduler: Callable[..., Schedule],
    graph: TaskGraph,
    machine: MachineModel,
    repeats: int = 3,
    **kwargs: object,
) -> float:
    """Median wall-clock running time of ``scheduler`` in seconds (Fig. 2).

    The graph is frozen, and scheduled once untimed, before the timed runs.
    That first call memoizes the graph's bottom levels (and, for FLB, its
    per-machine edge delays), so the timings — Fig. 2 and the
    ``BENCH_sched.json`` throughput — exclude priority computation, which
    the paper's ``O(V (log W + log P) + E)`` cost model includes.  What it
    adds is bounded separately: FLB on a fresh graph costs at most 1.3x a
    memoized run (the cold-graph ``perfgate`` in
    ``tests/test_properties.py``; see EXPERIMENTS.md, Fig. 2).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    graph.freeze()
    scheduler(graph, machine=machine, **kwargs)  # warm-up, untimed
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        scheduler(graph, machine=machine, **kwargs)
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[len(samples) // 2]
