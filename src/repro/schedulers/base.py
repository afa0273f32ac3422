"""Shared machinery for the baseline schedulers.

Everything here implements the common vocabulary of Section 2 of the paper:
estimated start times on partial schedules and ready-set tracking.  The
baselines deliberately do *not* reuse FLB's priority-list machinery — each
is implemented the way its own paper describes it, so cost comparisons
between the algorithms remain meaningful.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.graph.taskgraph import TaskGraph
from repro.schedule.schedule import Schedule

__all__ = [
    "emt_on",
    "est_on",
    "best_proc_for",
    "ReadyTracker",
]


def emt_on(schedule: Schedule, task: int, proc: int) -> float:
    """``EMT(task, proc)``: latest message arrival if ``task`` ran on ``proc``
    (messages from predecessors already on ``proc`` are free).

    All predecessors must already be scheduled.  ``O(in_degree)``.
    """
    graph = schedule.graph
    machine = schedule.machine
    emt = 0.0
    for pred in graph.preds(task):
        arrival = schedule.finish_of(pred) + machine.comm_delay(
            schedule.proc_of(pred), proc, graph.comm(pred, task)
        )
        if arrival > emt:
            emt = arrival
    return emt


def est_on(schedule: Schedule, task: int, proc: int) -> float:
    """``EST(task, proc) = max(EMT(task, proc), PRT(proc))``."""
    return max(emt_on(schedule, task, proc), schedule.prt(proc))


def best_proc_for(schedule: Schedule, task: int) -> Tuple[int, float]:
    """Scan all processors for the minimum-``EST`` placement of ``task``.

    Returns ``(proc, est)``; ties go to the lower processor id.  This is the
    ``O(P * in_degree)`` inner step of MCP/ETF-style algorithms.
    """
    best_proc = 0
    best_est = float("inf")
    for proc in schedule.machine.procs:
        est = est_on(schedule, task, proc)
        if est < best_est:
            best_est = est
            best_proc = proc
    return best_proc, best_est


class ReadyTracker:
    """Incremental ready-set maintenance (a task is ready when every
    predecessor has been scheduled)."""

    def __init__(self, graph: TaskGraph) -> None:
        graph.freeze()
        self._graph = graph
        self._remaining: List[int] = [graph.in_degree(t) for t in graph.tasks()]
        self.ready: List[int] = list(graph.entry_tasks)

    def mark_scheduled(self, task: int) -> List[int]:
        """Record ``task`` as scheduled; return (and track) newly ready tasks."""
        newly = []
        for succ in self._graph.succs(task):
            self._remaining[succ] -= 1
            if self._remaining[succ] == 0:
                newly.append(succ)
        self.ready.extend(newly)
        return newly

    def remove_ready(self, task: int) -> None:
        self.ready.remove(task)
