"""HEFT — Heterogeneous Earliest Finish Time (Topcuoglu, Hariri & Wu, 2002).

The heterogeneous extension of this repository (the FLB authors' own
follow-up work took their schedulers heterogeneous; HEFT is the canonical
baseline for that setting).  Works on any :class:`MachineModel`; with
per-processor ``speeds`` a task with computation cost ``c`` runs for
``c / speeds[p]`` on processor ``p``.

Algorithm:

1. **Upward ranks**: ``rank(t) = mean_duration(t) + max over succs
   (comm(t, s) + rank(s))`` — the bottom level computed with
   processor-averaged execution times (on a homogeneous machine this is
   exactly the bottom level, and HEFT degenerates to an insertion-based
   bottom-level list scheduler).
2. Tasks in descending rank order (topological, since durations are
   positive).
3. Each task goes to the processor minimising its **earliest finish time**,
   with idle-gap insertion.

Minimising *finish* rather than *start* is what makes the algorithm
heterogeneity-aware: a slow processor can offer the earliest start but a
late finish.

Complexity ``O(V log V + (E + V) P + V^2 / P)`` (the last term from gap
scanning).
"""

from __future__ import annotations

from typing import List

from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.schedule.schedule import Schedule
from repro.schedulers.base import Placer

__all__ = ["heft", "upward_ranks"]


def upward_ranks(graph: TaskGraph, machine: MachineModel) -> List[float]:
    """HEFT's upward ranks: bottom levels with processor-averaged durations
    and remote-rate communication costs."""
    graph.freeze()
    rank = [0.0] * graph.num_tasks
    for t in reversed(graph.topological_order):
        best = 0.0
        for s in graph.succs(t):
            cand = machine.remote_delay(graph.comm(t, s)) + rank[s]
            if cand > best:
                best = cand
        rank[t] = machine.mean_duration(graph.comp(t)) + best
    return rank


def heft(
    graph: TaskGraph,
    machine: MachineModel,
) -> Schedule:
    """Schedule ``graph`` with HEFT.  See module docstring."""
    placer = Placer(graph, machine)
    schedule = placer.schedule
    rank = upward_ranks(graph, machine)
    order = sorted(graph.tasks(), key=lambda t: (-rank[t], t))

    for task in order:
        best_proc = 0
        best_start = 0.0
        best_finish = float("inf")
        comp = graph.comp(task)
        for proc, lower in enumerate(placer.emts(task)):
            duration = machine.duration(comp, proc)
            start = schedule.earliest_gap(proc, lower, duration)
            finish = start + duration
            if finish < best_finish:
                best_finish = finish
                best_start = start
                best_proc = proc
        placer.place(task, best_proc, best_start, insertion=True)

    return schedule
