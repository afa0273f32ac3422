"""DLS — Dynamic Level Scheduling (Sih & Lee, 1993).

One of the one-step baselines the paper cites (ref [10]).  At each iteration
DLS computes, for every ready task ``t`` and processor ``p``, the *dynamic
level*

    DL(t, p) = SL(t) - EST(t, p)

where ``SL`` is the static level (bottom level *without* communication
costs, per Sih & Lee), and commits the pair with the **maximum** dynamic
level.  Like ETF this is an exhaustive ``O(W P)`` scan per iteration; unlike
ETF, the criterion trades start time against remaining critical-path length
instead of minimising start time alone.

Ties are broken toward the larger static level, then smaller task id, then
smaller processor id.
"""

from __future__ import annotations

from repro.graph.properties import static_levels
from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.schedule.schedule import Schedule
from repro.schedulers.base import ReadyTracker, est_on

__all__ = ["dls"]


def dls(
    graph: TaskGraph,
    machine: MachineModel,
) -> Schedule:
    """Schedule ``graph`` with DLS.  See module docstring."""
    graph.freeze()
    schedule = Schedule(graph, machine)
    sl = static_levels(graph)
    tracker = ReadyTracker(graph)

    for _ in range(graph.num_tasks):
        best_key = None
        best_task = -1
        best_proc = -1
        best_est = 0.0
        for task in tracker.ready:
            for proc in machine.procs:
                est = est_on(schedule, task, proc)
                dl = sl[task] - est
                key = (-dl, -sl[task], task, proc)
                if best_key is None or key < best_key:
                    best_key = key
                    best_task, best_proc, best_est = task, proc, est
        assert best_key is not None, "ready set empty with tasks unscheduled"
        schedule.place(best_task, best_proc, best_est)
        tracker.remove_ready(best_task)
        tracker.mark_scheduled(best_task)

    return schedule
