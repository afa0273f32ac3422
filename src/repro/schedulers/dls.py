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
from repro.schedulers.base import Placer, ReadyTracker

__all__ = ["dls"]


def dls(
    graph: TaskGraph,
    machine: MachineModel,
) -> Schedule:
    """Schedule ``graph`` with DLS.  See module docstring."""
    placer = Placer(graph, machine)
    sl = static_levels(graph)
    tracker = ReadyTracker(graph)

    for _ in range(graph.num_tasks):
        best_key = None
        best_est = 0.0
        for task in tracker.ready:
            # The key's tail is fixed within a task, so its best pair is the
            # largest DL, ties to the lowest processor.  DL is compared, not
            # EST, because rounding in SL - EST can tie two different ESTs.
            ests = placer.ests(task)
            dls = [sl[task] - est for est in ests]
            dl = max(dls)
            proc = dls.index(dl)
            key = (-dl, -sl[task], task, proc)
            if best_key is None or key < best_key:
                best_key = key
                best_est = ests[proc]
        assert best_key is not None, "ready set empty with tasks unscheduled"
        _, _, task, proc = best_key
        placer.place(task, proc, best_est)
        tracker.remove_ready(task)
        tracker.mark_scheduled(task)

    return placer.schedule
