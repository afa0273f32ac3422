"""HLFET — Highest Level First with Estimated Times (Adam, Chandy & Dickson).

The classic static list scheduler, included as an additional reference
point: tasks are ordered once by descending *static level* (bottom level
without communication costs) and each is placed on the processor where it
starts the earliest.

Because ``comp(t) > 0`` makes ``SL(parent) > SL(child)`` strictly, the
static order is topological, so predecessors are always scheduled first.
Complexity ``O(V log V + (E + V) P)`` — the cheapest of the exhaustive-scan
baselines, and typically the weakest on communication-heavy graphs since
its priorities ignore communication entirely.
"""

from __future__ import annotations

from repro.graph.properties import static_levels
from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.schedule.schedule import Schedule
from repro.schedulers.base import best_proc_for

__all__ = ["hlfet"]


def hlfet(
    graph: TaskGraph,
    machine: MachineModel,
) -> Schedule:
    """Schedule ``graph`` with HLFET.  See module docstring."""
    graph.freeze()
    schedule = Schedule(graph, machine)
    sl = static_levels(graph)
    order = sorted(graph.tasks(), key=lambda t: (-sl[t], t))
    for task in order:
        proc, est = best_proc_for(schedule, task)
        schedule.place(task, proc, est)
    return schedule
