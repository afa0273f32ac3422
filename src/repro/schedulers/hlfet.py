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
from repro.schedulers.base import Placer

__all__ = ["hlfet"]


def hlfet(
    graph: TaskGraph,
    machine: MachineModel,
) -> Schedule:
    """Schedule ``graph`` with HLFET.  See module docstring."""
    placer = Placer(graph, machine)
    sl = static_levels(graph)
    for task in sorted(graph.tasks(), key=lambda t: (-sl[t], t)):
        proc, est = placer.best_est(task)
        placer.place(task, proc, est)
    return placer.schedule
