"""Insertion-based placement for static list schedulers (extension).

The schedulers in the paper place every task at the *end* of a processor's
queue (non-insertion).  The original MCP formulation, and insertion variants
of other static-order list schedulers, instead consider a processor's idle
*gaps*: a task may be slotted between two already-placed tasks when its
message-arrival lower bound and duration fit.

This module provides the shared placement primitive and the registry
variants ``mcp-i`` / ``hlfet-i``.  Insertion never hurts a static-order
scheduler's makespan on the same priority order (any end-of-queue slot is
also considered), and typically helps on join-heavy graphs where
non-insertion leaves long communication stalls; the cost is an extra
``O(tasks-on-proc)`` scan per (task, processor) pair.

Only schedulers with a *static* task order can use insertion safely here:
dynamic-selection algorithms (ETF/FLB) compute candidate start times
incrementally from ``PRT`` and would need different bookkeeping.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.graph.properties import static_levels
from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.schedule.schedule import Schedule
from repro.schedulers.base import emt_on
from repro.schedulers.mcp import mcp_priority_order

__all__ = ["best_insertion_slot", "mcp_insertion", "hlfet_insertion"]


def best_insertion_slot(schedule: Schedule, task: int) -> Tuple[int, float]:
    """The (processor, start) minimising ``task``'s start time when idle-gap
    insertion is allowed.  Ties go to the lower processor id."""
    graph = schedule.graph
    machine = schedule.machine
    best_proc = 0
    best_start = float("inf")
    for proc in machine.procs:
        duration = machine.duration(graph.comp(task), proc)
        lower = emt_on(schedule, task, proc)
        start = schedule.earliest_gap(proc, lower, duration)
        if start < best_start:
            best_start = start
            best_proc = proc
    return best_proc, best_start


def _run_static_order(
    graph: TaskGraph, machine: MachineModel, order: Sequence[int]
) -> Schedule:
    schedule = Schedule(graph, machine)
    for task in order:
        proc, start = best_insertion_slot(schedule, task)
        schedule.place(task, proc, start, insertion=True)
    return schedule


def mcp_insertion(
    graph: TaskGraph,
    machine: MachineModel,
    tie: str = "random",
    seed: int = 0,
) -> Schedule:
    """MCP with idle-gap insertion (closer to Wu & Gajski's original)."""
    graph.freeze()
    return _run_static_order(graph, machine, mcp_priority_order(graph, tie=tie, seed=seed))


def hlfet_insertion(
    graph: TaskGraph,
    machine: MachineModel,
) -> Schedule:
    """HLFET with idle-gap insertion."""
    graph.freeze()
    sl = static_levels(graph)
    order = sorted(graph.tasks(), key=lambda t: (-sl[t], t))
    return _run_static_order(graph, machine, order)
