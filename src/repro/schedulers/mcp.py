"""MCP — Modified Critical Path (Wu & Gajski, 1990).

The paper's Section 3.1: task priorities are the *latest possible start
times* ``ALAP(t) = CP - BL(t)`` (smaller = higher priority).  Tasks are
scheduled in priority order, each on the processor where it can start the
earliest.

Two tie-breaking variants are provided, matching the paper:

* ``tie="random"`` (default) — the lower-cost version the paper selects for
  its experiments: among equal-ALAP tasks the order is randomised (here:
  deterministically, from ``seed``).  Complexity
  ``O(V log V + (E + V) P)``.
* ``tie="lex"`` — the original MCP rule: each task carries the sorted list
  of the ALAPs of itself and all of its descendants, and equal-ALAP tasks
  are ordered by lexicographic comparison of those lists.  ``O(V^2)``-ish in
  time and space; fine for the graph sizes in the evaluation but not for
  huge graphs.

Because ``comp(t) > 0`` implies ``ALAP(parent) < ALAP(child)`` strictly, the
priority order is always a valid topological order, so every task's
predecessors are scheduled (and its ``EMT`` computable) when its turn comes.

Placement is non-insertion (a task starts no earlier than the processor's
ready time), consistent with every other scheduler in this repository; see
DESIGN.md §4.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.exceptions import SchedulerError
from repro.graph.properties import alap_times, bottom_levels_array
from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.schedule.schedule import Schedule
from repro.schedulers.base import Placer

__all__ = ["mcp", "mcp_priority_order"]


def _descendant_alap_lists(
    graph: TaskGraph, alap: List[float]
) -> List[Tuple[float, ...]]:
    """For each task, the sorted tuple of ALAPs of the task and all its
    descendants (the original MCP tie-breaking key)."""
    n = graph.num_tasks
    # Collect descendant sets via reverse topological sweep over bitsets.
    reach = [0] * n
    for t in reversed(graph.topological_order):
        r = 0
        for s in graph.succs(t):
            r |= (1 << s) | reach[s]
        reach[t] = r
    keys: List[Tuple[float, ...]] = [()] * n
    for t in range(n):
        alaps = [alap[t]]
        mask = reach[t]
        while mask:
            low = mask & -mask
            alaps.append(alap[low.bit_length() - 1])
            mask ^= low
        keys[t] = tuple(sorted(alaps))
    return keys


def mcp_priority_order(
    graph: TaskGraph, tie: str = "random", seed: int = 0
) -> List[int]:
    """The MCP scheduling order: ascending ALAP with the chosen tie rule."""
    graph.freeze()
    n = graph.num_tasks
    if tie == "random":
        bl = bottom_levels_array(graph)
        jitter = np.random.default_rng(seed).permutation(n)
        # Ascending (ALAP, jitter) with ALAP = CP - BL, the same floats as
        # alap_times; the jitter is a permutation, so no two keys tie.
        return np.lexsort((jitter, bl.max() - bl)).tolist()
    if tie == "lex":
        alap = alap_times(graph)
        keys = _descendant_alap_lists(graph, alap)
        return sorted(range(n), key=lambda t: (alap[t], keys[t], t))
    raise SchedulerError(f"unknown MCP tie rule {tie!r}; expected 'random' or 'lex'")


def mcp(
    graph: TaskGraph,
    machine: MachineModel,
    tie: str = "random",
    seed: int = 0,
) -> Schedule:
    """Schedule ``graph`` with MCP.  See module docstring."""
    placer = Placer(graph, machine)
    for task in mcp_priority_order(graph, tie=tie, seed=seed):
        proc, est = placer.best_est(task)
        placer.place(task, proc, est)
    return placer.schedule
