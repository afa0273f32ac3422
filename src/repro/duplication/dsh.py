"""DSH — Duplication Scheduling Heuristic (Kruatrachue & Lewis, 1988).

The representative of the paper's "duplication" class (Section 1): better
schedules than non-duplicating list schedulers, at significantly higher
scheduling cost.  Implemented here as an extension so the quality/cost
trade-off the paper describes can be measured rather than cited.

Algorithm (the classic shape, simplified to greedy ancestor duplication —
"DSH-lite", see DESIGN.md §4):

1. Tasks are visited in a static priority order (descending bottom level —
   topological, since weights are positive).
2. For each processor, compute the task's earliest start time given the
   copies already placed (a message from a predecessor is served by that
   predecessor's earliest-arriving copy).
3. The *duplication slot* is the idle window between the processor's ready
   time and that start.  While the start is message-bound, try duplicating
   the currently binding predecessor into the slot; keep the copy only if
   it strictly lowers the task's start time, and repeat (the newly binding
   predecessor may differ).
4. Place the task on the processor achieving the overall minimum start.

Cost: every (task, processor) evaluation may duplicate a chain of
ancestors, each re-evaluated in ``O(in_degree)`` — ``O(V P D in)`` overall
with ``D`` the duplication-chain length; orders of magnitude above FLB, as
the paper's taxonomy predicts.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.graph.properties import bottom_levels
from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.duplication.schedule import DuplicationSchedule

__all__ = ["dsh"]

_EPS = 1e-9


def _est_on(
    schedule: DuplicationSchedule, task: int, proc: int, prt: float
) -> Tuple[float, Optional[int]]:
    """Earliest start of ``task`` on ``proc`` given current copies and the
    (possibly locally advanced) ready time ``prt``; also returns the binding
    predecessor (the one whose message arrives last), or ``None`` when the
    start is bound by ``prt`` alone."""
    graph = schedule.graph
    est = prt
    binding: Optional[int] = None
    for pred in graph.preds(task):
        arrival = schedule.arrival_of_edge(pred, task, proc)
        if arrival > est + _EPS:
            est = arrival
            binding = pred
    return est, binding


def _evaluate_with_duplication(
    schedule: DuplicationSchedule, task: int, proc: int, max_chain: int
) -> Tuple[float, List[Tuple[int, float]]]:
    """Start time achievable for ``task`` on ``proc`` if we may duplicate up
    to ``max_chain`` ancestors into the idle tail of ``proc``.

    Returns ``(start, plan)`` where ``plan`` lists the ancestor copies to
    place, in order, as ``(ancestor, start)``.  Pure evaluation: nothing is
    committed.
    """
    graph = schedule.graph
    machine = schedule.machine
    prt = schedule.prt(proc)
    plan: List[Tuple[int, float]] = []
    planned_tasks = set()
    planned_finish = {}  # ancestor -> finish of planned local copy

    def arrival(pred: int, consumer: int) -> float:
        best = schedule.arrival_of_edge(pred, consumer, proc)
        if pred in planned_finish:  # local planned copy: message is free
            best = min(best, planned_finish[pred])
        return best

    def est_of(t: int, ready: float) -> Tuple[float, Optional[int]]:
        est = ready
        binding = None
        for pred in graph.preds(t):
            a = arrival(pred, t)
            if a > est + _EPS:
                est = a
                binding = pred
        return est, binding

    est, binding = est_of(task, prt)
    while binding is not None and len(plan) < max_chain:
        if schedule.is_scheduled(binding) is False:
            break
        if binding in planned_tasks or any(
            c.proc == proc for c in schedule.copies_of(binding)
        ):
            break  # already local; nothing to gain from this branch
        # Tentative copy of the binding ancestor at the end of the slot.
        copy_est, _ = est_of(binding, prt)
        copy_finish = copy_est + machine.duration(graph.comp(binding), proc)
        new_prt = copy_finish
        # Recompute the task's start with the planned copy in place.
        planned_tasks.add(binding)
        planned_finish[binding] = copy_finish
        new_est, new_binding = est_of(task, new_prt)
        if new_est < est - _EPS:
            plan.append((binding, copy_est))
            prt = new_prt
            est, binding = new_est, new_binding
        else:
            planned_tasks.discard(binding)
            del planned_finish[binding]
            break
    return est, plan


def dsh(
    graph: TaskGraph,
    machine: MachineModel,
    max_chain: int = 8,
) -> DuplicationSchedule:
    """Schedule ``graph`` with DSH(-lite).  See module docstring.

    ``max_chain`` bounds the ancestor-duplication chain evaluated per
    (task, processor) pair; 0 disables duplication entirely (useful for
    measuring the gain).
    """
    graph.freeze()
    if max_chain < 0:
        raise ValueError(f"max_chain must be >= 0, got {max_chain}")
    schedule = DuplicationSchedule(graph, machine)
    bl = bottom_levels(graph)
    order = sorted(graph.tasks(), key=lambda t: (-bl[t], t))

    for task in order:
        best_start = float("inf")
        best_proc = 0
        best_plan: List[Tuple[int, float]] = []
        for proc in machine.procs:
            start, plan = _evaluate_with_duplication(schedule, task, proc, max_chain)
            if start < best_start - _EPS:
                best_start = start
                best_proc = proc
                best_plan = plan
        for ancestor, start in best_plan:
            schedule.place_copy(ancestor, best_proc, start)
        schedule.place_copy(task, best_proc, best_start)

    return schedule
