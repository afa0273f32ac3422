"""LLB — List-based Load Balancing (Rădulescu, van Gemund & Lin, 1999).

The mapping/ordering step of the paper's multi-step baseline (Section 3.3):
given the clusters produced by DSC, LLB assigns clusters to the ``P``
physical processors and orders tasks, driven by load balancing:

1. select the destination processor ``p`` — the processor becoming idle the
   earliest;
2. select the task — the better of two candidates: (a) the
   highest-priority ready task whose cluster is already mapped to ``p``,
   and (b) the highest-priority ready task whose cluster is still
   unmapped.  Whichever starts earlier on ``p`` is scheduled there; if the
   unmapped candidate wins, its whole cluster becomes mapped to ``p``.

Ready tasks whose clusters are mapped to *other* processors wait for their
processor's turn.  If the earliest-idle processor has no candidate at all
(no unmapped ready task and nothing mapped to it), the next-idle processor
is considered, and so on.

Priority: the task's bottom level.  The FLB paper's related-work text says
the candidates use the "least bottom level", while LLB's own paper
prioritises the *largest*; we default to ``priority="largest"`` and keep
``"least"`` selectable — benchmark X3 ablates the choice (DESIGN.md §4.4).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.exceptions import SchedulerError
from repro.graph.properties import bottom_levels
from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.schedule.schedule import Schedule
from repro.schedulers.base import ReadyTracker, est_on
from repro.schedulers.dsc import Clustering
from repro.util.heap import IndexedHeap

__all__ = ["llb"]


def llb(
    graph: TaskGraph,
    clustering: Clustering,
    machine: MachineModel,
    priority: str = "largest",
) -> Schedule:
    """Map ``clustering`` onto processors with LLB.  See module docstring."""
    graph.freeze()
    if priority not in ("largest", "least"):
        raise SchedulerError(
            f"unknown LLB priority {priority!r}; expected 'largest' or 'least'"
        )
    bl = bottom_levels(graph)
    sign = -1.0 if priority == "largest" else 1.0

    def prio_key(task: int) -> Tuple[float, int]:
        return (sign * bl[task], task)

    schedule = Schedule(graph, machine)
    tracker = ReadyTracker(graph)
    cluster_proc: List[Optional[int]] = [None] * clustering.num_clusters
    mapped_ready: List[IndexedHeap] = [IndexedHeap() for _ in machine.procs]
    unmapped_ready: IndexedHeap = IndexedHeap()
    # Ready-but-unmapped tasks bucketed by cluster, so a cluster's pending
    # ready tasks can be moved onto its processor the moment it gets mapped.
    cluster_pending: List[List[int]] = [[] for _ in range(clustering.num_clusters)]

    def enqueue_ready(task: int) -> None:
        c = clustering.cluster_of[task]
        p = cluster_proc[c]
        if p is None:
            unmapped_ready.push(task, prio_key(task))
            cluster_pending[c].append(task)
        else:
            mapped_ready[p].push(task, prio_key(task))

    for t in tracker.ready:
        enqueue_ready(t)

    for _ in range(graph.num_tasks):
        # Destination processor: earliest idle with at least one candidate.
        chosen: Optional[Tuple[int, int, float, bool]] = None  # task, proc, est, unmapped
        for proc in sorted(machine.procs, key=lambda p: (schedule.prt(p), p)):
            cand_mapped = mapped_ready[proc].peek_item()
            cand_unmapped = unmapped_ready.peek_item()
            if cand_mapped is None and cand_unmapped is None:
                continue
            best: Optional[Tuple[int, float, bool]] = None
            if cand_mapped is not None:
                best = (cand_mapped, est_on(schedule, cand_mapped, proc), False)
            if cand_unmapped is not None:
                est_u = est_on(schedule, cand_unmapped, proc)
                # Strict <: on ties the already-mapped task keeps its cluster
                # local instead of committing a fresh cluster to this proc.
                if best is None or est_u < best[1]:
                    best = (cand_unmapped, est_u, True)
            chosen = (best[0], proc, best[1], best[2])
            break
        if chosen is None:
            raise SchedulerError("no candidate task for any processor (bug)")

        task, proc, est, was_unmapped = chosen
        c = clustering.cluster_of[task]
        if was_unmapped:
            # Map the entire cluster to this processor.
            cluster_proc[c] = proc
            for pending in cluster_pending[c]:
                unmapped_ready.remove(pending)
                if pending != task:
                    mapped_ready[proc].push(pending, prio_key(pending))
            cluster_pending[c].clear()
        else:
            mapped_ready[proc].remove(task)

        schedule.place(task, proc, est)
        tracker.remove_ready(task)
        for succ in tracker.mark_scheduled(task):
            enqueue_ready(succ)

    return schedule
