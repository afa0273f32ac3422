"""The dict-path placement helpers and loops, kept as the oracle for the
CSR :class:`repro.schedulers.base.Placer`.

``emt_on``, ``est_on`` and ``best_proc_for`` are the per-(predecessor,
processor) helpers the list-scheduling baselines called before they moved
onto the CSR evaluator: one ``finish_of``, ``proc_of``, ``comm_delay`` and
``graph.comm`` lookup per pair.  ``earliest_gap`` is
:meth:`Schedule.earliest_gap` as it was, walking every task on the
processor even for a bound past its last finish.  Below them are those
baselines' placement loops as they were (MCP, HLFET, DLS, LLB, HEFT and the
insertion variants).  Each calls the production priority order, except
MCP's ``tie="random"`` order: ``mcp_priority_order`` here is its Python
sort on ``(ALAP, jitter)``, so that a change to the production order
shows up against these loops.
``tests/test_placement_csr.py`` requires every production scheduler to
place every task on the same processor at the same float start and finish
as its loop here, compared with ``==``.
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SchedulerError
from repro.graph.properties import alap_times, bottom_levels, static_levels
from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.schedule.schedule import _EPS, Schedule
from repro.schedulers.base import ReadyTracker
from repro.schedulers.dsc import Clustering, dsc
from repro.schedulers.heft import upward_ranks
from repro.schedulers.mcp import mcp_priority_order as production_mcp_order
from repro.schedulers.sarkar import sarkar
from repro.util.heap import IndexedHeap

# ---------------------------------------------------------------------------
# The dict helpers
# ---------------------------------------------------------------------------


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


def earliest_gap(
    schedule: Schedule, proc: int, lower_bound: float, duration: float
) -> float:
    candidate = max(lower_bound, 0.0)
    for t in schedule.proc_tasks(proc):
        if schedule.start_of(t) - candidate >= duration - _EPS:
            return candidate
        if schedule.finish_of(t) > candidate:
            candidate = schedule.finish_of(t)
    return candidate


# ---------------------------------------------------------------------------
# MCP and HLFET (static order, minimum EST)
# ---------------------------------------------------------------------------


def mcp_priority_order(
    graph: TaskGraph, tie: str = "random", seed: int = 0
) -> List[int]:
    """MCP's order as a Python sort: ascending ``(ALAP, jitter)`` with the
    jitter a ``default_rng(seed)`` permutation; the ``"lex"`` rule is the
    production one."""
    if tie != "random":
        return production_mcp_order(graph, tie=tie, seed=seed)
    graph.freeze()
    alap = alap_times(graph)
    n = graph.num_tasks
    jitter = np.random.default_rng(seed).permutation(n)
    return sorted(range(n), key=lambda t: (alap[t], int(jitter[t])))


def mcp(
    graph: TaskGraph,
    machine: MachineModel,
    tie: str = "random",
    seed: int = 0,
) -> Schedule:
    graph.freeze()
    schedule = Schedule(graph, machine)
    for task in mcp_priority_order(graph, tie=tie, seed=seed):
        proc, est = best_proc_for(schedule, task)
        schedule.place(task, proc, est)
    return schedule


def hlfet(graph: TaskGraph, machine: MachineModel) -> Schedule:
    graph.freeze()
    schedule = Schedule(graph, machine)
    sl = static_levels(graph)
    order = sorted(graph.tasks(), key=lambda t: (-sl[t], t))
    for task in order:
        proc, est = best_proc_for(schedule, task)
        schedule.place(task, proc, est)
    return schedule


# ---------------------------------------------------------------------------
# DLS
# ---------------------------------------------------------------------------


def dls(graph: TaskGraph, machine: MachineModel) -> Schedule:
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


# ---------------------------------------------------------------------------
# LLB and the two multi-step compositions
# ---------------------------------------------------------------------------


def llb(
    graph: TaskGraph,
    clustering: Clustering,
    machine: MachineModel,
    priority: str = "largest",
) -> Schedule:
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


def dsc_llb(
    graph: TaskGraph, machine: MachineModel, priority: str = "largest"
) -> Schedule:
    graph.freeze()
    return llb(graph, dsc(graph, machine), machine=machine, priority=priority)


def sarkar_llb(
    graph: TaskGraph, machine: MachineModel, priority: str = "largest"
) -> Schedule:
    graph.freeze()
    return llb(graph, sarkar(graph, machine), machine=machine, priority=priority)


# ---------------------------------------------------------------------------
# HEFT and the insertion variants (idle-gap placement)
# ---------------------------------------------------------------------------


def heft(graph: TaskGraph, machine: MachineModel) -> Schedule:
    graph.freeze()
    schedule = Schedule(graph, machine)
    rank = upward_ranks(graph, machine)
    order = sorted(graph.tasks(), key=lambda t: (-rank[t], t))

    for task in order:
        best_proc = 0
        best_start = 0.0
        best_finish = float("inf")
        for proc in machine.procs:
            duration = machine.duration(graph.comp(task), proc)
            lower = emt_on(schedule, task, proc)
            start = earliest_gap(schedule, proc, lower, duration)
            finish = start + duration
            if finish < best_finish:
                best_finish = finish
                best_start = start
                best_proc = proc
        schedule.place(task, best_proc, best_start, insertion=True)

    return schedule


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
        start = earliest_gap(schedule, proc, lower, duration)
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
    graph.freeze()
    return _run_static_order(graph, machine, mcp_priority_order(graph, tie=tie, seed=seed))


def hlfet_insertion(graph: TaskGraph, machine: MachineModel) -> Schedule:
    graph.freeze()
    sl = static_levels(graph)
    order = sorted(graph.tasks(), key=lambda t: (-sl[t], t))
    return _run_static_order(graph, machine, order)


#: Registry name -> oracle loop, for every scheduler that moved onto the
#: CSR evaluator.
ORACLES = {
    "mcp": mcp,
    "mcp-lex": lambda g, m: mcp(g, m, tie="lex"),
    "hlfet": hlfet,
    "dls": dls,
    "dsc-llb": dsc_llb,
    "sarkar-llb": sarkar_llb,
    "heft": heft,
    "mcp-i": mcp_insertion,
    "hlfet-i": hlfet_insertion,
}
