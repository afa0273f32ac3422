"""A deliberately slow reference implementation of FLB.

:func:`flb_reference` re-implements FLB's *semantics* — the two Theorem-3
candidates, the EP/non-EP classification, and every tie-breaking rule —
without any of the priority-list machinery: each iteration scans all ready
tasks and all processors (`O(W·P)` with `O(in_degree)` recomputation, like
ETF).  Because the tie-break keys are identical, its output schedule must be
**bit-for-bit identical** to :func:`repro.core.flb.flb`'s, on every input.

That makes it the strongest regression harness for the fast implementation:
the oracle (:mod:`repro.core.oracle`) proves the chosen *start time* is
minimal, while this module pins the exact *choice*, catching any drift in
the heap bookkeeping (stale keys, missed demotions, wrong refresh of the
active-processor list) that happens to preserve minimality.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.exceptions import SchedulerError
from repro.graph.properties import bottom_levels
from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.schedule.schedule import Schedule
from repro.schedulers.base import resolve_machine

__all__ = ["flb_reference"]


def flb_reference(
    graph: TaskGraph,
    num_procs: Optional[int] = None,
    machine: Optional[MachineModel] = None,
) -> Schedule:
    """Schedule ``graph`` with brute-force FLB semantics (see module doc)."""
    graph.freeze()
    machine = resolve_machine(num_procs, machine)
    schedule = Schedule(graph, machine)
    bl = bottom_levels(graph)
    n = graph.num_tasks

    lmt = [0.0] * n
    ep: List[Optional[int]] = [None] * n
    unscheduled_preds = [graph.in_degree(t) for t in graph.tasks()]
    ready: List[int] = list(graph.entry_tasks)

    def emt_on(task: int, proc: int) -> float:
        value = 0.0
        for pred in graph.preds(task):
            arrival = schedule.finish_of(pred) + machine.comm_delay(
                schedule.proc_of(pred), proc, graph.comm(pred, task)
            )
            if arrival > value:
                value = arrival
        return value

    for _ in range(n):
        if not ready:
            raise SchedulerError("no ready task but schedule incomplete (bug)")
        # Candidate (a): EP task minimising EST on its enabling processor.
        # Replicates the array kernel's ordering exactly: processors are ranked
        # by (min EST, proc id); within a processor, EP tasks by
        # (EMT, -BL, id).
        best_ep: Optional[Tuple[float, int, float, float, int]] = None
        # best_ep key: (est, proc, emt, -bl, id)
        for task in ready:
            p = ep[task]
            if p is None or lmt[task] < schedule.prt(p):
                continue  # non-EP type
            emt = emt_on(task, p)
            est = max(emt, schedule.prt(p))
            key = (est, p, emt, -bl[task], task)
            if best_ep is None or key < best_ep:
                best_ep = key
        # Candidate (b): non-EP task with minimum LMT on the earliest-idle
        # processor (processor ties by id; task ties by (-BL, id)).
        best_non: Optional[Tuple[float, float, int]] = None  # (lmt, -bl, id)
        for task in ready:
            p = ep[task]
            if p is not None and lmt[task] >= schedule.prt(p):
                continue
            key = (lmt[task], -bl[task], task)
            if best_non is None or key < best_non:
                best_non = key
        idle_proc = min(machine.procs, key=lambda p: (schedule.prt(p), p))

        if best_non is None:
            assert best_ep is not None
            est, proc, _, _, task = best_ep
        elif best_ep is None:
            task = best_non[2]
            proc = idle_proc
            est = max(best_non[0], schedule.prt(idle_proc))
        else:
            est_non = max(best_non[0], schedule.prt(idle_proc))
            if best_ep[0] < est_non:
                est, proc, _, _, task = best_ep
            else:  # ties favour the non-EP candidate
                task, proc, est = best_non[2], idle_proc, est_non

        schedule.place(task, proc, est)
        ready.remove(task)
        for succ in graph.succs(task):
            unscheduled_preds[succ] -= 1
            if unscheduled_preds[succ] > 0:
                continue
            best_key = (-1.0, -1.0, -1)
            for pred in graph.preds(succ):
                ft = schedule.finish_of(pred)
                arrival = ft + machine.remote_delay(graph.comm(pred, succ))
                key = (arrival, ft, pred)
                if key > best_key:
                    best_key = key
                    lmt[succ] = arrival
                    ep[succ] = schedule.proc_of(pred)
            ready.append(succ)

    return schedule
