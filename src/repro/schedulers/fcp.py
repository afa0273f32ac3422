"""FCP — Fast Critical Path (Rădulescu & van Gemund, ICS 1999; ref [7]).

FLB's direct ancestor.  FCP keeps the ready tasks in a priority queue
ordered by a *static* priority (the bottom level — hence "critical path"),
and schedules, at each iteration, the highest-priority ready task.  Its key
result (reused by FLB) is that only **two processors** need to be considered
to start that task the earliest:

* the task's enabling processor (where its last message originates), and
* the processor that becomes idle the earliest.

The difference from FLB is purely in *task* selection: FCP picks the ready
task with the best static priority, which need not be the task that can
start the earliest; FLB strengthens the selection to the ETF criterion at
the same asymptotic cost.  Complexity: ``O(V (log W + log P) + E)``.

Implementation note (``docs/performance.md``): the hot loops run on the
graph's CSR view.  A task's predecessors are all placed by the time it
becomes ready, so a single fused pass computes its ``LMT``, enabling
processor, and ``EMT`` on that processor together; the ready queue is a
plain :mod:`heapq` (tasks enter and leave exactly once) and the idle
processor queue uses lazy invalidation keyed on the strictly increasing
``PRT``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import List, Tuple

from repro.graph.properties import bottom_levels
from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.schedule.schedule import Schedule

__all__ = ["fcp"]


def fcp(
    graph: TaskGraph,
    machine: MachineModel,
) -> Schedule:
    """Schedule ``graph`` with FCP.  See module docstring."""
    graph.freeze()
    schedule = Schedule(graph, machine)
    bl = bottom_levels(graph)
    n = graph.num_tasks
    csr = graph.csr().lists
    pred_ptr, pred_ids, pred_comm = csr.pred_ptr, csr.pred_ids, csr.pred_comm
    succ_ptr, succ_ids = csr.succ_ptr, csr.succ_ids
    lat, scale = machine.latency, machine.comm_scale

    ready: List[Tuple[float, int]] = [(-bl[t], t) for t in graph.entry_tasks]
    heapify(ready)
    # Processors by (PRT, id); an entry is current iff its key equals the
    # processor's PRT, which strictly increases — stale entries sink out.
    prt = [0.0] * machine.num_procs
    idle_heap = [(0.0, p) for p in machine.procs]  # sorted => a valid heap
    # Cached per-ready-task data, all fixed once the task becomes ready:
    # last message arrival, enabling processor, and EMT on it.
    finish = [0.0] * n
    on_proc = [0] * n
    lmt = [0.0] * n
    ep = [0] * n
    emt_ep = [0.0] * n
    pp = csr.pred_ptr
    npreds = [pp[t + 1] - pp[t] for t in range(n)]

    while ready:
        _, task = heappop(ready)
        # Candidate 1: the enabling processor (last message becomes free).
        ep_proc = ep[task]
        est_ep = max(emt_ep[task], prt[ep_proc])
        # Candidate 2: the earliest-idle processor (all messages remote).
        while True:
            idle_prt, idle_proc = idle_heap[0]
            if prt[idle_proc] == idle_prt:
                break
            heappop(idle_heap)
        est_idle = max(lmt[task], idle_prt)
        if est_ep <= est_idle:
            proc, est = ep_proc, est_ep
        else:
            proc, est = idle_proc, est_idle

        ft = schedule._append(task, proc, est)
        prt[proc] = ft
        heappush(idle_heap, (ft, proc))
        finish[task] = ft
        on_proc[task] = proc

        for j in range(succ_ptr[task], succ_ptr[task + 1]):
            succ = succ_ids[j]
            npreds[succ] -= 1
            if npreds[succ]:
                continue
            # Fused pass: LMT/EP with the (arrival, FT, id) tie rule, plus
            # EMT on EP = max(max FT, best arrival from off-EP processors);
            # see the matching loop in repro.core.flb for the derivation.
            b_arr = -1.0
            b_ft = -1.0
            b_id = -1
            b_proc = 0
            alt = 0.0
            max_ft = 0.0
            for i in range(pred_ptr[succ], pred_ptr[succ + 1]):
                pred = pred_ids[i]
                ft = finish[pred]
                # Parenthesised like MachineModel.remote_delay so the float
                # rounding matches the reference implementations exactly.
                arr = ft + (lat + scale * pred_comm[i])
                pp = on_proc[pred]
                if ft > max_ft:
                    max_ft = ft
                if arr > b_arr or (
                    arr == b_arr and (ft > b_ft or (ft == b_ft and pred > b_id))
                ):
                    if pp != b_proc and b_arr > alt:
                        alt = b_arr
                    b_arr = arr
                    b_ft = ft
                    b_id = pred
                    b_proc = pp
                elif pp != b_proc and arr > alt:
                    alt = arr
            lmt[succ] = b_arr
            ep[succ] = b_proc
            emt_ep[succ] = max_ft if max_ft > alt else alt
            heappush(ready, (-bl[succ], succ))

    return schedule
