"""ETF — Earliest Task First (Hwang, Chow, Anger & Lee, 1989).

The paper's Section 3.2: at each iteration ETF tentatively schedules every
ready task on every processor and commits the pair with the minimum start
time.  This is the same greedy criterion FLB implements, but found by an
exhaustive ``O(W P)`` scan per iteration (each ``EST`` costing
``O(in_degree)``), for the paper's quoted total of ``O(W (E + V) P)``.

Ties between pairs with equal earliest start time are broken by a *static*
priority — the task's bottom level (larger first), then task id, then
processor id — matching the paper's remark that "ETF uses statically
computed task priorities" where FLB uses dynamic message-arrival priorities.
That difference in tie-breaking is the only way the two algorithms' outputs
can diverge (Theorem 3), and is what the X2 ablation benchmark measures.

Implementation note (``docs/performance.md``): the inner ``EST`` evaluation
runs on the graph's CSR view with task finish/processor data hoisted into
local arrays, but the exhaustive per-(task, processor) predecessor scan is
deliberately *kept* — memoizing per-ready-task message maxima would collapse
the ``E x P`` product out of ETF's cost and silently falsify the paper's
Fig. 2 cost comparison (guarded by ``tests/test_paper_claims.py``).  The
CSR rewrite changes constants only, never the complexity.
"""

from __future__ import annotations

from repro.graph.properties import bottom_levels
from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.schedule.schedule import Schedule

__all__ = ["etf"]


def etf(
    graph: TaskGraph,
    machine: MachineModel,
) -> Schedule:
    """Schedule ``graph`` with ETF.  See module docstring."""
    graph.freeze()
    schedule = Schedule(graph, machine)
    bl = bottom_levels(graph)
    n = graph.num_tasks
    csr = graph.csr().lists
    pred_ptr, pred_ids, pred_comm = csr.pred_ptr, csr.pred_ids, csr.pred_comm
    succ_ptr, succ_ids = csr.succ_ptr, csr.succ_ids
    lat, scale = machine.latency, machine.comm_scale
    procs = range(machine.num_procs)

    finish = [0.0] * n
    on_proc = [0] * n
    pp = csr.pred_ptr
    npreds = [pp[t + 1] - pp[t] for t in range(n)]
    prt = [0.0] * machine.num_procs
    ready = list(graph.entry_tasks)

    for _ in range(n):
        best_est = float("inf")
        best_tie = (0.0, -1, -1)  # (-BL, task, proc)
        best_task = -1
        best_proc = -1
        for task in ready:
            nbl = -bl[task]
            lo = pred_ptr[task]
            hi = pred_ptr[task + 1]
            for proc in procs:
                # EMT(task, proc): same-processor messages are free.
                emt = 0.0
                for i in range(lo, hi):
                    pred = pred_ids[i]
                    ft = finish[pred]
                    # Parenthesised like MachineModel.remote_delay so the
                    # float rounding matches the reference exactly.
                    arr = ft if on_proc[pred] == proc else ft + (lat + scale * pred_comm[i])
                    if arr > emt:
                        emt = arr
                rt = prt[proc]
                est = emt if emt > rt else rt
                if est < best_est or (
                    est == best_est and (nbl, task, proc) < best_tie
                ):
                    best_est = est
                    best_tie = (nbl, task, proc)
                    best_task = task
                    best_proc = proc
        assert best_task >= 0, "ready set empty with tasks unscheduled"
        ft = schedule._append(best_task, best_proc, best_est)
        prt[best_proc] = ft
        finish[best_task] = ft
        on_proc[best_task] = best_proc
        ready.remove(best_task)

        for j in range(succ_ptr[best_task], succ_ptr[best_task + 1]):
            succ = succ_ids[j]
            npreds[succ] -= 1
            if not npreds[succ]:
                ready.append(succ)

    return schedule
