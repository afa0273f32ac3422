"""The scalar level recurrences, kept as the oracle for the level sweep of
:mod:`repro.graph.properties`.

``bottom_levels_py`` and ``top_levels_py`` are the pure-Python sweeps the
library ran for graphs below 16,384 tasks before one sweep served every
shape: one pass over the topological order, each task's level from its
CSR successors (or predecessors) as ``comp + max(comm + level)``.  The
tests compare the production vectors to them with ``==``.
"""

from typing import List

from repro.graph.taskgraph import TaskGraph


def bottom_levels_py(graph: TaskGraph) -> List[float]:
    """``BL(t)``: reverse topological order over the CSR list mirrors."""
    csr = graph.csr().lists
    succ_ptr, succ_ids, succ_comm = csr.succ_ptr, csr.succ_ids, csr.succ_comm
    comps = graph.comps
    bl = [0.0] * graph.num_tasks
    for t in reversed(graph.topological_order):
        best = 0.0
        for i in range(succ_ptr[t], succ_ptr[t + 1]):
            cand = succ_comm[i] + bl[succ_ids[i]]
            if cand > best:
                best = cand
        bl[t] = comps[t] + best
    return bl


def top_levels_py(graph: TaskGraph) -> List[float]:
    """``TL(t)``: topological order over the CSR list mirrors."""
    csr = graph.csr().lists
    pred_ptr, pred_ids, pred_comm = csr.pred_ptr, csr.pred_ids, csr.pred_comm
    comps = graph.comps
    tl = [0.0] * graph.num_tasks
    for t in graph.topological_order:
        best = 0.0
        for i in range(pred_ptr[t], pred_ptr[t + 1]):
            p = pred_ids[i]
            cand = tl[p] + comps[p] + pred_comm[i]
            if cand > best:
                best = cand
        tl[t] = best
    return tl
