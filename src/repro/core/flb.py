"""FLB — Fast Load Balancing (the paper's Section 4).

At every iteration FLB schedules the ready task that can start the earliest,
on the processor where that start time is achieved — the same criterion as
ETF — but finds the task/processor pair by comparing only **two** candidates
(Theorem 3):

(a) the EP-type ready task with the minimum estimated start time on its
    enabling processor, and
(b) the non-EP-type ready task with the minimum last-message-arrival time,
    placed on the processor that becomes idle the earliest.

If both achieve the same start time the non-EP task is preferred, because
its communication is already overlapped with computation.

Definitions (Section 2):

* ``LMT(t)``: latest message arrival, ``max FT(pred) + comm`` over all
  predecessors, with communication charged at the remote rate.
* ``EP(t)``: the processor the last message arrives from.  When several
  messages tie, the predecessor with the lexicographically largest
  ``(arrival, FT, id)`` wins — the deterministic rule that matches the
  published Table 1 trace (task ``t5`` is enabled by ``p0``).
* ``EMT(t, p)``: like ``LMT`` but messages from predecessors on ``p`` are
  free.  (Computed inclusively over all predecessors; see DESIGN.md §1.)
* ``EST(t, p) = max(EMT(t, p), PRT(p))``.
* ``t`` is EP-type iff ``LMT(t) >= PRT(EP(t))``.

Complexity: priorities ``O(E + V)``; each of the ``V`` iterations performs a
constant number of ``O(log W)`` task-list and ``O(log P)`` processor-list
operations; finding ready tasks scans each edge once.  Total
``O(V (log W + log P) + E)`` — the paper's bound.

The implementation is :func:`repro.core.flb_array.flb_array`, the one
production kernel (see ``docs/performance.md``).  It iterates the graph's
CSR adjacency, fuses the two predecessor passes (LMT/EP and EMT-on-EP)
into one, keeps scheduler state in flat vectors and implements the five
priority lists with lazily invalidated :mod:`heapq` heaps.  The paper's
Table 1 trace is read from its finished schedule
(:func:`repro.core.trace.flb_trace`).  The seed's structured loop over the
five lists, the Theorem-3 oracle and a brute-force reference FLB are test
references (``tests/flb_oracle.py``) that the kernel must match bit for bit.
"""

from __future__ import annotations

from repro.core.flb_array import flb_array
from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.schedule.schedule import Schedule

__all__ = ["flb"]


def flb(
    graph: TaskGraph,
    machine: MachineModel,
    prefer_non_ep_on_tie: bool = True,
) -> Schedule:
    """Schedule ``graph`` with FLB on ``machine``.

    Parameters
    ----------
    graph:
        The task graph (frozen, or freezable).
    machine:
        Machine model; ``MachineModel(P)`` is the paper's contention-free
        homogeneous clique of ``P`` processors.
    prefer_non_ep_on_tie:
        The paper's rule resolves equal-start EP/non-EP candidates to the
        non-EP task (its communication is already overlapped); setting
        ``False`` prefers the EP task instead — an ablation knob, not a
        fidelity option.

    Returns
    -------
    Schedule
        A complete, valid schedule.
    """
    return flb_array(graph, machine, prefer_non_ep_on_tie=prefer_non_ep_on_tie)
