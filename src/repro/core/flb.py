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

Definitions (Section 2; see also :mod:`repro.core.lists`):

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

Two implementations share that algorithm (see ``docs/performance.md``):

* :func:`repro.core.flb_array.flb_array` — the production kernel, taken
  whenever no ``observer`` is supplied.  It iterates the graph's CSR
  adjacency, fuses the two predecessor passes (LMT/EP and EMT-on-EP) into
  one, keeps scheduler state in flat vectors and implements the five
  priority lists with lazily invalidated :mod:`heapq` heaps.
* :func:`_flb_observed` — the original structured loop over
  :class:`~repro.core.lists.FlbLists`, taken whenever an ``observer`` is
  supplied.  The ``observer`` hook exposes every iteration's candidate lists
  and decision to the trace recorder (:mod:`repro.core.trace`, reproducing
  Table 1) and to the brute-force oracle (:mod:`repro.core.oracle`, testing
  Theorem 3).

Both paths produce bit-identical schedules on every input — enforced by the
equivalence suite in ``tests/test_fastpath_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, Tuple

from repro.exceptions import SchedulerError
from repro.graph.properties import bottom_levels
from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.core.flb_array import flb_array
from repro.core.lists import FlbLists
from repro.schedule.schedule import Schedule

__all__ = ["flb", "FlbObserver", "FlbIteration"]


@dataclass(frozen=True)
class FlbIteration:
    """Snapshot of one FLB iteration, passed to observers *before* placement.

    ``ep_candidate`` / ``non_ep_candidate`` are the two Theorem-3 candidate
    pairs as ``(task, proc, est)`` (``None`` when the corresponding list is
    empty); ``chosen_*`` describe the decision actually taken.
    """

    iteration: int
    lists: FlbLists
    schedule: Schedule
    ep_candidate: Optional[Tuple[int, int, float]]
    non_ep_candidate: Optional[Tuple[int, int, float]]
    chosen_task: int
    chosen_proc: int
    chosen_start: float
    chosen_is_ep: bool
    lmt: Sequence[float]
    emt_on_ep: Sequence[float]
    prefers_non_ep: bool = True


class FlbObserver(Protocol):
    """Observer protocol for :func:`flb`."""

    def on_iteration(self, snapshot: FlbIteration) -> None:  # pragma: no cover
        ...


def flb(
    graph: TaskGraph,
    num_procs: Optional[int] = None,
    machine: Optional[MachineModel] = None,
    observer: Optional[FlbObserver] = None,
    prefer_non_ep_on_tie: bool = True,
) -> Schedule:
    """Schedule ``graph`` with FLB on ``num_procs`` processors.

    Parameters
    ----------
    graph:
        The task graph (frozen, or freezable).
    num_procs:
        Number of processors; alternatively pass a full ``machine``.
    machine:
        Machine model; defaults to the paper's contention-free homogeneous
        clique of ``num_procs`` processors.
    observer:
        Optional per-iteration hook (trace recording, oracle checking).
        Supplying one selects the slower observed path, whose per-iteration
        :class:`FlbIteration` snapshots the array kernel skips entirely.
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
    graph.freeze()
    if machine is None:
        if num_procs is None:
            raise SchedulerError("flb requires num_procs or machine")
        machine = MachineModel(num_procs)
    elif num_procs is not None and machine.num_procs != num_procs:
        raise SchedulerError(
            f"num_procs={num_procs} conflicts with machine.num_procs={machine.num_procs}"
        )
    if observer is None:
        return flb_array(graph, machine=machine,
                         prefer_non_ep_on_tie=prefer_non_ep_on_tie)
    return _flb_observed(graph, machine, observer, prefer_non_ep_on_tie)


def _flb_observed(
    graph: TaskGraph,
    machine: MachineModel,
    observer: Optional[FlbObserver],
    prefer_non_ep_on_tie: bool,
) -> Schedule:
    """The structured :class:`FlbLists` path with per-iteration snapshots.

    Also runnable with ``observer=None``: the perf gate uses it that way as
    the seed-implementation baseline, and the equivalence tests pin its
    output against :func:`~repro.core.flb_array.flb_array`.
    """
    n = graph.num_tasks
    bl = bottom_levels(graph)
    lists = FlbLists(machine.num_procs, bl)
    schedule = Schedule(graph, machine)

    # Per-ready-task cached quantities (valid only while the task is ready).
    lmt: List[float] = [0.0] * n
    ep: List[Optional[int]] = [None] * n
    emt_on_ep: List[float] = [0.0] * n
    unscheduled_preds: List[int] = [graph.in_degree(t) for t in graph.tasks()]

    for t in graph.entry_tasks:
        # Entry tasks have no enabling processor and are non-EP with LMT 0.
        lists.add_ready_task(t, 0.0, None, 0.0)

    for iteration in range(n):
        cand_ep = lists.best_ep_candidate()
        cand_non = lists.best_non_ep_candidate()
        if cand_non is None and cand_ep is None:
            raise SchedulerError("no ready task but schedule incomplete (bug)")
        # Theorem 3: compare the two candidates; per the paper, ties favour
        # the non-EP task (ablatable via prefer_non_ep_on_tie).
        if cand_non is None:
            take_ep = True
        elif cand_ep is None:
            take_ep = False
        elif prefer_non_ep_on_tie:
            take_ep = cand_ep[2] < cand_non[2]
        else:
            take_ep = cand_ep[2] <= cand_non[2]
        if take_ep:
            assert cand_ep is not None
            task, proc, est = cand_ep
            is_ep = True
        else:
            assert cand_non is not None
            task, proc, est = cand_non
            is_ep = False

        if observer is not None:
            observer.on_iteration(
                FlbIteration(
                    iteration=iteration,
                    lists=lists,
                    schedule=schedule,
                    ep_candidate=cand_ep,
                    non_ep_candidate=cand_non,
                    chosen_task=task,
                    chosen_proc=proc,
                    chosen_start=est,
                    chosen_is_ep=is_ep,
                    lmt=lmt,
                    emt_on_ep=emt_on_ep,
                    prefers_non_ep=prefer_non_ep_on_tie,
                )
            )

        # ScheduleTask.
        if is_ep:
            lists.remove_ep_task(proc, task)
        else:
            lists.remove_non_ep_task(task)
        placed = schedule.place(task, proc, est)

        # UpdateTaskLists + UpdateProcLists.
        lists.set_prt(proc, placed.finish)

        # UpdateReadyTasks.
        for succ in graph.succs(task):
            unscheduled_preds[succ] -= 1
            if unscheduled_preds[succ] > 0:
                continue
            # LMT and enabling processor: predecessor whose message is the
            # last to arrive, with deterministic (arrival, FT, id) ties.
            best_arrival = 0.0
            best_key: Tuple[float, float, int] = (-1.0, -1.0, -1)
            best_proc = 0
            for pred in graph.preds(succ):
                ft = schedule.finish_of(pred)
                arrival = ft + machine.remote_delay(graph.comm(pred, succ))
                key = (arrival, ft, pred)
                if key > best_key:
                    best_key = key
                    best_arrival = arrival
                    best_proc = schedule.proc_of(pred)
            lmt[succ] = best_arrival
            ep[succ] = best_proc
            # EMT on the enabling processor (same-processor messages free).
            emt = 0.0
            for pred in graph.preds(succ):
                arrival = schedule.finish_of(pred) + machine.comm_delay(
                    schedule.proc_of(pred), best_proc, graph.comm(pred, succ)
                )
                if arrival > emt:
                    emt = arrival
            emt_on_ep[succ] = emt
            lists.add_ready_task(succ, best_arrival, best_proc, emt)

    return schedule
