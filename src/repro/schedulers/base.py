"""Shared machinery for the baseline schedulers.

Everything here implements the common vocabulary of Section 2 of the paper
on a partial schedule: message arrival (``EMT``) and start (``EST``) times,
and ready-set tracking.  The baselines deliberately do *not* reuse FLB's
priority-list machinery — each is implemented the way its own paper
describes it, so cost comparisons between the algorithms remain meaningful.

:class:`Placer` is the one ``EMT``/``EST`` evaluator of the list-scheduling
baselines (MCP, HLFET, DLS, LLB, HEFT and the insertion variants).  It runs
on the graph's CSR list mirrors with task-indexed finish/processor lists,
and evaluates every (task, processor) pair by scanning all of the task's
predecessors — the ``O((E + V) P)`` work of the paper's Fig. 2 cost model,
kept on purpose (see ``docs/performance.md``).  Its commits keep every check
of :meth:`Schedule.place`, but a non-insertion commit builds no
``ScheduledTask``: none of these schedulers reads the record, and building
it costs more than the checks.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.schedule.schedule import Schedule

__all__ = [
    "Placer",
    "ReadyTracker",
]


class Placer:
    """``EMT``/``EST`` evaluation and placement for a schedule under
    construction.

    Owns :attr:`schedule` (empty at construction) and reads its
    task-indexed finish and processor lists and its ready times
    :attr:`prt` in place, so an evaluation reads no dicts and calls no
    methods.  All placements go through :meth:`place`, which commits with
    every check of :meth:`Schedule.place`.

    Arrivals use ETF's arithmetic: ``FT(pred)`` from a predecessor on the
    same processor, else ``FT(pred) + (latency + comm_scale * comm)``,
    parenthesised like :meth:`MachineModel.remote_delay`, so every ``EMT``
    is bit-identical to one built from ``comm_delay`` and ``graph.comm``.
    """

    __slots__ = (
        "schedule",
        "prt",
        "_finish",
        "_proc",
        "_pred_ptr",
        "_pred_ids",
        "_pred_comm",
        "_delay",
        "_zeros",
    )

    def __init__(self, graph: TaskGraph, machine: MachineModel) -> None:
        graph.freeze()
        csr = graph.csr().lists
        self.schedule = Schedule(graph, machine)
        # The schedule's own lists, which its commits update in place.
        #: ``PRT(p)`` for every processor (read-only by contract).
        self.prt: List[float] = self.schedule._prt
        self._finish: List[float] = self.schedule._finish
        self._proc: List[int] = self.schedule._proc
        self._pred_ptr = csr.pred_ptr
        self._pred_ids = csr.pred_ids
        self._pred_comm = csr.pred_comm
        self._delay = (machine.latency, machine.comm_scale)
        self._zeros = [0.0] * machine.num_procs

    def emt(self, task: int, proc: int) -> float:
        """``EMT(task, proc)``: the latest message arrival if ``task`` ran
        on ``proc``.  Every predecessor must be placed.  ``O(in_degree)``."""
        finish, on_proc, pred_ids, pred_comm = (
            self._finish, self._proc, self._pred_ids, self._pred_comm
        )
        lat, scale = self._delay
        emt = 0.0
        for i in range(self._pred_ptr[task], self._pred_ptr[task + 1]):
            pred = pred_ids[i]
            ft = finish[pred]
            arr = ft if on_proc[pred] == proc else ft + (lat + scale * pred_comm[i])
            if arr > emt:
                emt = arr
        return emt

    def emts(self, task: int) -> List[float]:
        """``EMT(task, p)`` for every processor ``p``, in one loop nest
        (HEFT and the insertion variants search idle gaps from these)."""
        return self._scan(task, self._zeros)

    def ests(self, task: int) -> List[float]:
        """``EST(task, p) = max(EMT(task, p), PRT(p))`` for every processor
        ``p``, in one loop nest."""
        return self._scan(task, self.prt)

    def best_est(self, task: int) -> Tuple[int, float]:
        """The processor where ``task`` starts the earliest (non-insertion)
        and that start; ties go to the lower processor id."""
        ests = self.ests(task)
        est = min(ests)
        return ests.index(est), est

    def _scan(self, task: int, floors: List[float]) -> List[float]:
        """``max(floors[p], EMT(task, p))`` for every processor ``p``.

        ETF's inner loop nest: every (task, processor) pair scans all of the
        task's predecessors with the same arithmetic as ETF, so a call costs
        ``O(in_degree * P)`` — Fig. 2's ``(E + V) P`` term — and MCP's cost
        stays comparable with ETF's pair for pair.  Seeding the running
        maximum with ``PRT(p)`` instead of ``0.0`` gives ``EST`` directly,
        since ``max`` is exact.
        """
        finish, on_proc, pred_ids, pred_comm = (
            self._finish, self._proc, self._pred_ids, self._pred_comm
        )
        lat, scale = self._delay
        lo, hi = self._pred_ptr[task], self._pred_ptr[task + 1]
        out = []
        for proc, emt in enumerate(floors):
            for i in range(lo, hi):
                pred = pred_ids[i]
                ft = finish[pred]
                arr = ft if on_proc[pred] == proc else ft + (lat + scale * pred_comm[i])
                if arr > emt:
                    emt = arr
            out.append(emt)
        return out

    def place(
        self, task: int, proc: int, start: float, insertion: bool = False
    ) -> float:
        """Commit ``task`` to ``proc`` at ``start``; returns the finish time.

        A non-insertion placement commits through the schedule's checked
        append (``Schedule._place_checked``), which runs every check of
        :meth:`Schedule.place` and builds no ``ScheduledTask``; an
        insertion goes through :meth:`Schedule.place` itself.
        """
        if insertion:
            return self.schedule.place(task, proc, start, True).finish
        return self.schedule._place_checked(task, proc, start)


class ReadyTracker:
    """Incremental ready-set maintenance (a task is ready when every
    predecessor has been scheduled)."""

    def __init__(self, graph: TaskGraph) -> None:
        graph.freeze()
        self._graph = graph
        self._remaining: List[int] = [graph.in_degree(t) for t in graph.tasks()]
        self.ready: List[int] = list(graph.entry_tasks)

    def mark_scheduled(self, task: int) -> List[int]:
        """Record ``task`` as scheduled; return (and track) newly ready tasks."""
        newly = []
        for succ in self._graph.succs(task):
            self._remaining[succ] -= 1
            if self._remaining[succ] == 0:
                newly.append(succ)
        self.ready.extend(newly)
        return newly

    def remove_ready(self, task: int) -> None:
        self.ready.remove(task)
