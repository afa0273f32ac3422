"""The five priority structures at the heart of FLB (Section 4.1).

The paper maintains, for a partial schedule:

* per processor ``p``, the EP-type ready tasks enabled by ``p`` sorted by
  their effective message arrival time — ``EMT_EP_task_l[p]``;
* per processor ``p``, the same tasks sorted by their last message arrival
  time — ``LMT_EP_task_l[p]`` (used to demote tasks to non-EP when
  ``PRT(p)`` overtakes their ``LMT``);
* the non-EP-type ready tasks sorted by ``LMT`` — ``nonEP_task_l``;
* the *active* processors (those enabling at least one EP task) sorted by
  the minimum ``EST`` of the tasks they enable — ``active_proc_l``;
* all processors sorted by ``PRT`` — ``all_proc_l``.

Ties inside the three task lists are broken by the longer static bottom
level, then by task id; processor keys embed the processor id.  Every
operation here is ``O(log W)`` or ``O(log P)``, which is what gives FLB its
``O(V (log W + log P) + E)`` bound.

:class:`FlbLists` encapsulates those structures behind the operations the
algorithm needs; :mod:`repro.core.flb` drives it.  Keeping it separate makes
the bookkeeping directly unit-testable.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.util.heap import IndexedHeap

__all__ = ["FlbLists"]


class FlbLists:
    """Priority-list state for FLB over ``num_procs`` processors.

    The caller supplies, per task, the static bottom level used for
    tie-breaking, and per insertion the task's ``LMT``, enabling processor
    and ``EMT`` on that processor.  The structure does not compute any of
    these quantities itself.
    """

    def __init__(self, num_procs: int, bottom_level: Sequence[float]) -> None:
        if num_procs < 1:
            raise ValueError(f"num_procs must be >= 1, got {num_procs}")
        self._bl = bottom_level
        self.num_procs = num_procs
        self._emt_ep: List[IndexedHeap[int]] = [
            IndexedHeap() for _ in range(num_procs)
        ]
        self._lmt_ep: List[IndexedHeap[int]] = [
            IndexedHeap() for _ in range(num_procs)
        ]
        self._non_ep: IndexedHeap[int] = IndexedHeap()
        self._active: IndexedHeap[int] = IndexedHeap()
        self._all_procs: IndexedHeap[int] = IndexedHeap()
        self._prt: List[float] = [0.0] * num_procs
        for p in range(num_procs):
            self._all_procs.push(p, (0.0, p))

    # -- key helpers ---------------------------------------------------------

    def _task_key(self, value: float, task: int) -> Tuple[float, float, int]:
        # Smaller value first; larger bottom level first; task id last.
        return (value, -self._bl[task], task)

    def _refresh_active(self, proc: int) -> None:
        """Re-derive ``proc``'s entry in the active-processor list from the
        head of its EMT list and its PRT (the paper's ``UpdateProcLists``)."""
        head = self._emt_ep[proc].peek_item()
        if head is None:
            self._active.discard(proc)
        else:
            emt = self._emt_ep[proc].key_of(head)[0]
            est = max(emt, self._prt[proc])
            self._active.push_or_update(proc, (est, proc))

    # -- queries ----------------------------------------------------------------

    def prt(self, proc: int) -> float:
        return self._prt[proc]

    def best_ep_candidate(self) -> Optional[Tuple[int, int, float]]:
        """``(task, proc, est)`` for case (a): the EP task with minimum
        ``EST(t, EP(t))``, or ``None`` if there is no EP task."""
        proc = self._active.peek_item()
        if proc is None:
            return None
        est = float(self._active.key_of(proc)[0])
        task = self._emt_ep[proc].peek_item()
        assert task is not None, "active processor with empty EP list"
        return task, proc, est

    def best_non_ep_candidate(self) -> Optional[Tuple[int, int, float]]:
        """``(task, proc, est)`` for case (b): the non-EP task with minimum
        ``LMT`` on the earliest-idle processor, or ``None``."""
        task = self._non_ep.peek_item()
        if task is None:
            return None
        proc = self._all_procs.peek_item()
        assert proc is not None
        lmt = float(self._non_ep.key_of(task)[0])
        return task, proc, max(lmt, self._prt[proc])

    def ep_tasks_by_emt(self, proc: int) -> List[Tuple[int, float]]:
        """EP tasks enabled by ``proc`` as ``(task, EMT)`` in list order
        (for trace rendering)."""
        return [(t, key[0]) for t, key in self._emt_ep[proc].sorted_items()]

    def non_ep_tasks_by_lmt(self) -> List[Tuple[int, float]]:
        """Non-EP tasks as ``(task, LMT)`` in list order (for trace rendering)."""
        return [(t, key[0]) for t, key in self._non_ep.sorted_items()]

    def ready_tasks(self) -> List[int]:
        """All ready tasks in no particular order."""
        out = list(self._non_ep)
        for heap in self._emt_ep:
            out.extend(heap)
        return out

    def lmt_of_ep_task(self, proc: int, task: int) -> float:
        return float(self._lmt_ep[proc].key_of(task)[0])

    # -- mutations -------------------------------------------------------------

    def add_ready_task(
        self,
        task: int,
        lmt: float,
        enabling_proc: Optional[int],
        emt_on_ep: float,
    ) -> None:
        """Insert a newly ready task (the paper's ``UpdateReadyTasks`` body).

        A task is EP-type iff ``LMT(t) >= PRT(EP(t))``; entry tasks (no
        enabling processor) are always non-EP.
        """
        if enabling_proc is not None and lmt >= self._prt[enabling_proc]:
            self._emt_ep[enabling_proc].push(task, self._task_key(emt_on_ep, task))
            self._lmt_ep[enabling_proc].push(task, self._task_key(lmt, task))
            self._refresh_active(enabling_proc)
        else:
            self._non_ep.push(task, self._task_key(lmt, task))

    def remove_ep_task(self, proc: int, task: int) -> None:
        """Remove a (scheduled) EP task from ``proc``'s two lists."""
        self._emt_ep[proc].remove(task)
        self._lmt_ep[proc].remove(task)
        self._refresh_active(proc)

    def remove_non_ep_task(self, task: int) -> None:
        self._non_ep.remove(task)

    def set_prt(self, proc: int, prt: float) -> List[int]:
        """Update ``PRT(proc)`` after a placement; demote EP tasks whose
        ``LMT`` fell below it (the paper's ``UpdateTaskLists``) and refresh
        both processor lists.  Returns the demoted tasks.
        """
        self._prt[proc] = prt
        demoted: List[int] = []
        lmt_heap = self._lmt_ep[proc]
        while True:
            task = lmt_heap.peek_item()
            if task is None:
                break
            lmt = lmt_heap.key_of(task)[0]
            if lmt >= prt:
                break
            lmt_heap.remove(task)
            self._emt_ep[proc].remove(task)
            self._non_ep.push(task, self._task_key(lmt, task))
            demoted.append(task)
        self._all_procs.update(proc, (prt, proc))
        self._refresh_active(proc)
        return demoted

    # -- consistency (tests only) --------------------------------------------------

    def check_invariants(self) -> None:
        """Assert cross-structure consistency; used by the test suite."""
        for p in range(self.num_procs):
            assert len(self._emt_ep[p]) == len(self._lmt_ep[p]), (
                f"EP lists of processor {p} out of sync"
            )
            for task in self._emt_ep[p]:
                assert task in self._lmt_ep[p]
                lmt = self._lmt_ep[p].key_of(task)[0]
                assert lmt >= self._prt[p], (
                    f"task {task} on proc {p} should have been demoted: "
                    f"LMT {lmt} < PRT {self._prt[p]}"
                )
            if len(self._emt_ep[p]) == 0:
                assert p not in self._active
            else:
                assert p in self._active
                head = self._emt_ep[p].peek_item()
                assert head is not None
                emt = self._emt_ep[p].key_of(head)[0]
                assert self._active.key_of(p) == (max(emt, self._prt[p]), p)
            assert self._all_procs.key_of(p) == (self._prt[p], p)
        for heap in [*self._emt_ep, *self._lmt_ep, self._non_ep, self._active, self._all_procs]:
            heap.check_invariants()
