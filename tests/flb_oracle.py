"""FLB's structured loop and its observers, kept as test references for
the production kernel (:func:`repro.core.flb_array.flb_array`).

* :class:`FlbLists` holds the paper's five priority lists (Section 4.1):
  per processor, the EP-type tasks it enables by ``EMT`` and by ``LMT``;
  the non-EP-type tasks by ``LMT``; the active processors by minimum
  ``EST``; all processors by ``PRT``.  Task ties go to the larger bottom
  level, then the smaller id.  :func:`flb_observed` is the seed
  implementation that drives them; with no observer it is the baseline
  ``benchmarks/bench_throughput.py::test_array_kernel_beats_seed_4x``
  times.
* :class:`TraceRecorder` records the Table 1 rows from the lists
  themselves: the oracle for :func:`repro.core.trace.flb_trace`, which
  derives them from the finished schedule.
* :class:`OracleObserver` asserts Theorem 3 at every iteration: the chosen
  start time is ``EST(task, proc)`` recomputed in full, and no ready
  (task, processor) pair starts earlier (:func:`brute_force_min_est`).
* :func:`flb_reference` re-implements FLB's decisions with no priority
  lists; its schedule must equal the kernel's bit for bit, which pins the
  exact choice where the oracle only pins its start time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.core.trace import EpEntry, TraceRow
from repro.exceptions import SchedulerError
from repro.graph.properties import bottom_levels
from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.schedule.schedule import Schedule
from repro.util.heap import IndexedHeap


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
    """Observer protocol for :func:`flb_observed`."""

    def on_iteration(self, snapshot: FlbIteration) -> None:  # pragma: no cover
        ...


def flb_observed(
    graph: TaskGraph,
    machine: MachineModel,
    observer: Optional[FlbObserver] = None,
    prefer_non_ep_on_tie: bool = True,
) -> Schedule:
    """The seed implementation: the paper's pseudo-code over
    :class:`FlbLists`, handing ``observer`` a :class:`FlbIteration`
    snapshot before every placement."""
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


class TraceRecorder:
    """Collects a :class:`~repro.core.trace.TraceRow` per iteration, read
    off the lists as they stand before the placement."""

    def __init__(self, graph: TaskGraph) -> None:
        self.graph = graph
        self._bl = bottom_levels(graph)
        self.rows: List[TraceRow] = []

    def on_iteration(self, snapshot: FlbIteration) -> None:
        lists = snapshot.lists
        ep_tasks: Dict[int, List[EpEntry]] = {}
        for p in range(lists.num_procs):
            entries = [
                EpEntry(
                    task=t,
                    emt=emt,
                    bottom_level=self._bl[t],
                    lmt=lists.lmt_of_ep_task(p, t),
                )
                for t, emt in lists.ep_tasks_by_emt(p)
            ]
            if entries:
                ep_tasks[p] = entries
        duration = snapshot.schedule.machine.duration(
            self.graph.comp(snapshot.chosen_task), snapshot.chosen_proc
        )
        self.rows.append(
            TraceRow(
                iteration=snapshot.iteration,
                ep_tasks=ep_tasks,
                non_ep_tasks=lists.non_ep_tasks_by_lmt(),
                task=snapshot.chosen_task,
                proc=snapshot.chosen_proc,
                start=snapshot.chosen_start,
                finish=snapshot.chosen_start + duration,
                is_ep=snapshot.chosen_is_ep,
            )
        )


_EPS = 1e-9


def est_of(schedule: Schedule, task: int, proc: int) -> float:
    """``EST(task, proc)`` on the given partial schedule, recomputed in full."""
    graph = schedule.graph
    machine = schedule.machine
    emt = 0.0
    for pred in graph.preds(task):
        arrival = schedule.finish_of(pred) + machine.comm_delay(
            schedule.proc_of(pred), proc, graph.comm(pred, task)
        )
        if arrival > emt:
            emt = arrival
    return max(emt, schedule.prt(proc))


def brute_force_min_est(
    schedule: Schedule, ready_tasks: Iterable[int]
) -> Tuple[float, List[Tuple[int, int]]]:
    """Exhaustive ETF-style scan: the minimum ``EST`` over every
    (ready task, processor) pair, plus all pairs achieving it."""
    best = float("inf")
    argmins: List[Tuple[int, int]] = []
    for task in ready_tasks:
        for proc in schedule.machine.procs:
            est = est_of(schedule, task, proc)
            if est < best - _EPS:
                best = est
                argmins = [(task, proc)]
            elif abs(est - best) <= _EPS:
                argmins.append((task, proc))
    return best, argmins


class OracleViolation(AssertionError):
    """FLB's choice did not achieve the brute-force minimum start time."""


class OracleObserver:
    """FLB observer asserting Theorem 3 at every iteration.

    Also keeps counters so tests can assert the oracle actually ran and how
    often genuine EP/non-EP tie situations occurred.
    """

    def __init__(self) -> None:
        self.iterations = 0
        self.tie_iterations = 0

    def on_iteration(self, snapshot: FlbIteration) -> None:
        self.iterations += 1
        schedule = snapshot.schedule
        ready = snapshot.lists.ready_tasks()
        assert snapshot.chosen_task in ready

        recomputed = est_of(schedule, snapshot.chosen_task, snapshot.chosen_proc)
        if abs(recomputed - snapshot.chosen_start) > _EPS:
            raise OracleViolation(
                f"iteration {snapshot.iteration}: FLB claims task "
                f"{snapshot.chosen_task} starts at {snapshot.chosen_start} on "
                f"p{snapshot.chosen_proc}, but EST recomputes to {recomputed}"
            )

        best, argmins = brute_force_min_est(schedule, ready)
        if abs(best - snapshot.chosen_start) > _EPS:
            raise OracleViolation(
                f"iteration {snapshot.iteration}: FLB start "
                f"{snapshot.chosen_start} (task {snapshot.chosen_task} on "
                f"p{snapshot.chosen_proc}) != brute-force minimum {best} "
                f"achieved by {argmins[:5]}"
            )
        if (
            snapshot.ep_candidate is not None
            and snapshot.non_ep_candidate is not None
            and abs(snapshot.ep_candidate[2] - snapshot.non_ep_candidate[2]) <= _EPS
        ):
            # The paper's tie rule: prefer the non-EP candidate (inverted
            # when the run uses the ablation flag).
            self.tie_iterations += 1
            if snapshot.chosen_is_ep == snapshot.prefers_non_ep:
                raise OracleViolation(
                    f"iteration {snapshot.iteration}: tie at "
                    f"{snapshot.chosen_start} resolved against the configured "
                    f"preference"
                )


def flb_reference(
    graph: TaskGraph,
    machine: MachineModel,
) -> Schedule:
    """FLB's semantics by brute force: every iteration scans every ready
    task and processor (``O(W P)``, like ETF), with the kernel's tie keys."""
    graph.freeze()
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
