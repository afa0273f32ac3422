"""Schedule representation and validity checking.

A :class:`Schedule` maps every task of a frozen :class:`~repro.graph.TaskGraph`
to a processor, a start time ``ST`` and a finish time ``FT`` (Section 2 of
the paper).  Schedulers build it incrementally with :meth:`Schedule.place`;
the class maintains the per-processor ready times ``PRT(p)`` that all the
algorithms consult.

Because every scheduler in this repository is a non-insertion list
scheduler, tasks are appended to a processor at or after its current ready
time; :meth:`place` enforces this, which keeps per-processor task lists
sorted by construction.

:meth:`Schedule.violations` re-checks the three correctness conditions from
first principles (used by the test suite on every scheduler output):

1. every task is scheduled exactly once with ``FT = ST + comp``;
2. tasks on the same processor do not overlap;
3. every task starts no earlier than each predecessor's finish time plus the
   machine's communication delay (zero for same-processor predecessors).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.exceptions import ScheduleError
from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel

__all__ = ["Placements", "Schedule", "ScheduledTask"]

_EPS = 1e-9


@dataclass(frozen=True)
class ScheduledTask:
    """Placement record for one task."""

    task: int
    proc: int
    start: float
    finish: float


class Placements(NamedTuple):
    """A schedule's state as arrays (:meth:`Schedule.placements`).

    ``placed``/``proc``/``start``/``finish`` are task-indexed, with
    ``-1``/``0.0``/``0.0`` for an unplaced task; ``listed`` is every
    processor's task list (:meth:`Schedule.proc_tasks`) back to back, and
    ``listed_proc`` the processor of each entry; ``prt`` is
    :meth:`Schedule.prt` per processor.
    """

    placed: npt.NDArray[np.bool_]
    proc: npt.NDArray[np.int64]
    start: npt.NDArray[np.float64]
    finish: npt.NDArray[np.float64]
    listed: npt.NDArray[np.int64]
    listed_proc: npt.NDArray[np.int64]
    prt: npt.NDArray[np.float64]


class Schedule:
    """An (incrementally built) mapping of tasks to processors and times."""

    def __init__(self, graph: TaskGraph, machine: MachineModel) -> None:
        if not graph.frozen:
            raise ScheduleError("schedule requires a frozen task graph")
        self._graph = graph
        self._machine = machine
        n = graph.num_tasks
        self._proc: List[int] = [-1] * n
        self._start: List[float] = [0.0] * n
        self._finish: List[float] = [0.0] * n
        self._placed: List[bool] = [False] * n
        self._num_placed = 0
        self._proc_tasks: List[List[int]] = [[] for _ in machine.procs]
        self._prt: List[float] = [0.0] * machine.num_procs
        self._order: List[int] = []
        self._arrays_cache: Optional[
            Tuple[
                npt.NDArray[np.int64],
                npt.NDArray[np.int64],
                npt.NDArray[np.float64],
                npt.NDArray[np.float64],
            ]
        ] = None
        # Tie-rule provenance stamped by the FLB kernels: warm-start reuse
        # requires the base to have been produced under the same rule.
        self._flb_prefer: Optional[bool] = None

    # -- construction -----------------------------------------------------

    def place(
        self, task: int, proc: int, start: float, insertion: bool = False
    ) -> ScheduledTask:
        """Schedule ``task`` on ``proc`` starting at ``start``.

        The finish time is ``start + machine.duration(comp(task), proc)``
        (plain ``start + comp`` on the paper's homogeneous machine).  By default placement is
        non-insertion list scheduling: the start must respect the
        processor's current ready time.  With ``insertion=True`` the task
        may instead be slotted into an earlier idle gap, provided it fits
        without overlapping the processor's existing tasks (insertion-based
        variants of MCP/HLFET use this).
        """
        return ScheduledTask(
            task, proc, start, self._place_checked(task, proc, start, insertion)
        )

    def _place_checked(
        self, task: int, proc: int, start: float, insertion: bool = False
    ) -> float:
        """:meth:`place` without its :class:`ScheduledTask`; returns the
        finish time.

        The one home of ``place``'s checks (unknown task, unknown
        processor, already scheduled, negative start, start before
        ``PRT(proc)`` unless ``insertion``), with its messages; a failed
        check leaves the schedule unchanged.  The list-scheduling baselines
        commit through it (:class:`~repro.schedulers.base.Placer`), so they
        keep every check without building a record per placement.
        """
        placed = self._placed
        if not 0 <= task < len(placed):
            raise ScheduleError(f"unknown task {task}")
        prt = self._prt
        if not 0 <= proc < len(prt):
            raise ScheduleError(f"unknown processor {proc}")
        if placed[task]:
            raise ScheduleError(f"task {task} is already scheduled")
        if start < -_EPS:
            raise ScheduleError(f"task {task} start {start} is negative")
        speeds = self._machine.speeds
        comp = self._graph.comp(task)
        finish = start + (comp if speeds is None else comp / speeds[proc])
        if start >= prt[proc] - _EPS:
            self._proc_tasks[proc].append(task)
        elif insertion:
            position = self._insertion_position(proc, start, finish, task)
            self._proc_tasks[proc].insert(position, task)
        else:
            raise ScheduleError(
                f"task {task} start {start} precedes PRT({proc}) = {prt[proc]}"
            )
        self._proc[task] = proc
        self._start[task] = start
        self._finish[task] = finish
        placed[task] = True
        self._num_placed += 1
        self._order.append(task)
        self._arrays_cache = None
        if finish > prt[proc]:
            prt[proc] = finish
        return finish

    def _append(self, task: int, proc: int, start: float) -> float:
        """Non-insertion append without validation; returns the finish time.

        The fast scheduling kernels (``docs/performance.md``) use this in
        place of :meth:`place`; the caller guarantees everything ``place``
        checks — valid ids, an unscheduled task, and ``start >= PRT(proc)``
        — and the equivalence/validation test suite re-checks the resulting
        schedules from first principles via :meth:`violations`.
        """
        speeds = self._machine.speeds
        comp = self._graph.comp(task)
        finish = start + (comp if speeds is None else comp / speeds[proc])
        self._proc[task] = proc
        self._start[task] = start
        self._finish[task] = finish
        self._placed[task] = True
        self._num_placed += 1
        self._order.append(task)
        self._arrays_cache = None
        self._proc_tasks[proc].append(task)
        if finish > self._prt[proc]:
            self._prt[proc] = finish
        return finish

    @classmethod
    def _from_arrays(
        cls,
        graph: TaskGraph,
        machine: MachineModel,
        order: List[int],
        proc: List[int],
        start: List[float],
        finish: List[float],
        prt: List[float],
    ) -> "Schedule":
        """Bulk constructor for the array kernels (``docs/performance.md``).

        ``order`` is the placement order; ``proc``, ``start`` and ``finish``
        are task-indexed lists the schedule takes ownership of; ``prt`` is
        the per-processor ready time after the last placement.  The caller
        guarantees what :meth:`place` checks (each task placed once,
        non-insertion starts, ``finish = start + duration``); the
        equivalence suite re-checks kernel outputs from first principles
        via :meth:`violations`.
        """
        self = cls.__new__(cls)
        self._graph = graph
        self._machine = machine
        self._proc = proc
        self._start = start
        self._finish = finish
        n = graph.num_tasks
        placed = [False] * n
        proc_tasks: List[List[int]] = [[] for _ in machine.procs]
        for t in order:
            placed[t] = True
            proc_tasks[proc[t]].append(t)
        self._placed = placed
        self._num_placed = len(order)
        self._proc_tasks = proc_tasks
        self._prt = prt
        self._order = order
        self._arrays_cache = None
        self._flb_prefer = None
        return self

    def _insertion_position(
        self, proc: int, start: float, finish: float, task: int
    ) -> int:
        """Index at which ``[start, finish)`` fits into ``proc``'s idle gaps."""
        import bisect

        tasks_on_proc = self._proc_tasks[proc]
        starts = [self._start[t] for t in tasks_on_proc]
        position = bisect.bisect_right(starts, start)
        if position > 0:
            prev = tasks_on_proc[position - 1]
            if self._finish[prev] > start + _EPS:
                raise ScheduleError(
                    f"task {task} insertion at {start} overlaps task {prev} "
                    f"finishing at {self._finish[prev]} on processor {proc}"
                )
        if position < len(tasks_on_proc):
            nxt = tasks_on_proc[position]
            if finish > self._start[nxt] + _EPS:
                raise ScheduleError(
                    f"task {task} insertion ending {finish} overlaps task {nxt} "
                    f"starting at {self._start[nxt]} on processor {proc}"
                )
        return position

    def earliest_gap(self, proc: int, lower_bound: float, duration: float) -> float:
        """Earliest start >= ``lower_bound`` at which a ``duration``-long task
        fits on ``proc`` — inside an idle gap or after the last task.

        ``O(tasks on proc)``; the building block of insertion-based
        placement.  A bound at or after ``PRT(proc)`` (the latest finish on
        ``proc``) is returned at once: no task can move it.
        """
        candidate = max(lower_bound, 0.0)
        if candidate >= self._prt[proc]:
            return candidate
        for t in self._proc_tasks[proc]:
            if self._start[t] - candidate >= duration - _EPS:
                return candidate
            if self._finish[t] > candidate:
                candidate = self._finish[t]
        return candidate

    # -- queries -------------------------------------------------------------

    @property
    def graph(self) -> TaskGraph:
        return self._graph

    @property
    def machine(self) -> MachineModel:
        return self._machine

    @property
    def num_procs(self) -> int:
        return self._machine.num_procs

    def is_scheduled(self, task: int) -> bool:
        return self._placed[task]

    @property
    def complete(self) -> bool:
        """True when every task has been placed."""
        return self._num_placed == self._graph.num_tasks

    def proc_of(self, task: int) -> int:
        """``PROC(t)``; raises if the task is unscheduled."""
        self._check_placed(task)
        return self._proc[task]

    def start_of(self, task: int) -> float:
        """``ST(t)``."""
        self._check_placed(task)
        return self._start[task]

    def finish_of(self, task: int) -> float:
        """``FT(t)``."""
        self._check_placed(task)
        return self._finish[task]

    def entry(self, task: int) -> ScheduledTask:
        self._check_placed(task)
        return ScheduledTask(task, self._proc[task], self._start[task], self._finish[task])

    def prt(self, proc: int) -> float:
        """Processor ready time: finish of the last task on ``proc``."""
        return self._prt[proc]

    def proc_tasks(self, proc: int) -> Tuple[int, ...]:
        """Tasks assigned to ``proc`` in execution order."""
        return tuple(self._proc_tasks[proc])

    def assignment(self) -> Dict[int, int]:
        """``{task: proc}`` for all scheduled tasks."""
        return {t: self._proc[t] for t in self._graph.tasks() if self._placed[t]}

    def placement_order(self) -> Tuple[int, ...]:
        """Task ids in the order the scheduler placed them.

        Start times alone cannot recover this (simultaneous starts on
        different processors are common); the warm-start rescheduler
        (:mod:`repro.incremental`) replays a base schedule's decision
        sequence, so the order is recorded explicitly.
        """
        return tuple(self._order)

    def placements(self) -> Placements:
        """Every placement, processor list and ready time as fresh arrays.

        The bulk form of :meth:`is_scheduled`, :meth:`proc_of`,
        :meth:`start_of`, :meth:`finish_of`, :meth:`proc_tasks` and
        :meth:`prt`, with the same values.  Not cached: each call reads the
        schedule's current state, so an independent checker
        (:func:`repro.verify.certify`) sees exactly what those queries
        would answer.
        """
        n = len(self._placed)
        lists = self._proc_tasks
        sizes = list(map(len, lists))
        # One conversion per dtype; the fields are slices of the two.
        ints = np.fromiter(
            chain(self._proc, *lists), dtype=np.int64, count=n + sum(sizes)
        )
        floats = np.fromiter(
            chain(self._start, self._finish, self._prt),
            dtype=np.float64,
            count=2 * n + len(self._prt),
        )
        placed = np.array(self._placed, dtype=bool)
        proc, start, finish = ints[:n], floats[:n], floats[n : 2 * n]
        if not placed.all():
            unplaced = ~placed
            proc[unplaced] = -1
            start[unplaced] = 0.0
            finish[unplaced] = 0.0
        return Placements(
            placed=placed,
            proc=proc,
            start=start,
            finish=finish,
            listed=ints[n:],
            listed_proc=np.repeat(np.arange(len(lists), dtype=np.int64), sizes),
            prt=floats[2 * n :],
        )

    def _placement_arrays(
        self,
    ) -> Tuple[
        npt.NDArray[np.int64],
        npt.NDArray[np.int64],
        npt.NDArray[np.float64],
        npt.NDArray[np.float64],
    ]:
        """``(order, proc, start, finish)`` as NumPy vectors (cached).

        ``order`` is placement-order task ids; the other three are
        task-indexed.  Read-only by contract — the warm-start path gathers
        prefix placements from these without per-task Python loops.
        """
        cached = self._arrays_cache
        if cached is None:
            cached = (
                np.asarray(self._order, dtype=np.int64),
                np.asarray(self._proc, dtype=np.int64),
                np.asarray(self._start, dtype=np.float64),
                np.asarray(self._finish, dtype=np.float64),
            )
            self._arrays_cache = cached
        return cached

    def __iter__(self) -> Iterator[ScheduledTask]:
        """Iterate placements in global start-time order."""
        order = sorted(
            (t for t in self._graph.tasks() if self._placed[t]),
            key=lambda t: (self._start[t], self._proc[t]),
        )
        for t in order:
            yield self.entry(t)

    def __len__(self) -> int:
        return self._num_placed

    @property
    def makespan(self) -> float:
        """Parallel completion time ``T_par = max_p PRT(p)``."""
        return max(self._prt)

    def num_procs_used(self) -> int:
        return sum(1 for tasks in self._proc_tasks if tasks)

    def __repr__(self) -> str:
        done = "complete" if self.complete else f"{self._num_placed}/{self._graph.num_tasks}"
        return (
            f"<Schedule P={self.num_procs} {done} "
            f"makespan={self.makespan:.3f}>"
        )

    # -- validation -----------------------------------------------------------

    def violations(self) -> List[str]:
        """Check all schedule-correctness conditions; return human-readable
        descriptions of every violation (empty list = valid).

        Delegates to the independent checker in :mod:`repro.verify.certify`
        (structural invariants ``S001``..``S007``), which recomputes every
        quantity from the graph and machine model rather than trusting this
        class's internals.  Use :func:`repro.verify.certify` directly for
        the machine-readable :class:`~repro.verify.Certificate` and the
        FLB/ETF greedy certificate.
        """
        from repro.verify.certify import certify

        return [v.message for v in certify(self).violations]

    def validate(self) -> "Schedule":
        """Raise :class:`~repro.exceptions.InvalidScheduleError` on any
        violation; else return self.

        The message is the one every entry point's check raises
        (:meth:`repro.verify.Certificate.raise_if_invalid`).
        """
        from repro.verify.certify import certify

        certify(self).raise_if_invalid()
        return self

    # -- rendering ---------------------------------------------------------------

    def as_table(self) -> str:
        """Render placements as an aligned text table (start-time order)."""
        from repro.util.tables import format_table

        rows = [
            (self._graph.name(e.task), e.task, e.proc, e.start, e.finish)
            for e in self
        ]
        return format_table(
            ["task", "id", "proc", "start", "finish"],
            rows,
            title=f"schedule on {self.num_procs} processors, makespan {self.makespan:g}",
        )

    def _check_placed(self, task: int) -> None:
        if not self._placed[task]:
            raise ScheduleError(f"task {task} is not scheduled")
