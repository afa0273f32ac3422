"""Supervised worker processes with deadlines that are actually enforced.

``concurrent.futures.ProcessPoolExecutor`` cannot contain a hung worker: a
future has no handle on the process running it, so "timing out" a future
merely stops waiting for the answer — the worker keeps spinning, the pool
slot stays occupied, and the executor's shutdown joins the runaway process,
blocking the caller indefinitely.  For a serving layer that must answer by a
deadline no matter what user-supplied work does (the lesson of decentralized
list scheduling: tolerate slow or failed participants without global
stalls), that is the wrong primitive.

This module owns the worker lifecycle directly:

* each worker is a ``multiprocessing.Process`` with a private duplex pipe;
  the supervisor assigns one item at a time and the worker acknowledges
  with a ``started`` message *before* touching the item, so deadlines are
  measured from true execution start, never from submission — queued items
  cannot be falsely expired by a slow predecessor;
* the supervisor waits on pipes *and* process sentinels with a
  deadline-aware timeout (the earliest kill deadline or retry due-time), so
  an overrunning item is detected promptly instead of after up to a full
  extra budget;
* an item that exceeds its ``timeout`` gets its worker ``SIGKILL``-ed and
  the pool slot replaced, bounding each overrun to ``timeout + grace``;
* a worker that dies mid-item (OOM-kill, segfault, interpreter abort) is
  detected via its sentinel, the item is retried up to ``retries`` times
  with exponential backoff, and the slot is replaced.  Timeouts are *not*
  retried: the work here is deterministic, so an item that overran once
  would overrun again.

Outcomes carry a small taxonomy (:data:`COMPLETED` / :data:`TIMEOUT` /
:data:`DIED` / :data:`RAISED`) plus queue-wait vs run-time accounting, so
callers can report failures structurally instead of parsing tracebacks.
:mod:`repro.batch` builds its scheduling front-end on top of this.
"""

from __future__ import annotations

import heapq
import multiprocessing
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from multiprocessing.connection import wait as _connection_wait
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "TaskOutcome",
    "run_supervised",
    "MAX_BACKOFF",
    "COMPLETED",
    "TIMEOUT",
    "DIED",
    "RAISED",
    "OUTCOME_KINDS",
]

#: Ceiling for the exponential death-retry backoff, in seconds (read at
#: each retry, so a test can shrink it).  Uncapped doubling balloons fast
#: (``backoff=0.1`` is already ~51 s by attempt 10) and the ballooned
#: due-time feeds the supervisor's earliest-wake calculation — a retry
#: scheduled hours out would have the supervisor sleeping (or churning) far
#: past any sane deadline.  The cap bounds any single wait while keeping
#: the early-attempt spacing intact.
MAX_BACKOFF = 30.0

#: Exponent clamp for ``2.0 ** (attempt - 1)``: beyond this the doubling
#: has long since passed any finite cap, and a huge user-supplied
#: ``retries`` would otherwise overflow float exponentiation entirely.
_BACKOFF_EXP_CAP = 60


def _retry_delay(backoff: float, attempt: int) -> float:
    """Delay before re-running attempt ``attempt + 1``: exponential in the
    attempt number, clamped to :data:`MAX_BACKOFF` (overflow-safe for any
    ``attempt`` — the exponent saturates before ``float`` does)."""
    return min(MAX_BACKOFF, backoff * 2.0 ** min(attempt - 1, _BACKOFF_EXP_CAP))

COMPLETED = "completed"
TIMEOUT = "timeout"
DIED = "died"
RAISED = "raised"
OUTCOME_KINDS = (COMPLETED, TIMEOUT, DIED, RAISED)


@dataclass(frozen=True)
class TaskOutcome:
    """What happened to one item.

    ``seconds`` is execution wall-clock time (zero if the item never
    started); ``queue_seconds`` is the wait between (re-)enqueueing and
    execution start.  ``attempts`` counts runs including the final one.
    """

    kind: str
    value: Any = None  # the runner's return value when kind == COMPLETED
    error: Optional[str] = None
    seconds: float = 0.0
    queue_seconds: float = 0.0
    attempts: int = 1

    @property
    def completed(self) -> bool:
        return self.kind == COMPLETED


def _worker_main(conn: Connection, runner: Callable[[Any], Any]) -> None:
    """Worker loop: receive ``(index, item)``, ack ``started``, run, reply.

    The ``started`` ack is sent before the item is touched, so the
    supervisor's deadline clock measures execution, not queue wait.  A
    ``None`` message is the shutdown signal.
    """
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                return
            if msg is None:
                return
            index, item = msg
            conn.send(("started", index))
            try:
                value = runner(item)
            except BaseException:
                conn.send(("raised", index, traceback.format_exc(limit=8)))
                continue
            try:
                conn.send(("done", index, value))
            except Exception:
                # The result itself failed to pickle; report that rather
                # than dying and looking like an infrastructure failure.
                conn.send(("raised", index, traceback.format_exc(limit=8)))
    finally:
        try:
            conn.close()
        except OSError:
            pass


@dataclass
class _Assignment:
    index: int
    attempt: int
    enqueued_at: float
    sent_at: float
    started_at: Optional[float] = None


class _Worker:
    __slots__ = ("proc", "conn", "assignment", "exitcode")

    def __init__(self, proc: BaseProcess, conn: Connection) -> None:
        self.proc = proc
        self.conn = conn
        self.assignment: Optional[_Assignment] = None
        self.exitcode: Optional[int] = None  # captured at retirement


def run_supervised(
    items: Sequence[Any],
    runner: Callable[[Any], Any],
    workers: int,
    timeout: Optional[float] = None,
    grace: float = 1.0,
    retries: int = 2,
    backoff: float = 0.1,
    metrics: Optional["MetricsRegistry"] = None,
) -> List[TaskOutcome]:
    """Run ``runner(item)`` for every item across supervised workers.

    Parameters
    ----------
    items:
        The work; outcomes come back in the same order.
    runner:
        Module-level (picklable) callable executed in the workers.  It
        should catch its own expected errors; an escaped exception becomes
        a :data:`RAISED` outcome.
    workers:
        Worker process count (clamped to ``len(items)``).
    timeout:
        Per-item execution budget in seconds, measured from the worker's
        ``started`` ack.  An overrunning worker is killed and replaced;
        the item's outcome is :data:`TIMEOUT`.  ``None`` disables deadlines.
    grace:
        Detection-and-cleanup slack: an overrun is contained within
        ``timeout + grace`` of execution start, and final shutdown waits at
        most ``grace`` before force-killing stragglers.
    retries:
        How many times an item whose worker *died* is re-run (timeouts are
        never retried).  ``retries=2`` allows up to three attempts.
    backoff:
        Base delay before a retry; doubles per failed attempt
        (``backoff * 2**(attempt-1)``), clamped to :data:`MAX_BACKOFF`.
        The clamp keeps a large user-supplied ``retries`` from scheduling
        retries arbitrarily far out — the retry due-time participates in
        the supervisor's earliest-wake calculation alongside kill
        deadlines, and an unbounded one would dominate it.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; when set, the pool
        records ``workerpool_spawned_total``, ``workerpool_outcomes_total
        {kind=...}``, ``workerpool_deaths_total`` / ``workerpool_retries_total``
        / ``workerpool_sigkills_total``, and the ``workerpool_exec_seconds``
        / ``workerpool_queue_seconds`` histograms.  ``None`` (default)
        records nothing.

    Returns
    -------
    list[TaskOutcome]
        One outcome per item, in input order — never raises for an
        item-level problem.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    if grace <= 0:
        raise ValueError(f"grace must be positive, got {grace}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if backoff < 0:
        raise ValueError(f"backoff must be >= 0, got {backoff}")

    items = list(items)
    n = len(items)
    if n == 0:
        return []
    # fork keeps workers cheap and lets them inherit the parent's live
    # module state (test monkeypatching relies on this); fall back to the
    # platform default elsewhere.
    if "fork" in multiprocessing.get_all_start_methods():
        ctx = multiprocessing.get_context("fork")
    else:
        ctx = multiprocessing.get_context()
    nworkers = min(workers, n)

    outcomes: List[Optional[TaskOutcome]] = [None] * n
    remaining = n
    now = time.monotonic()
    # (index, attempt, enqueued_at); retries re-enter through `delayed`.
    ready: Deque[Tuple[int, int, float]] = deque((i, 1, now) for i in range(n))
    delayed: List[Tuple[float, int, int]] = []  # heap of (due, index, attempt)
    pool: List[_Worker] = []

    def spawn() -> None:
        if metrics is not None:
            metrics.counter("workerpool_spawned_total").inc()
        parent_conn, child_conn = ctx.Pipe()
        try:
            proc = ctx.Process(
                target=_worker_main, args=(child_conn, runner), daemon=True
            )
            proc.start()
        except BaseException:
            # A failed start must not leak either pipe end.
            parent_conn.close()
            child_conn.close()
            raise
        child_conn.close()
        pool.append(_Worker(proc, parent_conn))

    def settle(index: int, outcome: TaskOutcome) -> None:
        nonlocal remaining
        if outcomes[index] is None:
            outcomes[index] = outcome
            remaining -= 1
            if metrics is not None:
                metrics.counter(
                    "workerpool_outcomes_total", kind=outcome.kind
                ).inc()
                metrics.histogram("workerpool_exec_seconds").observe(
                    outcome.seconds
                )
                metrics.histogram("workerpool_queue_seconds").observe(
                    outcome.queue_seconds
                )

    def retire(worker: _Worker, kill: bool) -> None:
        if worker in pool:
            pool.remove(worker)
        if kill:
            worker.proc.kill()
        worker.proc.join(grace)
        if worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join(grace)
        worker.exitcode = worker.proc.exitcode
        try:
            worker.conn.close()
        except OSError:
            pass
        # Release the Process object's sentinel/pipe fds *now* rather than
        # whenever the GC finalises it: N kill-and-replace cycles must not
        # grow the supervisor's fd table (tests/test_workerpool_fds.py).
        try:
            worker.proc.close()
        except ValueError:
            pass  # unkillable straggler; the GC finaliser will reap it

    def work_waiting() -> bool:
        return bool(ready) or bool(delayed)

    def handle_message(worker: _Worker, msg: Tuple[Any, ...]) -> None:
        a = worker.assignment
        kind = msg[0]
        if a is None or msg[1] != a.index:
            return  # stale message for an already-settled assignment
        if kind == "started":
            a.started_at = time.monotonic()
            return
        t = time.monotonic()
        run = t - (a.started_at if a.started_at is not None else a.sent_at)
        queue = (a.started_at if a.started_at is not None else t) - a.enqueued_at
        if kind == "done":
            settle(a.index, TaskOutcome(
                COMPLETED, value=msg[2], seconds=run,
                queue_seconds=queue, attempts=a.attempt,
            ))
        elif kind == "raised":
            settle(a.index, TaskOutcome(
                RAISED, error=msg[2], seconds=run,
                queue_seconds=queue, attempts=a.attempt,
            ))
        worker.assignment = None

    def handle_death(worker: _Worker) -> None:
        # Salvage messages already in the pipe (e.g. a `done` sent just
        # before a crash in teardown) before declaring the item lost.
        try:
            while worker.conn.poll(0):
                handle_message(worker, worker.conn.recv())
        except (EOFError, OSError):
            pass
        a = worker.assignment
        worker.assignment = None
        retire(worker, kill=False)
        if metrics is not None:
            metrics.counter("workerpool_deaths_total").inc()
        if a is not None and outcomes[a.index] is None:
            t = time.monotonic()
            if a.attempt <= retries:
                if metrics is not None:
                    metrics.counter("workerpool_retries_total").inc()
                due = t + _retry_delay(backoff, a.attempt)
                heapq.heappush(delayed, (due, a.index, a.attempt + 1))
            else:
                run = t - a.started_at if a.started_at is not None else 0.0
                queue = (a.started_at if a.started_at is not None else t) - a.enqueued_at
                settle(a.index, TaskOutcome(
                    DIED,
                    error=(
                        f"worker process died (exit code {worker.exitcode}) "
                        f"after {a.attempt} attempt(s)"
                    ),
                    seconds=run, queue_seconds=queue, attempts=a.attempt,
                ))
        if work_waiting() and len(pool) < nworkers:
            spawn()

    for _ in range(nworkers):
        spawn()
    try:
        while remaining:
            t = time.monotonic()
            # Promote retries whose backoff has elapsed.
            while delayed and delayed[0][0] <= t:
                _, index, attempt = heapq.heappop(delayed)
                ready.append((index, attempt, t))
            # Keep capacity available for waiting work (every slot may have
            # been retired by kills/deaths since the last iteration).
            while (
                work_waiting()
                and len(pool) < nworkers
                and not any(w.assignment is None for w in pool)
            ):
                spawn()
            # Assign ready work to idle workers.
            for worker in list(pool):
                if not ready:
                    break
                if worker.assignment is not None:
                    continue
                index, attempt, enqueued_at = ready.popleft()
                worker.assignment = _Assignment(
                    index, attempt, enqueued_at, sent_at=time.monotonic()
                )
                try:
                    worker.conn.send((index, items[index]))
                except (BrokenPipeError, OSError):
                    handle_death(worker)  # re-queues via the death path
                except Exception:
                    # The item itself failed to pickle: fail it, replace the
                    # worker (its pipe may hold a partial message).
                    settle(index, TaskOutcome(
                        RAISED, error=traceback.format_exc(limit=8),
                        attempts=attempt,
                    ))
                    worker.assignment = None
                    retire(worker, kill=True)
                    if remaining:
                        spawn()
            # Earliest event we must wake for: a kill deadline or a retry.
            deadline: Optional[float] = None
            if timeout is not None:
                for worker in pool:
                    a = worker.assignment
                    if a is not None and a.started_at is not None:
                        d = a.started_at + timeout
                        deadline = d if deadline is None else min(deadline, d)
            if delayed:
                deadline = (
                    delayed[0][0] if deadline is None
                    else min(deadline, delayed[0][0])
                )
            wait_objects: List[Any] = []
            for worker in pool:
                wait_objects.append(worker.conn)
                wait_objects.append(worker.proc.sentinel)
            if not wait_objects:
                # No workers alive (all retired) but work is still waiting
                # on a backoff; sleep until it is due.
                if deadline is not None:
                    time.sleep(max(0.0, deadline - time.monotonic()))
                continue
            wait_timeout = (
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            ready_objects = _connection_wait(wait_objects, timeout=wait_timeout)
            by_conn = {w.conn: w for w in pool}
            by_sentinel = {w.proc.sentinel: w for w in pool}
            dead: List[_Worker] = []
            for obj in ready_objects:
                worker = by_conn.get(obj)
                if worker is not None:
                    try:
                        while worker.conn.poll(0):
                            handle_message(worker, worker.conn.recv())
                    except (EOFError, OSError):
                        if worker not in dead:
                            dead.append(worker)
                    continue
                worker = by_sentinel.get(obj)
                if (
                    worker is not None
                    and not worker.proc.is_alive()
                    and worker not in dead
                ):
                    dead.append(worker)
            for worker in dead:
                if worker in pool:
                    handle_death(worker)
            # Deadline enforcement: kill overrunners, replace the slot.
            if timeout is not None:
                t = time.monotonic()
                for worker in list(pool):
                    a = worker.assignment
                    if a is None or a.started_at is None:
                        continue
                    run = t - a.started_at
                    if run < timeout:
                        continue
                    settle(a.index, TaskOutcome(
                        TIMEOUT,
                        error=(
                            f"timeout: exceeded the {timeout:g}s budget "
                            f"(killed after {run:.3f}s of execution)"
                        ),
                        seconds=run,
                        queue_seconds=a.started_at - a.enqueued_at,
                        attempts=a.attempt,
                    ))
                    worker.assignment = None
                    if metrics is not None:
                        metrics.counter("workerpool_sigkills_total").inc()
                    retire(worker, kill=True)
                    if work_waiting() and len(pool) < nworkers:
                        spawn()
    finally:
        for worker in pool:
            try:
                worker.conn.send(None)
            except Exception:
                pass
        shutdown_by = time.monotonic() + grace
        for worker in pool:
            worker.proc.join(max(0.0, shutdown_by - time.monotonic()))
        for worker in pool:
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(grace)
            try:
                worker.conn.close()
            except OSError:
                pass
            try:
                worker.proc.close()
            except ValueError:
                pass
    return [o for o in outcomes if o is not None]
