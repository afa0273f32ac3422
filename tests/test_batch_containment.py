"""Hung-worker containment, deadline accounting, and worker-death retry.

These are the failure-handling guarantees of the supervised batch layer
(``repro.batch`` on top of ``repro.workerpool``):

* a scheduler hung far past the timeout cannot delay ``schedule_many``
  beyond ``timeout + grace`` (its worker is killed, the slot replaced);
* the timeout clock starts at execution start, so jobs queued behind a
  slow job are never falsely expired, and queue wait vs run time are
  reported separately;
* a job whose worker dies (SIGKILL, OOM, segfault) is retried with
  backoff, and reported as ``worker-died`` only once retries are
  exhausted;
* failures carry the structured taxonomy on ``BatchResult.error_kind``.
"""

import os
import signal
import time

import pytest

from repro.api import SchedulingOptions
from repro.batch import (
    ERROR_KINDS,
    INVALID_SCHEDULE,
    SCHEDULER_ERROR,
    TIMEOUT,
    WORKER_DIED,
    BatchJob,
    schedule_many,
)
from repro.schedulers import SCHEDULERS
from repro.util.rng import make_rng
from repro.workerpool import MAX_BACKOFF, TaskOutcome, _retry_delay, run_supervised
from repro.workloads import lu

_DIE_MARKER_ENV = "REPRO_TEST_DIE_MARKER"


# Module-level so forked worker processes resolve them after a monkeypatched
# SCHEDULERS entry is inherited through fork.
def _hung_scheduler(graph, machine):
    time.sleep(60.0)  # far beyond any test timeout: must be killed, not joined
    return SCHEDULERS["flb"](graph, machine)


def _slow_scheduler(graph, machine):
    time.sleep(0.4)
    return SCHEDULERS["flb"](graph, machine)


def _die_once_scheduler(graph, machine):
    marker = os.environ[_DIE_MARKER_ENV]
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("died")
        os.kill(os.getpid(), signal.SIGKILL)
    return SCHEDULERS["flb"](graph, machine)


def _die_always_scheduler(graph, machine):
    os.kill(os.getpid(), signal.SIGKILL)


def _invalid_scheduler(graph, machine):
    schedule = SCHEDULERS["flb"](graph, machine)
    # Corrupt one placement so FT != ST + comp: validation must catch it.
    schedule._finish[0] = schedule._start[0] - 1.0
    return schedule


def _broken_scheduler(graph, machine):
    raise RuntimeError("kaboom")


class TestHungWorkerContainment:
    def test_batch_returns_within_deadline_plus_grace(self, monkeypatch):
        """A worker hung in an effectively-infinite loop must not delay the
        batch past ``timeout + grace``; the other jobs must all complete.
        (The pre-supervision implementation hung here forever: the executor
        shutdown joined the runaway worker.)"""
        monkeypatch.setitem(SCHEDULERS, "hung", _hung_scheduler)
        g = lu(5, make_rng(0))
        jobs = [
            BatchJob(graph=g, procs=2, algo="hung"),
            BatchJob(graph=g, procs=2, algo="flb"),
            BatchJob(graph=g, procs=2, algo="fcp"),
            BatchJob(graph=g, procs=2, algo="mcp"),
        ]
        t0 = time.perf_counter()
        results = schedule_many(jobs, workers=2, options=SchedulingOptions(timeout=0.5), grace=1.0)
        wall = time.perf_counter() - t0
        assert wall < 0.5 + 1.0 + 0.5  # timeout + grace + test slack, << 60s
        assert len(results) == len(jobs)
        assert not results[0].ok
        assert results[0].error_kind == TIMEOUT
        assert "timeout" in results[0].error
        for res in results[1:]:
            assert res.ok, res.error
            assert res.makespan > 0

    def test_overrun_detected_promptly_not_at_2x(self, monkeypatch):
        """Deadline-aware polling: the hung job is killed close to its
        budget, not after up to double the budget (the old ``wait(...,
        timeout=timeout)`` rescan pattern)."""
        monkeypatch.setitem(SCHEDULERS, "hung", _hung_scheduler)
        g = lu(5, make_rng(0))
        jobs = [
            BatchJob(graph=g, procs=2, algo="hung"),
            BatchJob(graph=g, procs=2, algo="flb"),
        ]
        results = schedule_many(jobs, workers=2, options=SchedulingOptions(timeout=0.4), grace=1.0)
        assert results[0].error_kind == TIMEOUT
        # seconds is true execution time before the kill: at least the
        # budget, but well under 2x of it.
        assert 0.4 <= results[0].seconds < 0.7

    def test_all_workers_hung_still_contained(self, monkeypatch):
        """Even with every pool slot hung at once, the slots are killed and
        replaced and the queued jobs still complete."""
        monkeypatch.setitem(SCHEDULERS, "hung", _hung_scheduler)
        g = lu(5, make_rng(0))
        jobs = [
            BatchJob(graph=g, procs=2, algo="hung"),
            BatchJob(graph=g, procs=2, algo="hung"),
            BatchJob(graph=g, procs=2, algo="flb"),
            BatchJob(graph=g, procs=2, algo="fcp"),
        ]
        t0 = time.perf_counter()
        results = schedule_many(jobs, workers=2, options=SchedulingOptions(timeout=0.3), grace=1.0)
        wall = time.perf_counter() - t0
        assert wall < 5.0  # two hung slots at 0.3s each + replacements
        assert results[0].error_kind == TIMEOUT
        assert results[1].error_kind == TIMEOUT
        assert results[2].ok and results[3].ok


class TestDeadlineAccounting:
    def test_queued_jobs_not_falsely_expired(self, monkeypatch):
        """The budget clock starts at execution start: a fast job queued
        behind slow jobs whose combined wait exceeds the timeout must still
        succeed.  (The old implementation timed the queue wait from submit
        and expired it.)"""
        monkeypatch.setitem(SCHEDULERS, "slow", _slow_scheduler)
        g = lu(5, make_rng(0))
        jobs = [
            BatchJob(graph=g, procs=2, algo="slow"),
            BatchJob(graph=g, procs=2, algo="slow"),
            BatchJob(graph=g, procs=2, algo="flb"),  # queued ~0.4s > timeout - run
        ]
        results = schedule_many(jobs, workers=2, options=SchedulingOptions(timeout=0.5), grace=1.0)
        assert all(res.ok for res in results), [r.error for r in results]
        queued = results[2]
        # Queue wait and run time are attributed separately.
        assert queued.queue_seconds >= 0.2
        assert queued.seconds < 0.2

    def test_inline_path_reports_zero_queue_wait(self):
        g = lu(5, make_rng(0))
        (res,) = schedule_many([BatchJob(graph=g, procs=2)], workers=1)
        assert res.ok
        assert res.queue_seconds == 0.0
        assert res.attempts == 1

    def test_parameter_validation(self):
        g = lu(5, make_rng(0))
        jobs = [BatchJob(graph=g, procs=2)]
        with pytest.raises(ValueError):
            schedule_many(jobs, workers=2, options=SchedulingOptions(timeout=-1.0))
        with pytest.raises(ValueError):
            schedule_many(jobs, workers=2, grace=0.0)
        with pytest.raises(ValueError):
            schedule_many(jobs, workers=2, options=SchedulingOptions(retries=-1))
        with pytest.raises(ValueError):
            schedule_many(jobs, workers=2, backoff=-0.1)


class TestWorkerDeathRetry:
    def test_killed_worker_is_retried_and_succeeds(self, monkeypatch, tmp_path):
        monkeypatch.setenv(_DIE_MARKER_ENV, str(tmp_path / "died.marker"))
        monkeypatch.setitem(SCHEDULERS, "die-once", _die_once_scheduler)
        g = lu(5, make_rng(0))
        jobs = [
            BatchJob(graph=g, procs=2, algo="die-once"),
            BatchJob(graph=g, procs=2, algo="flb"),
        ]
        results = schedule_many(jobs, workers=2, options=SchedulingOptions(retries=2), backoff=0.05)
        assert results[0].ok, results[0].error
        assert results[0].attempts == 2  # died once, succeeded on the retry
        assert results[1].ok

    def test_retries_exhausted_reports_worker_died(self, monkeypatch):
        monkeypatch.setitem(SCHEDULERS, "die-always", _die_always_scheduler)
        g = lu(5, make_rng(0))
        jobs = [
            BatchJob(graph=g, procs=2, algo="die-always"),
            BatchJob(graph=g, procs=2, algo="flb"),
        ]
        results = schedule_many(jobs, workers=2, options=SchedulingOptions(retries=1), backoff=0.01)
        assert not results[0].ok
        assert results[0].error_kind == WORKER_DIED
        assert results[0].attempts == 2  # initial run + 1 retry
        assert "died" in results[0].error
        assert results[1].ok

    def test_no_retries_fails_on_first_death(self, monkeypatch):
        monkeypatch.setitem(SCHEDULERS, "die-always", _die_always_scheduler)
        g = lu(5, make_rng(0))
        jobs = [
            BatchJob(graph=g, procs=2, algo="die-always"),
            BatchJob(graph=g, procs=2, algo="flb"),
        ]
        results = schedule_many(jobs, workers=2, options=SchedulingOptions(retries=0))
        assert results[0].error_kind == WORKER_DIED
        assert results[0].attempts == 1


class TestErrorTaxonomy:
    def test_scheduler_error_kind(self, monkeypatch):
        monkeypatch.setitem(SCHEDULERS, "broken", _broken_scheduler)
        g = lu(5, make_rng(0))
        for workers in (1, 2):
            results = schedule_many(
                [BatchJob(graph=g, procs=2, algo="broken"),
                 BatchJob(graph=g, procs=2, algo="flb")],
                workers=workers,
            )
            assert results[0].error_kind == SCHEDULER_ERROR
            assert "kaboom" in results[0].error
            assert results[1].ok

    def test_invalid_schedule_kind(self, monkeypatch):
        monkeypatch.setitem(SCHEDULERS, "invalid", _invalid_scheduler)
        g = lu(5, make_rng(0))
        for workers in (1, 2):
            results = schedule_many(
                [BatchJob(graph=g, procs=2, algo="invalid"),
                 BatchJob(graph=g, procs=2, algo="flb")],
                workers=workers, options=SchedulingOptions(validate=True),
            )
            assert results[0].error_kind == INVALID_SCHEDULE
            assert results[1].ok

    def test_without_validate_bad_schedule_passes_through(self, monkeypatch):
        # The taxonomy distinguishes "scheduler raised" from "schedule
        # failed validation" — the latter only exists under validate=True.
        monkeypatch.setitem(SCHEDULERS, "invalid", _invalid_scheduler)
        g = lu(5, make_rng(0))
        (res,) = schedule_many([BatchJob(graph=g, procs=2, algo="invalid")])
        assert res.ok  # nobody asked for validation

    def test_kinds_are_the_documented_taxonomy(self):
        assert set(ERROR_KINDS) == {
            "timeout", "worker-died", "scheduler-error", "invalid-schedule"
        }
        assert (TIMEOUT, WORKER_DIED, SCHEDULER_ERROR, INVALID_SCHEDULE) == ERROR_KINDS


# -- the generic pool, exercised directly -----------------------------------

def _square(x):
    return x * x


def _sleep_then_square(x):
    time.sleep(x)
    return x * x


def _raise_runner(x):
    raise ValueError(f"bad item {x}")


def _die_once_runner(x):
    marker = os.environ[_DIE_MARKER_ENV]
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("died")
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


class TestWorkerPool:
    def test_outcomes_in_order(self):
        outcomes = run_supervised([1, 2, 3, 4], _square, workers=2)
        assert [o.value for o in outcomes] == [1, 4, 9, 16]
        assert all(o.completed and o.attempts == 1 for o in outcomes)

    def test_runner_exception_is_raised_outcome(self):
        outcomes = run_supervised([7], _raise_runner, workers=2)
        # workers is clamped to len(items); a single item still goes
        # through the supervised path when workers >= 1.
        assert not outcomes[0].completed
        assert outcomes[0].kind == "raised"
        assert "bad item 7" in outcomes[0].error

    def test_timeout_only_kills_overrunner(self):
        outcomes = run_supervised(
            [1.5, 0.0, 0.0], _sleep_then_square, workers=2,
            timeout=0.3, grace=0.5,
        )
        assert outcomes[0].kind == "timeout"
        assert outcomes[1].completed and outcomes[2].completed

    def test_empty_items(self):
        assert run_supervised([], _square, workers=4) == []


class TestRetryBackoffClamp:
    """Regression: the death-retry delay ``backoff * 2**(attempt-1)`` had
    no ceiling — a generous ``retries`` budget scheduled retries minutes
    (or, via float overflow, astronomically far) into the future."""

    def test_retry_delay_doubles_then_clamps(self):
        assert _retry_delay(0.1, 1, 30.0) == pytest.approx(0.1)
        assert _retry_delay(0.1, 2, 30.0) == pytest.approx(0.2)
        assert _retry_delay(0.1, 3, 30.0) == pytest.approx(0.4)
        assert _retry_delay(0.1, 20, 30.0) == 30.0

    def test_huge_attempt_counts_do_not_overflow(self):
        # 2**(10**6) overflows float pow; the exponent clamp must keep the
        # arithmetic finite and the result at the ceiling.
        delay = _retry_delay(0.1, 10**6, MAX_BACKOFF)
        assert delay == MAX_BACKOFF

    def test_max_backoff_beats_a_large_base(self):
        assert _retry_delay(10.0, 5, 0.5) == 0.5

    def test_clamp_is_honored_end_to_end(self, tmp_path, monkeypatch):
        """With a huge base backoff but a tight ``max_backoff``, a killed
        worker's retry must run promptly — and the supervisor must wake for
        the retry due-time instead of sleeping toward the kill deadline."""
        monkeypatch.setenv(_DIE_MARKER_ENV, str(tmp_path / "died"))
        t0 = time.perf_counter()
        outcomes = run_supervised(
            [3], _die_once_runner, workers=1, retries=2,
            backoff=120.0, max_backoff=0.2, timeout=30.0, grace=1.0,
        )
        wall = time.perf_counter() - t0
        assert outcomes[0].completed and outcomes[0].value == 9
        assert outcomes[0].attempts == 2
        # Far below both the uncapped backoff and the kill deadline.
        assert wall < 10.0

    def test_invalid_max_backoff_rejected(self):
        with pytest.raises(ValueError):
            run_supervised([1], _square, workers=1, max_backoff=0.0)

    def test_outcome_dataclass_defaults(self):
        o = TaskOutcome("completed", value=5)
        assert o.completed and o.seconds == 0.0 and o.attempts == 1
