"""Batch scheduling front-end: serial/parallel agreement, error capture,
timeouts, sweep integration, and the ``repro-sched batch`` command."""

import json
import math
import time

import pytest

from repro.api import SchedulingOptions
from repro.batch import BatchJob, BatchResult, batch_throughput, schedule_many
from repro.bench.runner import run_sweep
from repro.bench.suite import paper_suite
from repro.cli import main
from repro.graph import TaskGraph
from repro.machine import MachineModel
from repro.resultcache import ResultCache
from repro.schedulers import SCHEDULERS
from repro.util.rng import make_rng
from repro.workloads import layered_random, lu, stencil


def _jobs(n_graph_seeds=2):
    jobs = []
    for seed in range(n_graph_seeds):
        g = lu(7, make_rng(seed), ccr=1.0)
        for procs in (2, 5):
            for algo in ("flb", "fcp", "mcp"):
                jobs.append(BatchJob(graph=g, machine=MachineModel(procs), algo=algo,
                                     tag=f"lu{seed}"))
    return jobs


# Module-level so forked worker processes resolve them after a monkeypatched
# SCHEDULERS entry is inherited through fork.
def _sleepy_scheduler(graph, machine):
    time.sleep(2.0)
    return SCHEDULERS["flb"](graph, machine)


def _broken_scheduler(graph, machine):
    raise RuntimeError("kaboom")


def _refuse_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


class TestSerial:
    def test_results_in_job_order_with_real_numbers(self):
        jobs = _jobs()
        results = schedule_many(jobs, workers=1)
        assert len(results) == len(jobs)
        for job, res in zip(jobs, results):
            assert res.ok and res.error is None
            assert (res.tag, res.algo, res.procs) == (
                job.tag, job.algo, job.machine.num_procs
            )
            assert res.num_tasks == job.graph.num_tasks
            assert res.makespan > 0 and res.speedup > 0
            assert res.procs_used <= res.procs

    def test_matches_direct_scheduler_call(self):
        g = stencil(6, 5, make_rng(1), ccr=0.2)
        (res,) = schedule_many([BatchJob(graph=g, machine=MachineModel(4), algo="etf")])
        assert res.makespan == SCHEDULERS["etf"](g, MachineModel(4)).makespan

    def test_error_captured_not_raised(self):
        g = lu(5, make_rng(0))
        good = BatchJob(graph=g, machine=MachineModel(2))
        bad = BatchJob(graph=g, machine=MachineModel(2), algo="no-such-algo")
        results = schedule_many([good, bad], workers=1)
        assert results[0].ok
        assert not results[1].ok
        assert "no-such-algo" in results[1].error
        assert math.isnan(results[1].makespan)

    def test_validate_flag(self):
        g = lu(6, make_rng(0))
        (res,) = schedule_many([BatchJob(graph=g, machine=MachineModel(3))],
                               options=SchedulingOptions(validate=True))
        assert res.ok

    def test_overflowing_speedup_is_refused(self):
        # One comp-1e308 task per processor: the makespan is finite and the
        # schedule certifies, but the serial time, and so the speedup, is
        # not.  The result is refused and never cached.
        g = TaskGraph()
        g.add_task(1e308)
        g.add_task(1e308)
        cache = ResultCache(4)
        for _ in range(2):
            (res,) = schedule_many([BatchJob(graph=g, machine=MachineModel(2))],
                                   workers=1, options=SchedulingOptions(certify=True),
                                   cache=cache)
            assert not res.ok and not res.certified and not res.cached
            assert res.error_kind == "invalid-schedule"
            assert "speedup inf is not finite" in res.error
            assert math.isnan(res.makespan) and math.isnan(res.speedup)
        assert len(cache) == 0


class TestParallel:
    def test_parallel_matches_serial(self):
        jobs = _jobs()
        serial = schedule_many(jobs, workers=1)
        parallel = schedule_many(jobs, workers=3)
        assert [(r.tag, r.algo, r.procs, r.makespan, r.speedup) for r in serial] == [
            (r.tag, r.algo, r.procs, r.makespan, r.speedup) for r in parallel
        ]

    def test_error_captured_in_worker(self, monkeypatch):
        monkeypatch.setitem(SCHEDULERS, "broken", _broken_scheduler)
        g = lu(5, make_rng(0))
        jobs = [
            BatchJob(graph=g, machine=MachineModel(2), algo="flb"),
            BatchJob(graph=g, machine=MachineModel(2), algo="broken"),
            BatchJob(graph=g, machine=MachineModel(2), algo="flb"),
        ]
        results = schedule_many(jobs, workers=2)
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert "kaboom" in results[1].error

    def test_timeout_marks_only_overrunning_job(self, monkeypatch):
        monkeypatch.setitem(SCHEDULERS, "sleepy", _sleepy_scheduler)
        g = lu(5, make_rng(0))
        jobs = [
            BatchJob(graph=g, machine=MachineModel(2), algo="sleepy"),
            BatchJob(graph=g, machine=MachineModel(2), algo="flb"),
            BatchJob(graph=g, machine=MachineModel(2), algo="fcp"),
        ]
        results = schedule_many(jobs, workers=2, options=SchedulingOptions(timeout=0.3))
        assert not results[0].ok
        assert "timeout" in results[0].error
        assert results[0].error_kind == "timeout"
        assert results[1].ok and results[2].ok

    def test_throughput_helper(self):
        results = [
            BatchResult("a", "flb", 2, 100, 1.0, 1.0, 2, 0.1),
            BatchResult("b", "flb", 2, 50, 1.0, 1.0, 2, 0.1, error="boom"),
        ]
        assert batch_throughput(results, 2.0) == pytest.approx(50.0)
        with pytest.raises(ValueError):
            batch_throughput(results, 0.0)


class TestSweepIntegration:
    def test_run_sweep_workers_matches_serial(self):
        instances = paper_suite(80, seeds=1, ccrs=(1.0,), problems=("lu", "stencil"))
        serial = run_sweep(instances, ["flb", "mcp"], (2, 4))
        parallel = run_sweep(instances, ["flb", "mcp"], (2, 4), workers=2)
        assert serial == parallel

    def test_run_sweep_workers_raises_on_job_failure(self, monkeypatch):
        monkeypatch.setitem(SCHEDULERS, "broken", _broken_scheduler)
        instances = paper_suite(60, seeds=1, ccrs=(1.0,), problems=("lu",))
        with pytest.raises(RuntimeError, match="broken"):
            run_sweep(instances, ["broken"], (2,), workers=2)

    def test_measure_time_stays_serial(self):
        # Timed sweeps ignore workers (measurements must not contend).
        instances = paper_suite(60, seeds=1, ccrs=(1.0,), problems=("lu",))
        records = run_sweep(instances, ["flb"], (2,), measure_time=True, workers=4)
        assert all(r.seconds is not None for r in records)


class TestCli:
    def test_batch_command(self, capsys):
        code = main(
            ["batch", "--problems", "lu", "stencil", "--procs", "2", "8",
             "--algos", "flb", "fcp", "--tasks", "120", "--workers", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "8/8 ok" in out
        assert "tasks/s" in out

    def test_batch_command_reports_failures(self, capsys, monkeypatch):
        code = main(
            ["batch", "--problems", "lu", "--procs", "2", "--algos", "flb",
             "--tasks", "60", "--workers", "1", "--timeout", "30"]
        )
        assert code == 0  # sanity: valid run under a generous timeout passes
        # A raising scheduler must flip the exit code without raising.
        monkeypatch.setitem(SCHEDULERS, "broken", _broken_scheduler)
        err_code = main(
            ["batch", "--problems", "lu", "--procs", "2", "--algos", "broken",
             "--tasks", "60", "--workers", "1"]
        )
        captured = capsys.readouterr()
        assert err_code == 1
        assert "FAILED" in captured.err
        assert "[scheduler-error]" in captured.err

    @pytest.mark.parametrize("procs", [["0"], ["2", "0"]])
    def test_batch_command_rejects_bad_machine(self, capsys, procs):
        # An un-modelable count is a bad flag: exit 2 before any job runs,
        # with the message `schedule` and `certify` print.
        code = main(
            ["batch", "--problems", "lu", "--procs", *procs, "--algos", "flb",
             "--tasks", "60", "--workers", "1"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.strip() == "bad machine: num_procs must be >= 1, got 0"
        assert captured.out == ""

    def test_batch_json_is_strict_json_with_failures(self, capsys, monkeypatch):
        # A failed job has no makespan or speedup: JSON null, never the NaN
        # that RFC 8259 parsers reject.
        monkeypatch.setitem(SCHEDULERS, "broken", _broken_scheduler)
        code = main(
            ["batch", "--problems", "lu", "--procs", "4", "8",
             "--algos", "broken", "flb", "--tasks", "60", "--workers", "1", "--json"]
        )
        docs = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
        assert code == 1
        failed = [doc for doc in docs if doc["error"] is not None]
        assert [doc["error_kind"] for doc in failed] == ["scheduler-error"] * 2
        assert all(doc["makespan"] is None and doc["speedup"] is None for doc in failed)
        assert all(doc["makespan"] > 0 for doc in docs if doc["error"] is None)

    def test_batch_command_timeout_exit_code(self, capsys, monkeypatch):
        # Infrastructure failures (timeout / worker-died) exit 2, not 1.
        monkeypatch.setitem(SCHEDULERS, "sleepy", _sleepy_scheduler)
        code = main(
            ["batch", "--problems", "lu", "--procs", "2",
             "--algos", "sleepy", "flb", "--tasks", "60", "--workers", "2",
             "--timeout", "0.3", "--grace", "1.0"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "[timeout]" in captured.err
        assert "1/2 ok" in captured.out


def test_parallel_graph_roundtrip_is_exact():
    """Graphs cross the process boundary by pickle; placements must not
    drift (schedulers are deterministic, so equal makespans on re-run imply
    the pickled graph arrived bit-identical)."""
    g = layered_random(6, 5, make_rng(4), edge_density=0.3, ccr=5.0)
    direct = SCHEDULERS["flb"](g, MachineModel(3)).makespan
    (res,) = schedule_many(
        [BatchJob(graph=g, machine=MachineModel(3)),
         BatchJob(graph=g, machine=MachineModel(3))], workers=2
    )[:1]
    assert res.makespan == direct
