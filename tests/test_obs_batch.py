"""Metrics correctness for the batch plane: the counters a registry
collects must reconcile exactly with the ``BatchResult`` taxonomy the
caller already gets, per-job phase breakdowns must sum to the job's wall
time, and the worker-pool/caches must report their lifecycle events."""

import time

import pytest

from repro.api import SchedulingOptions
from repro.batch import (
    SCHEDULER_ERROR,
    TIMEOUT,
    BatchJob,
    BatchScheduler,
    schedule_many,
)
from repro.machine import MachineModel
from repro.obs import JOB_EVENT, MetricsRegistry, parse_prometheus
from repro.schedulers import SCHEDULERS
from repro.util.rng import make_rng
from repro.workloads import lu


# Module-level so forked worker processes resolve them after a
# monkeypatched SCHEDULERS entry is inherited through fork.
def _hung_scheduler(graph, machine):
    time.sleep(60.0)
    return SCHEDULERS["flb"](graph, machine)


def _broken_scheduler(graph, machine):
    raise RuntimeError("kaboom")


@pytest.fixture
def graph():
    return lu(6, make_rng(0), ccr=1.0)


def _job_events(reg):
    return [e for e in reg.events if e["name"] == JOB_EVENT]


class TestCountersReconcile:
    def test_ok_jobs_inline(self, graph):
        reg = MetricsRegistry()
        jobs = [BatchJob(graph=graph, machine=MachineModel(p), algo=a, tag=f"{a}{p}")
                for p in (2, 4) for a in ("flb", "mcp")]
        results = schedule_many(jobs, options=SchedulingOptions(metrics=reg))
        assert all(r.ok for r in results)
        assert reg.value("batch_jobs_total", status="ok") == len(jobs)
        assert reg.value("batch_runs_total") == 1
        assert reg.histogram("batch_exec_seconds").count == len(jobs)

    def test_mixed_taxonomy_matches_results(self, graph, monkeypatch):
        monkeypatch.setitem(SCHEDULERS, "hung", _hung_scheduler)
        monkeypatch.setitem(SCHEDULERS, "broken", _broken_scheduler)
        reg = MetricsRegistry()
        jobs = [
            BatchJob(graph=graph, machine=MachineModel(2), tag="good"),
            BatchJob(graph=graph, machine=MachineModel(2), algo="hung", tag="slow"),
            BatchJob(graph=graph, machine=MachineModel(2), algo="broken", tag="bad"),
        ]
        results = schedule_many(
            jobs, workers=2, grace=0.5,
            options=SchedulingOptions(timeout=0.5, metrics=reg),
        )
        by_kind = {}
        for res in results:
            key = "ok" if res.ok else res.error_kind
            by_kind[key] = by_kind.get(key, 0) + 1
        assert by_kind == {"ok": 1, TIMEOUT: 1, SCHEDULER_ERROR: 1}
        for kind, count in by_kind.items():
            assert reg.value("batch_jobs_total", status=kind) == count
        assert reg.total("batch_jobs_total") == len(jobs)

    def test_cached_jobs_counted(self, graph):
        reg = MetricsRegistry()
        jobs = [BatchJob(graph=graph, machine=MachineModel(2), tag=str(i)) for i in range(3)]
        with BatchScheduler(workers=1, options=SchedulingOptions(metrics=reg)) as bs:
            bs.run(jobs)
        # identical (graph, procs, algo): one computed, two coalesced/cached
        assert reg.total("batch_jobs_total") == 3
        assert reg.total("batch_jobs_cached_total") == 2

    def test_dispatch_mode_counters(self, graph):
        reg = MetricsRegistry()
        with BatchScheduler(workers=2, options=SchedulingOptions(metrics=reg)) as bs:
            key = bs.register(graph)
            bs.run([BatchJob(graph=None, graph_key=key, machine=MachineModel(p))
                    for p in (2, 3)])
        assert reg.value("batch_dispatch_total", mode="keyed") == 2

    def test_dispatch_inline_counted(self, graph):
        reg = MetricsRegistry()
        schedule_many([BatchJob(graph=graph, machine=MachineModel(2))], workers=1,
                      options=SchedulingOptions(metrics=reg))
        assert reg.value("batch_dispatch_total", mode="inline") == 1


class TestPhases:
    def test_phases_sum_to_wall_inline(self, graph):
        reg = MetricsRegistry()
        schedule_many([BatchJob(graph=graph, machine=MachineModel(2))],
                      options=SchedulingOptions(metrics=reg))
        (event,) = _job_events(reg)
        attrs = event["attrs"]
        assert abs(sum(attrs["phases"].values()) - attrs["wall"]) < 1e-6

    def test_phases_sum_to_wall_pool(self, graph):
        reg = MetricsRegistry()
        jobs = [BatchJob(graph=graph, machine=MachineModel(p), tag=str(p)) for p in (2, 3, 4)]
        results = schedule_many(jobs, workers=2, options=SchedulingOptions(metrics=reg))
        assert all(r.ok for r in results)
        events = _job_events(reg)
        assert len(events) == len(jobs)
        for event in events:
            attrs = event["attrs"]
            assert abs(sum(attrs["phases"].values()) - attrs["wall"]) < 1e-6
            assert attrs["phases"]["schedule"] > 0

    def test_certify_phase_present_when_certifying(self, graph):
        reg = MetricsRegistry()
        schedule_many([BatchJob(graph=graph, machine=MachineModel(2))],
                      options=SchedulingOptions(certify=True, metrics=reg))
        (event,) = _job_events(reg)
        assert event["attrs"]["phases"]["certify"] > 0

    def test_result_carries_phases_only_when_measured(self, graph):
        (bare,) = schedule_many([BatchJob(graph=graph, machine=MachineModel(2))])
        assert bare.phases is None
        (measured,) = schedule_many([BatchJob(graph=graph, machine=MachineModel(2))],
                                    options=SchedulingOptions(metrics=MetricsRegistry()))
        assert measured.phases and "schedule" in measured.phases


class TestWorkerPoolMetrics:
    def test_spawn_and_outcome_counters(self, graph):
        reg = MetricsRegistry()
        jobs = [BatchJob(graph=graph, machine=MachineModel(p), tag=str(p)) for p in (2, 3)]
        schedule_many(jobs, workers=2, options=SchedulingOptions(metrics=reg))
        assert reg.value("workerpool_spawned_total") >= 1
        assert reg.value("workerpool_outcomes_total", kind="completed") == 2
        assert reg.histogram("workerpool_exec_seconds").count == 2

    def test_sigkill_counted_on_timeout(self, graph, monkeypatch):
        monkeypatch.setitem(SCHEDULERS, "hung", _hung_scheduler)
        reg = MetricsRegistry()
        results = schedule_many(
            [BatchJob(graph=graph, machine=MachineModel(2), algo="hung", tag="hung"),
             BatchJob(graph=graph, machine=MachineModel(2), tag="good")],
            workers=2, grace=0.5, options=SchedulingOptions(timeout=0.4, metrics=reg),
        )
        kinds = {r.tag: r.error_kind for r in results}
        assert kinds == {"hung": TIMEOUT, "good": None}
        assert reg.value("workerpool_sigkills_total") == 1
        assert reg.value("workerpool_outcomes_total", kind="timeout") == 1


class TestStoreAndCacheGauges:
    def test_gauges_exported(self, graph):
        reg = MetricsRegistry()
        with BatchScheduler(workers=1, options=SchedulingOptions(metrics=reg)) as bs:
            key = bs.register(graph)
            bs.run([BatchJob(graph=None, graph_key=key, machine=MachineModel(2))] * 2)
        assert reg.value("graphstore_graphs") == 1
        assert reg.value("graphstore_bytes") > 0
        assert reg.value("resultcache_hits") + reg.total(
            "batch_jobs_cached_total"
        ) >= 1

    def test_prometheus_export_is_valid(self, graph):
        reg = MetricsRegistry()
        schedule_many([BatchJob(graph=graph, machine=MachineModel(2))], workers=1,
                      options=SchedulingOptions(metrics=reg))
        samples = parse_prometheus(reg.to_prometheus())
        assert samples['repro_batch_jobs_total{status="ok"}'] == 1.0
