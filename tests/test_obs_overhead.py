"""The observability plane's performance contract (``perfgate``): metrics
collection, when enabled, costs at most ~5% of batch throughput, and the
disabled path does zero instrument work.

Run via ``tools/perf_smoke.sh`` (the gate is excluded from the default
tier-1 selection by the ``perfgate`` marker).
"""

import os
import statistics

import pytest

from repro.api import SchedulingOptions
from repro.batch import BatchJob, schedule_many
from repro.bench.perfgate import paired_rounds
from repro.machine import MachineModel
from repro.obs import MetricsRegistry
from repro.util.rng import make_rng
from repro.workloads import lu, lu_size_for_tasks

#: The contract from docs/observability.md: enabled-metrics throughput is
#: within 5% of disabled, plus a small absolute epsilon so sub-millisecond
#: jitter on tiny runs cannot flake the gate.
OVERHEAD_BUDGET = 1.05
ABS_EPSILON_S = 0.010


def _bench_tasks(default=300):
    try:
        return int(os.environ.get("REPRO_BENCH_TASKS", default))
    except ValueError:
        return default


def _jobs():
    g = lu(lu_size_for_tasks(_bench_tasks()), make_rng(0), ccr=1.0)
    return [BatchJob(graph=g, machine=MachineModel(p), algo=a, tag=f"{p}/{a}")
            for p in (2, 4, 8, 16) for a in ("flb", "fcp", "mcp")]


@pytest.mark.perfgate
def test_enabled_metrics_within_budget_inline():
    """Metrics-on inline scheduling stays within the 5% budget of
    metrics-off on the same jobs, in the median of paired rounds
    (:func:`repro.bench.perfgate.paired_rounds`): the median round's
    metrics-on time exceeds 1.05x its metrics-off time by at most the
    epsilon."""
    jobs = _jobs()
    rounds = 9
    options = iter([SchedulingOptions(metrics=MetricsRegistry())
                    for _ in range(rounds)])
    results = {}
    times = paired_rounds(
        lambda: results.update(on=schedule_many(jobs, workers=1, options=next(options))),
        lambda: results.update(off=schedule_many(jobs, workers=1)),
        rounds,
    )
    assert all(r.ok for r in results["off"]) and all(r.ok for r in results["on"])
    assert [r.makespan for r in results["off"]] == [r.makespan for r in results["on"]]
    excess = statistics.median(on - off * OVERHEAD_BUDGET for on, off in times)
    assert excess <= ABS_EPSILON_S, (
        f"metrics-on exceeds {OVERHEAD_BUDGET:.2f}x metrics-off by "
        f"{excess * 1e3:.1f} ms in the median round (epsilon "
        f"{ABS_EPSILON_S * 1e3:.0f} ms; rounds "
        f"{[(round(on, 4), round(off, 4)) for on, off in times]})"
    )


@pytest.mark.perfgate
def test_disabled_path_records_nothing():
    """With no registry passed, the batch plane must not collect phases or
    events anywhere — the guard is ``metrics is None`` at every site."""
    jobs = _jobs()[:4]
    results = schedule_many(jobs, workers=1)
    assert all(r.phases is None for r in results)


@pytest.mark.perfgate
def test_metrics_collection_is_complete_under_gate_load():
    """The run measured by the overhead gate still yields a full registry:
    every job counted, every trace event has phases summing to its wall."""
    jobs = _jobs()
    reg = MetricsRegistry()
    results = schedule_many(jobs, workers=1,
                            options=SchedulingOptions(metrics=reg))
    assert reg.total("batch_jobs_total") == len(jobs)
    assert all(r.ok for r in results)
    events = [e for e in reg.events if e["name"] == "batch.job"]
    assert len(events) == len(jobs)
    for event in events:
        attrs = event["attrs"]
        assert abs(sum(attrs["phases"].values()) - attrs["wall"]) < 1e-6
