"""X5 — degradation under sender-port link contention.

The paper's machine model is contention-free; this extension re-executes
schedules on a single-port sender model and measures how much of the
promised makespan survives.  Expected shape: degradation grows as bandwidth
shrinks and as CCR grows, and communication-minimising schedules (DSC-LLB)
degrade less than communication-oblivious ones.
"""

import pytest

from repro.bench import run_contention
from repro.machine import MachineModel
from repro.schedulers import SCHEDULERS
from repro.sim import execute_contended


@pytest.mark.parametrize("bandwidth", [0.5, 2.0])
def bench_contended_execution(benchmark, suite_by_problem, bandwidth):
    graph = suite_by_problem[("fft", 5.0)]
    schedule = SCHEDULERS["flb"](graph, MachineModel(8))
    result = benchmark(execute_contended, schedule, bandwidth)
    assert result.makespan > 0


@pytest.fixture(scope="module")
def contention_report(bench_tasks):
    return run_contention(target_tasks=bench_tasks, seeds=1, procs=8)


def test_contention_monotone_in_bandwidth(contention_report):
    bandwidths = contention_report.data["bandwidths"]
    for algo, means in contention_report.data["means"].items():
        values = [means[bw] for bw in bandwidths]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-9, f"{algo}: degradation not monotone"


def test_contention_never_below_one(contention_report):
    for means in contention_report.data["means"].values():
        for value in means.values():
            assert value >= 1.0 - 1e-9


def test_dsc_llb_degrades_least_at_low_bandwidth(contention_report):
    """The communication-minimising multi-step schedule keeps more of its
    promise under severe contention."""
    means = contention_report.data["means"]
    low_bw = contention_report.data["bandwidths"][0]
    assert means["dsc-llb"][low_bw] <= means["flb"][low_bw]
    assert means["dsc-llb"][low_bw] <= means["mcp"][low_bw]


def test_high_bandwidth_converges(contention_report):
    high_bw = contention_report.data["bandwidths"][-1]
    for means in contention_report.data["means"].values():
        assert means[high_bw] == pytest.approx(1.0, abs=0.25)
