"""X5 — degradation under sender-port link contention.

The paper's machine model is contention-free; this extension re-executes
schedules on a single-port sender model and measures how much of the
promised makespan survives.  Expected shape: degradation grows as bandwidth
shrinks and as CCR grows, and communication-minimising schedules (DSC-LLB)
degrade less than communication-oblivious ones.
"""

import pytest

from repro.bench.experiments import contention_means
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
def contention_report(registry_run):
    """Mean contended/free makespan per algorithm, one value per bandwidth
    (lowest first), from the registry run."""
    return contention_means(registry_run("contention"))


def test_contention_monotone_in_bandwidth(contention_report):
    for algo, values in contention_report.items():
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-9, f"{algo}: degradation not monotone"


def test_contention_never_below_one(contention_report):
    for values in contention_report.values():
        for value in values:
            assert value >= 1.0 - 1e-9


def test_dsc_llb_degrades_least_at_low_bandwidth(contention_report):
    """The communication-minimising multi-step schedule keeps more of its
    promise under severe contention."""
    means = contention_report
    assert means["dsc-llb"][0] <= means["flb"][0]
    assert means["dsc-llb"][0] <= means["mcp"][0]


def test_high_bandwidth_converges(contention_report):
    for values in contention_report.values():
        assert values[-1] == pytest.approx(1.0, abs=0.25)
