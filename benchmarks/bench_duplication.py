"""X6 — duplication quality/cost trade-off (DSH vs FLB).

The paper's Section 1 taxonomy: "Duplicating tasks results in better
scheduling performance but significantly increases scheduling cost."
This bench measures both halves of that sentence.
"""

import numpy as np
import pytest

from repro.bench import EXPERIMENTS
from repro.core import flb
from repro.duplication import dsh
from repro.machine import MachineModel


def bench_dsh(benchmark, suite_by_problem):
    graph = suite_by_problem[("lu", 5.0)]
    schedule = benchmark(dsh, graph, MachineModel(8))
    assert schedule.complete


def bench_flb_same_instance(benchmark, suite_by_problem):
    graph = suite_by_problem[("lu", 5.0)]
    schedule = benchmark(flb, graph, MachineModel(8))
    assert schedule.complete


@pytest.fixture(scope="module")
def dup_report(registry_run):
    return registry_run("duplication")


def test_duplication_improves_quality_on_average(dup_report):
    quality = np.array([r["dsh"] / r["flb"] for r in dup_report["records"]])
    assert quality.mean() <= 1.02


def test_duplication_costs_more(dup_report):
    cost = np.array([r["dsh_s"] / r["flb_s"] for r in dup_report["records"]])
    assert cost.mean() > 1.5


def test_report_renders(dup_report):
    assert "DSH/FLB makespan ratio" in EXPERIMENTS["duplication"].render(dup_report)
