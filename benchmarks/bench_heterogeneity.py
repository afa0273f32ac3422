"""X7 — processor-speed heterogeneity.

The paper's machine is homogeneous; its authors' later work extended these
schedulers to heterogeneous systems.  This bench measures how much the
homogeneous-minded algorithms (FLB, MCP) leave on the table as processor
speeds skew, against HEFT as the heterogeneity-aware reference.
"""

import pytest

from repro.bench.experiments import heterogeneity_means
from repro.machine import MachineModel
from repro.schedulers import heft


@pytest.mark.parametrize("skew", [1.0, 4.0])
def bench_heft_under_skew(benchmark, suite_by_problem, skew):
    graph = suite_by_problem[("lu", 0.2)]
    procs = 8
    speeds = tuple(skew ** (-i / (procs - 1)) for i in range(procs))
    machine = MachineModel(procs, speeds=speeds)
    schedule = benchmark(heft, graph, machine=machine)
    assert schedule.complete


@pytest.fixture(scope="module")
def hetero_report(registry_run):
    data = registry_run("heterogeneity")
    return {
        "skews": data["skews"],
        "means": {a: heterogeneity_means(data, a) for a in data["algorithms"]},
    }


def test_heft_at_parity_on_homogeneous(hetero_report):
    """At skew 1 (homogeneous) the algorithms are comparable."""
    means = hetero_report["means"]
    for algo in means:
        assert means[algo][1.0] == pytest.approx(1.0, abs=0.15)


def test_gap_grows_with_skew(hetero_report):
    """Homogeneous-minded schedulers fall further behind HEFT as the
    machine skews."""
    means = hetero_report["means"]
    skews = hetero_report["skews"]
    for algo in ("flb", "mcp"):
        values = [means[algo][s] for s in skews]
        assert values[-1] > values[0]
        assert values[-1] > 1.2  # substantial at the largest skew


def test_heft_is_the_reference(hetero_report):
    means = hetero_report["means"]
    for s in hetero_report["skews"]:
        assert means["heft"][s] == pytest.approx(1.0)
