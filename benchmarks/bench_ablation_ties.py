"""X2 — FLB vs ETF tie-breaking ablation (paper Section 6.2).

FLB and ETF provably pick a pair with the same minimum start time at every
iteration (Theorem 3, tested in tests/test_flb_oracle.py); any makespan
difference comes purely from how ties between equally early pairs are
broken.  The paper attributes FLB's up-to-12% wins over ETF to its dynamic
(message-arrival) priorities versus ETF's static ones.

This bench quantifies the gap distribution on the benchmark suite.
"""

import numpy as np
import pytest

from repro.bench import run_ablation_ties
from repro.machine import MachineModel
from repro.schedulers import SCHEDULERS


def bench_ablation_flb_vs_etf(benchmark, suite_by_problem):
    graph = suite_by_problem[("stencil", 5.0)]

    def run():
        return (
            SCHEDULERS["flb"](graph, MachineModel(8)).makespan,
            SCHEDULERS["etf"](graph, MachineModel(8)).makespan,
        )

    flb_span, etf_span = benchmark(run)
    benchmark.extra_info["flb_over_etf"] = round(flb_span / etf_span, 4)


@pytest.fixture(scope="module")
def tie_report(bench_tasks, bench_seeds):
    return run_ablation_ties(target_tasks=bench_tasks, seeds=bench_seeds, procs=(4, 16))


def test_ties_mean_ratio_near_one(tie_report):
    """On suite average FLB and ETF are equivalent to within a few percent
    (they optimise the same criterion)."""
    assert tie_report.data["mean"] == pytest.approx(1.0, abs=0.08)


def test_ties_individual_gaps_bounded(tie_report):
    """Per-instance gaps stay inside a generous band around the paper's
    reported 12%-ish maximum (random weights differ from theirs)."""
    ratios = np.asarray(tie_report.data["ratios"])
    assert ratios.min() > 0.7
    assert ratios.max() < 1.35


def test_ties_report_renders(tie_report):
    assert "FLB/ETF makespan ratio" in tie_report.text


class TestTiePreferenceKnob:
    """The paper resolves EP/non-EP start-time ties toward the non-EP task;
    this measures what the opposite policy would do."""

    def test_policies_close_with_continuous_weights(self, suite_by_problem):
        # Even with continuous weights, EP/non-EP ties occur whenever both
        # candidates are bound by the same processor's ready time, so exact
        # equality is not guaranteed — but the policies stay close.
        from repro.core import flb

        graph = suite_by_problem[("stencil", 0.2)]
        a = flb(graph, MachineModel(8)).makespan
        b = flb(graph, MachineModel(8), prefer_non_ep_on_tie=False).makespan
        assert b == pytest.approx(a, rel=0.1)

    def test_policies_comparable_with_unit_weights(self):
        import numpy as np

        from repro.core import flb
        from repro.workloads import fork_join, lu, stencil

        ratios = []
        for builder in (
            lambda: lu(20, None, ccr=1.0),
            lambda: stencil(10, 10, None, ccr=1.0),
            lambda: fork_join(6, 8, None, ccr=1.0),
        ):
            g = builder()  # unit weights maximise ties
            paper = flb(g, MachineModel(8)).makespan
            flipped = flb(g, MachineModel(8), prefer_non_ep_on_tie=False).makespan
            ratios.append(flipped / paper)
        mean = float(np.mean(ratios))
        # Neither policy dominates by a large margin on suite average.
        assert 0.8 < mean < 1.2
