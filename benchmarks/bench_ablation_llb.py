"""X3 — LLB priority-direction ablation.

The FLB paper's related-work text describes LLB's candidate selection as
using the "least bottom level", while the LLB paper itself prioritises the
*largest* bottom level.  Our DSC-LLB defaults to 'largest' (DESIGN.md §4.4);
this bench measures what the other reading would have cost.
"""

import numpy as np
import pytest

from repro.bench import run_ablation_llb
from repro.machine import MachineModel
from repro.schedulers import dsc, llb


def bench_llb_largest(benchmark, suite_by_problem):
    graph = suite_by_problem[("lu", 5.0)]
    clustering = dsc(graph)
    schedule = benchmark(llb, graph, clustering, MachineModel(8), priority="largest")
    assert schedule.complete


def bench_llb_least(benchmark, suite_by_problem):
    graph = suite_by_problem[("lu", 5.0)]
    clustering = dsc(graph)
    schedule = benchmark(llb, graph, clustering, MachineModel(8), priority="least")
    assert schedule.complete


@pytest.fixture(scope="module")
def llb_report(bench_tasks, bench_seeds):
    return run_ablation_llb(target_tasks=bench_tasks, seeds=bench_seeds, procs=(4, 16))


def test_llb_largest_no_worse_on_average(llb_report):
    """'largest' must be at least as good as 'least' on suite average —
    the basis for our default (and for reading the paper's 'least' as a
    description slip)."""
    assert llb_report.data["mean"] >= 0.97


def test_llb_both_directions_produce_valid_ratios(llb_report):
    ratios = np.asarray(llb_report.data["ratios"])
    assert (ratios > 0).all()
    assert np.isfinite(ratios).all()
