"""X3 — LLB priority-direction ablation.

The FLB paper's related-work text describes LLB's candidate selection as
using the "least bottom level", while the LLB paper itself prioritises the
*largest* bottom level.  Our DSC-LLB defaults to 'largest' (DESIGN.md §4.4);
this bench measures what the other reading would have cost.
"""

import numpy as np
import pytest

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
def llb_ratios(registry_run):
    """least/largest makespan ratio per (instance, P) of the registry run."""
    records = registry_run("ablation-llb")["records"]
    return np.array([r["least"] / r["largest"] for r in records])


def test_llb_largest_no_worse_on_average(llb_ratios):
    """'largest' must be at least as good as 'least' on suite average —
    the basis for our default (and for reading the paper's 'least' as a
    description slip)."""
    assert llb_ratios.mean() >= 0.97


def test_llb_both_directions_produce_valid_ratios(llb_ratios):
    ratios = llb_ratios
    assert (ratios > 0).all()
    assert np.isfinite(ratios).all()
