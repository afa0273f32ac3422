"""Fig. 3 — FLB speedup versus P, per problem and CCR.

The paper reports two behaviour classes: Stencil and FFT (regular, local
communication) achieve near-linear speedup, while LU and Laplace (fork/join
heavy) saturate at large P; CCR = 5.0 depresses speedup across the board
relative to CCR = 0.2.

``bench_*`` functions time FLB at the largest processor count per problem;
``test_fig3_shape`` asserts the qualitative speedup behaviour.
"""

import pytest

from repro.bench import PAPER_PROBLEMS
from repro.core import flb
from repro.machine import MachineModel
from repro.metrics import speedup

FIG3_PROCS = (1, 2, 4, 8, 16, 32)


@pytest.mark.parametrize("ccr", [0.2, 5.0])
@pytest.mark.parametrize("problem", PAPER_PROBLEMS)
def bench_fig3_flb(benchmark, suite_by_problem, problem, ccr):
    graph = suite_by_problem[(problem, ccr)]
    benchmark.extra_info["V"] = graph.num_tasks
    schedule = benchmark(flb, graph, MachineModel(32))
    benchmark.extra_info["speedup_P32"] = round(speedup(schedule), 3)
    assert schedule.makespan > 0


def _speedups(graph, procs=FIG3_PROCS):
    return {p: speedup(flb(graph, MachineModel(p))) for p in procs}


def test_fig3_shape_coarse_grain(suite_by_problem):
    """At CCR = 0.2 every problem gains substantially from parallelism, and
    the regular problems (stencil, fft) scale further than LU."""
    s = {prob: _speedups(suite_by_problem[(prob, 0.2)]) for prob in PAPER_PROBLEMS}
    for prob in PAPER_PROBLEMS:
        assert s[prob][1] == pytest.approx(1.0, rel=1e-6)
        assert s[prob][8] > 3.0
        # Speedup should be (weakly) non-decreasing in P, within tolerance.
        for lo, hi in zip(FIG3_PROCS, FIG3_PROCS[1:]):
            assert s[prob][hi] >= s[prob][lo] * 0.9
    # The regular problems dominate LU at scale (the paper's two classes).
    assert s["stencil"][32] > s["lu"][32]
    assert s["fft"][32] > s["lu"][32]


def test_fig3_shape_fine_grain(suite_by_problem):
    """CCR = 5.0 yields uniformly lower speedup than CCR = 0.2 at P = 32."""
    for prob in PAPER_PROBLEMS:
        coarse = speedup(flb(suite_by_problem[(prob, 0.2)], MachineModel(32)))
        fine = speedup(flb(suite_by_problem[(prob, 5.0)], MachineModel(32)))
        assert fine <= coarse + 1e-9


def test_fig3_speedup_well_defined(suite_by_problem):
    """Speedup is >= 1 at P=1 by definition and bounded by P."""
    for (prob, ccr), graph in suite_by_problem.items():
        for procs in (1, 4, 32):
            sp = speedup(flb(graph, MachineModel(procs)))
            assert 0 < sp <= procs + 1e-9
