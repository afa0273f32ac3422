"""Fig. 2 — scheduling algorithm costs (running time) versus P.

The paper (Pentium Pro 233 MHz) reports: ETF by far the most expensive and
growing steeply with P (185 ms at P=2 to 2.6 s at P=32); MCP growing but an
order cheaper (41 -> 139 ms); DSC-LLB roughly flat (~180 ms); FCP and FLB
cheapest and nearly flat (33-41 ms and 38-49 ms).

Each ``bench_*`` function times one algorithm at one processor count over
the three Fig. 2 problems (LU, Laplace, Stencil); the ``test_fig2_shape``
check asserts the paper's qualitative ordering on this machine.
"""

import pytest

from repro.bench import FIGURE_ALGORITHMS
from repro.machine import MachineModel
from repro.metrics import time_scheduler
from repro.schedulers import SCHEDULERS

FIG2_PROBLEMS = ("lu", "laplace", "stencil")
FIG2_PROCS = (2, 8, 32)


def _graphs(suite_by_problem, ccr=0.2):
    return [suite_by_problem[(prob, ccr)] for prob in FIG2_PROBLEMS]


@pytest.mark.parametrize("procs", FIG2_PROCS)
@pytest.mark.parametrize("algo", FIGURE_ALGORITHMS)
def bench_fig2(benchmark, suite_by_problem, algo, procs):
    graphs = _graphs(suite_by_problem)
    scheduler = SCHEDULERS[algo]
    benchmark.extra_info["V"] = sum(g.num_tasks for g in graphs)

    def run():
        return [scheduler(g, MachineModel(procs)).makespan for g in graphs]

    spans = benchmark(run)
    assert all(m > 0 for m in spans)


def test_fig2_shape(suite_by_problem):
    """The paper's qualitative cost ordering must hold:

    * ETF is the most expensive at every P and grows superlinearly with P;
    * FLB and FCP are the cheapest and nearly flat in P;
    * FLB stays within a small factor of FCP (paper: comparable);
    * MCP's cost grows with P but stays well below ETF's.
    """
    graphs = _graphs(suite_by_problem)

    def cost(algo, procs):
        return sum(
            time_scheduler(SCHEDULERS[algo], g, MachineModel(procs), repeats=3) for g in graphs
        )

    lo, hi = 2, 32
    costs = {
        algo: {p: cost(algo, p) for p in (lo, hi)}
        for algo in ("flb", "fcp", "mcp", "etf")
    }
    # ETF dominates everyone.
    for algo in ("flb", "fcp", "mcp"):
        assert costs["etf"][lo] > costs[algo][lo]
        assert costs["etf"][hi] > costs[algo][hi]
    # ETF grows strongly with P; FLB and FCP stay nearly flat.
    assert costs["etf"][hi] / costs["etf"][lo] > 3.0
    assert costs["flb"][hi] / costs["flb"][lo] < 2.0
    assert costs["fcp"][hi] / costs["fcp"][lo] < 2.0
    # FLB is within a small constant factor of FCP (paper: "same level").
    assert costs["flb"][hi] < 4.0 * costs["fcp"][hi]
    # MCP at P=32 is far cheaper than ETF at P=32.
    assert costs["mcp"][hi] < 0.5 * costs["etf"][hi]
