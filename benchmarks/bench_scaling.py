"""X1 — complexity-scaling check for the paper's
``O(V (log W + log P) + E)`` claim.

On layered random graphs of fixed width (constant ``W``) with ``V`` and
``E`` growing linearly, FLB's time per task must stay near-constant, and
doubling ``P`` must cost at most the ``log P`` term.  ETF at the same sizes
grows like ``W * P`` per task, which is what makes it unusable at scale —
contrasted here at the smallest size only.

The 10^3..10^6 stencil curve of ``results/scaling.txt`` is the registry's
``scaling`` entry (``repro-sched experiment scaling``).
"""

import pytest

from repro.core import flb
from repro.machine import MachineModel
from repro.metrics import time_scheduler
from repro.schedulers import SCHEDULERS
from repro.util.rng import make_rng
from repro.workloads import layered_random

WIDTH = 25
SIZES = (500, 1000, 2000, 4000)


def _graph(v):
    return layered_random(v // WIDTH, WIDTH, make_rng(7), edge_density=0.15, ccr=1.0)


@pytest.mark.parametrize("v", SIZES)
def bench_flb_scaling_v(benchmark, v):
    graph = _graph(v)
    benchmark.extra_info["V"] = graph.num_tasks
    benchmark.extra_info["E"] = graph.num_edges
    schedule = benchmark(flb, graph, MachineModel(16))
    assert schedule.complete


@pytest.mark.parametrize("procs", [2, 16, 128])
def bench_flb_scaling_p(benchmark, procs):
    graph = _graph(2000)
    schedule = benchmark(flb, graph, MachineModel(procs))
    assert schedule.complete


def test_scaling_near_linear_in_v():
    """Time per task from V=500 to V=4000 may grow only modestly (constant
    W, so only cache effects and the log terms move)."""
    per_task = {}
    for v in (500, 4000):
        g = _graph(v)
        per_task[v] = time_scheduler(flb, g, MachineModel(16), repeats=3) / g.num_tasks
    assert per_task[4000] < 3.0 * per_task[500]


def test_scaling_gentle_in_p():
    """64x more processors must cost far less than 64x more time."""
    g = _graph(2000)
    t2 = time_scheduler(flb, g, MachineModel(2), repeats=3)
    t128 = time_scheduler(flb, g, MachineModel(128), repeats=3)
    assert t128 < 4.0 * t2


def test_scaling_flb_beats_etf_at_scale():
    """At V=1000, P=16, FLB must be at least an order of magnitude cheaper
    than ETF (the motivating cost gap)."""
    g = _graph(1000)
    t_flb = time_scheduler(flb, g, MachineModel(16), repeats=3)
    t_etf = time_scheduler(SCHEDULERS["etf"], g, MachineModel(16), repeats=1)
    assert t_etf > 10.0 * t_flb

