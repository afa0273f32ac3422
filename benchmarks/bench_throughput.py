"""FLB scheduling throughput (tasks placed per second).

The array kernel (``docs/performance.md``) is the repo's headline perf
work; these benchmarks track it directly.  ``bench_flb_throughput`` times
it per processor count over the Fig. 2 problems; ``bench_seed_vs_fast``
times the preserved pre-CSR implementation
(``repro.bench.perfgate.seed_flb``) on the same inputs so a
``pytest benchmarks/bench_throughput.py`` run shows the before/after pair.

``test_array_kernel_beats_seed_4x`` asserts the acceptance floor — the
kernel must clear 4x the seed implementation's throughput — which is the
same claim ``BENCH_sched.json`` records at full (V~2000) scale.
"""

import pytest

from repro.bench.perfgate import measure_throughput, seed_flb
from repro.core import flb
from repro.machine import MachineModel

FIG2_PROBLEMS = ("lu", "laplace", "stencil")
FIG2_PROCS = (2, 8, 32)


def _graphs(suite_by_problem, ccr=0.2):
    return [suite_by_problem[(prob, ccr)] for prob in FIG2_PROBLEMS]


@pytest.mark.parametrize("procs", FIG2_PROCS)
def bench_flb_throughput(benchmark, suite_by_problem, procs):
    graphs = _graphs(suite_by_problem)
    total_tasks = sum(g.num_tasks for g in graphs)
    benchmark.extra_info["V"] = total_tasks

    def run():
        return [flb(g, MachineModel(procs)).makespan for g in graphs]

    spans = benchmark(run)
    assert all(m > 0 for m in spans)
    benchmark.extra_info["tasks_per_s"] = round(total_tasks / benchmark.stats.stats.median, 1)


@pytest.mark.parametrize("impl", ["fast", "seed"])
def bench_seed_vs_fast(benchmark, suite_by_problem, impl):
    graphs = _graphs(suite_by_problem)
    scheduler = flb if impl == "fast" else seed_flb

    def run():
        return [scheduler(g, MachineModel(8)).makespan for g in graphs]

    spans = benchmark(run)
    assert all(m > 0 for m in spans)


@pytest.mark.perfgate
def test_array_kernel_beats_seed_4x(suite_by_problem, bench_tasks):
    """The array kernel's floor: >= 4x seed throughput (the measured
    full-scale figure is recorded in BENCH_sched.json and
    docs/performance.md; this asserts the documented floor at bench scale).

    Measured through the same aggregate :func:`measure_throughput` the gate
    uses, at the conftest's bench scale (override with ``REPRO_BENCH_TASKS``).
    """
    result = measure_throughput(
        target_tasks=bench_tasks, seeds=1, procs=(2, 8, 32), repeats=3,
    )
    assert result["speedup_vs_seed"] >= 4.0, result


@pytest.mark.perfgate
def test_fast_and_seed_agree(suite_by_problem):
    """The two implementations must produce identical schedules — the gate
    would be meaningless if the kernel bought speed with different output."""
    for graph in _graphs(suite_by_problem):
        for procs in (2, 8, 32):
            fast = flb(graph, MachineModel(procs))
            seed = seed_flb(graph, MachineModel(procs))
            assert fast.makespan == seed.makespan
            assert all(
                fast.proc_of(t) == seed.proc_of(t)
                and fast.start_of(t) == seed.start_of(t)
                for t in range(graph.num_tasks)
            )
