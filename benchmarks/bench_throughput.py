"""FLB scheduling throughput (tasks placed per second).

The array kernel (``docs/performance.md``) is the repo's headline perf
work; these benchmarks track it directly.  ``bench_flb_throughput`` times
it per processor count over the Fig. 2 problems.

``test_array_kernel_beats_seed_4x`` asserts the acceptance floor — the
kernel must clear 4x the throughput of the seed implementation, the
structured loop kept in ``tests/flb_oracle.py`` — and
``test_fast_and_seed_agree`` that the two schedule alike.
"""

import statistics

import pytest

from repro.bench import paper_suite
from repro.bench.perfgate import paired_rounds
from repro.core import flb
from repro.core.flb_array import flb_array
from repro.machine import MachineModel
from tests.flb_oracle import flb_observed

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
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["tasks_per_s"] = round(
            total_tasks / benchmark.stats.stats.median, 1
        )


@pytest.mark.perfgate
def test_array_kernel_beats_seed_4x(bench_tasks):
    """The array kernel's floor: >= 4x seed throughput (the last
    full-scale figure is recorded in docs/performance.md; this asserts the
    documented floor at bench scale).

    The seed and the kernel schedule ``measure_throughput``'s suite (the
    Fig. 2 problems at the conftest's bench scale; override with
    ``REPRO_BENCH_TASKS``) at every P in paired rounds
    (:func:`repro.bench.perfgate.paired_rounds`).  Each arm runs every case
    three times back to back on its memoized graph, as
    ``measure_throughput``'s ``time_scheduler(repeats=3)`` does; the median
    round's seed/kernel time ratio must clear the floor.
    """
    instances = paper_suite(bench_tasks, seeds=1, problems=FIG2_PROBLEMS)
    cases = [(inst.graph, MachineModel(p)) for inst in instances for p in FIG2_PROCS]

    def arm(scheduler):
        def run():
            for graph, machine in cases:
                for _ in range(3):
                    scheduler(graph, machine)
        return run

    for graph, machine in cases:  # memoize priorities, as time_scheduler does
        flb_array(graph, machine)
    ratios = paired_rounds(arm(flb_observed), arm(flb_array), rounds=15)
    speedup = statistics.median(ratios)
    assert speedup >= 4.0, (
        f"seed/kernel {speedup:.2f}x in the median round "
        f"(floor 4x; rounds {[round(r, 2) for r in ratios]})"
    )


@pytest.mark.perfgate
def test_fast_and_seed_agree(suite_by_problem):
    """The two implementations must produce identical schedules — the gate
    would be meaningless if the kernel bought speed with different output."""
    for graph in _graphs(suite_by_problem):
        for procs in (2, 8, 32):
            fast = flb(graph, MachineModel(procs))
            seed = flb_observed(graph, MachineModel(procs))
            assert fast.makespan == seed.makespan
            assert all(
                fast.proc_of(t) == seed.proc_of(t)
                and fast.start_of(t) == seed.start_of(t)
                for t in range(graph.num_tasks)
            )
