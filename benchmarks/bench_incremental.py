"""Warm-start incremental rescheduling: the perf gate.

The measurement helpers live in :mod:`repro.bench.warmstart`; the
reuse-fraction sweep of ``results/incremental.txt`` is the registry's
``incremental`` entry (``repro-sched experiment incremental``).

The ``perfgate`` test pins the headline acceptance number: a 10^5-task
reschedule with <= 1% mutated must be at least 5x faster warm than cold,
bit-identical, and pass the independent certifier.
"""

import pytest

from repro.bench.warmstart import PROCS, measure_pair, mutant, prime
from repro.core.flb_array import flb_array
from repro.graph.properties import subgraph_hashes
from repro.graph.taskgraph import TaskGraph
from repro.machine import MachineModel
from repro.util.rng import make_rng
from repro.workloads import stencil
from repro.workloads.stencil import stencil_size_for_tasks


@pytest.mark.perfgate
def test_warm_start_beats_cold_5x_small_mutation():
    """10^5-task stencil with <= 1% of (late, off-chain) tasks retuned:
    the warm-start reschedule must be >= 5x faster than the cold array
    run, bit-identical to it, and pass the independent certifier."""
    from repro.verify import certify as certify_schedule
    from repro.verify import greedy_flavor

    cells, steps = stencil_size_for_tasks(100_000)
    graph = stencil(cells, steps, make_rng(7))
    cold_s, warm_s, stats = measure_pair(graph, 0.001, repeats=3)

    assert "fallback" not in stats, f"warm path fell back: {stats}"
    assert stats["reused"] > 0.99 * graph.num_tasks

    speedup = cold_s / warm_s
    assert speedup >= 5.0, (
        f"warm-start speedup {speedup:.1f}x < 5x "
        f"(cold {cold_s * 1e3:.0f}ms, warm {warm_s * 1e3:.0f}ms)"
    )

    # Correctness outside the timed region: exact equality, then the
    # independent certificate on the warm result.
    base = flb_array(graph, MachineModel(PROCS))
    warm_mutant = mutant(graph, 0.001)
    cold = flb_array(prime(mutant(graph, 0.001)), MachineModel(PROCS))
    warm = flb_array(warm_mutant, MachineModel(PROCS), base=base)
    assert warm.makespan == cold.makespan
    for t in range(0, graph.num_tasks, 997):  # stride keeps the check fast
        assert warm.proc_of(t) == cold.proc_of(t)
        assert warm.start_of(t) == cold.start_of(t)
    cert = certify_schedule(warm, flavor=greedy_flavor("flb"))
    assert cert.ok, [v.code for v in cert.violations]


@pytest.mark.perfgate
def test_identical_resubmission_reuses_everything():
    """The no-change delta (an identical resubmission) must replay the
    whole schedule and cost far less than recomputing it."""
    cells, steps = stencil_size_for_tasks(20_000)
    graph = stencil(cells, steps, make_rng(7))
    base = flb_array(prime(graph), MachineModel(PROCS))
    subgraph_hashes(graph)
    resub = prime(_resub(graph))
    stats = {}
    warm = flb_array(resub, MachineModel(PROCS), base=base,
                     warm_stats=stats)
    assert stats.get("reused") == graph.num_tasks
    assert warm.makespan == base.makespan


def _resub(graph):
    """A bitwise-equal rebuild (identical resubmission)."""
    out = TaskGraph()
    for t in range(graph.num_tasks):
        out.add_task(graph.comp(t), graph._names[t])
    for s, d, c in graph.edges():
        out.add_edge(s, d, c)
    return out.freeze()
