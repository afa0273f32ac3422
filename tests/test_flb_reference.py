"""The fast FLB and the brute-force reference FLB must produce *identical*
schedules on every input — the strongest cross-check of the priority-list
machinery (the oracle only checks the chosen start time is minimal; this
checks the exact task/processor choice)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import flb
from repro.machine import MachineModel
from repro.util.rng import make_rng
from repro.workloads import (
    cholesky,
    erdos_dag,
    fft,
    fork_join,
    in_tree,
    laplace,
    layered_random,
    lu,
    lu_chain,
    out_tree,
    paper_example,
    series_parallel,
    stencil,
)
from tests.flb_oracle import flb_reference


def assert_identical(graph, machine):
    fast = flb(graph, machine)
    slow = flb_reference(graph, machine)
    for t in graph.tasks():
        assert fast.proc_of(t) == slow.proc_of(t), f"task {t}: different processor"
        assert fast.start_of(t) == pytest.approx(slow.start_of(t)), f"task {t}: different start"
    assert fast.makespan == pytest.approx(slow.makespan)


WORKLOADS = [
    ("paper", lambda rng: paper_example()),
    ("lu", lambda rng: lu(9, rng, ccr=5.0)),
    ("lu_chain", lambda rng: lu_chain(9, rng, ccr=0.2)),
    ("laplace", lambda rng: laplace(4, 4, rng, ccr=1.0)),
    ("stencil", lambda rng: stencil(7, 6, rng, ccr=5.0)),
    ("fft", lambda rng: fft(16, rng, ccr=0.2)),
    ("cholesky", lambda rng: cholesky(5, rng, ccr=1.0)),
    ("fork_join", lambda rng: fork_join(4, 6, rng, ccr=2.0)),
    ("out_tree", lambda rng: out_tree(4, 2, rng, ccr=1.0)),
    ("in_tree", lambda rng: in_tree(4, 2, rng, ccr=1.0)),
    ("sp", lambda rng: series_parallel(25, rng, ccr=1.0)),
]


@pytest.mark.parametrize("name,builder", WORKLOADS)
@pytest.mark.parametrize("procs", [1, 2, 4, 7])
def test_identical_on_workloads(name, builder, procs):
    assert_identical(builder(make_rng(13)), MachineModel(procs))


def test_identical_on_extended_machine():
    g = layered_random(6, 5, make_rng(1), ccr=2.0)
    assert_identical(g, MachineModel(3, comm_scale=1.5, latency=0.25))


def test_identical_with_integer_weights_many_ties():
    # Constant weights maximise tie frequency — the hardest case for
    # tie-break equivalence.
    for seed in range(5):
        g = erdos_dag(30, 0.25, None, ccr=1.0)  # deterministic unit weights
        assert_identical(g, MachineModel(3))
        g2 = layered_random(5, 6, make_rng(seed), edge_density=0.4, ccr=1.0)
        assert_identical(g2, MachineModel(4))


def test_identical_unit_weight_fork_join():
    g = fork_join(5, 7, None, ccr=1.0)  # all weights equal -> ties everywhere
    for procs in (2, 3, 8):
        assert_identical(g, MachineModel(procs))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 35),
    p=st.floats(0.0, 0.5),
    ccr=st.floats(0.05, 8.0),
    procs=st.integers(1, 8),
    seed=st.integers(0, 10_000),
)
def test_property_identical_on_random_graphs(n, p, ccr, procs, seed):
    g = erdos_dag(n, p, make_rng(seed), ccr=ccr)
    assert_identical(g, MachineModel(procs))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 30),
    p=st.floats(0.0, 0.6),
    procs=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
def test_property_identical_with_unit_weights(n, p, procs, seed):
    """Unit weights force maximal tie density."""
    g = erdos_dag(n, p, make_rng(seed), ccr=1.0)
    # Rebuild with constant weights but the random topology.
    from repro.graph import TaskGraph

    g2 = TaskGraph()
    for _ in g.tasks():
        g2.add_task(1.0)
    for src, dst, _ in g.edges():
        g2.add_edge(src, dst, 1.0)
    assert_identical(g2.freeze(), MachineModel(procs))
