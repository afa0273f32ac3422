"""Property tests of Theorem 3: FLB always schedules the ready task that can
start the earliest, matching an exhaustive ETF-style brute-force scan.

This is the paper's central correctness claim, exercised here across every
workload family, many random graphs (hypothesis), CCR regimes, processor
counts, and extended machine models.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import MachineModel
from repro.schedule import Schedule
from repro.util.rng import make_rng
from repro.workloads import (
    cholesky,
    erdos_dag,
    fft,
    fork_join,
    lu_chain,
    in_tree,
    laplace,
    layered_random,
    lu,
    out_tree,
    paper_example,
    series_parallel,
    stencil,
)
from tests.flb_oracle import OracleObserver, brute_force_min_est, est_of, flb_observed


def run_with_oracle(graph, machine):
    oracle = OracleObserver()
    schedule = flb_observed(graph, machine, oracle)
    assert oracle.iterations == graph.num_tasks
    assert schedule.violations() == []
    return schedule


WORKLOADS = [
    ("lu", lambda rng, ccr: lu(8, rng, ccr=ccr)),
    ("lu_chain", lambda rng, ccr: lu_chain(7, rng, ccr=ccr)),
    ("laplace", lambda rng, ccr: laplace(4, 3, rng, ccr=ccr)),
    ("stencil", lambda rng, ccr: stencil(6, 5, rng, ccr=ccr)),
    ("fft", lambda rng, ccr: fft(8, rng, ccr=ccr)),
    ("cholesky", lambda rng, ccr: cholesky(4, rng, ccr=ccr)),
    ("fork_join", lambda rng, ccr: fork_join(3, 5, rng, ccr=ccr)),
    ("out_tree", lambda rng, ccr: out_tree(3, 3, rng, ccr=ccr)),
    ("in_tree", lambda rng, ccr: in_tree(3, 3, rng, ccr=ccr)),
    ("sp", lambda rng, ccr: series_parallel(20, rng, ccr=ccr)),
]


@pytest.mark.parametrize("name,builder", WORKLOADS)
@pytest.mark.parametrize("ccr", [0.2, 5.0])
@pytest.mark.parametrize("procs", [2, 5])
def test_theorem3_on_workloads(name, builder, ccr, procs):
    run_with_oracle(builder(make_rng(17), ccr), MachineModel(procs))


@pytest.mark.parametrize("procs", [1, 2, 3, 8])
def test_theorem3_paper_example(procs):
    run_with_oracle(paper_example(), MachineModel(procs))


def test_theorem3_extended_machine():
    g = layered_random(5, 5, make_rng(3), ccr=2.0)
    machine = MachineModel(3, comm_scale=1.7, latency=0.4)
    run_with_oracle(g, machine)


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(2, 40),
    p=st.floats(0.0, 0.5),
    ccr=st.floats(0.05, 8.0),
    procs=st.integers(1, 8),
    seed=st.integers(0, 10_000),
)
def test_theorem3_random_graphs(n, p, ccr, procs, seed):
    g = erdos_dag(n, p, make_rng(seed), ccr=ccr)
    run_with_oracle(g, MachineModel(procs))


@settings(max_examples=60, deadline=None)
@given(
    layers=st.integers(1, 8),
    width=st.integers(1, 8),
    density=st.floats(0.05, 1.0),
    procs=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
def test_theorem3_layered_graphs(layers, width, density, procs, seed):
    g = layered_random(layers, width, make_rng(seed), edge_density=density, ccr=1.0)
    run_with_oracle(g, MachineModel(procs))


class TestOracleHelpers:
    def test_est_of_matches_manual(self):
        g = paper_example()
        s = Schedule(g, MachineModel(2))
        s.place(0, 0, 0.0)
        # t2 on p0: message free -> EST = max(FT(t0), PRT(p0)) = 2.
        assert est_of(s, 2, 0) == 2.0
        # t2 on p1: message costs 4 -> EST = 6.
        assert est_of(s, 2, 1) == 6.0

    def test_brute_force_min(self):
        g = paper_example()
        s = Schedule(g, MachineModel(2))
        s.place(0, 0, 0.0)
        best, argmins = brute_force_min_est(s, [1, 2, 3])
        assert best == 2.0
        assert set(argmins) == {(1, 0), (2, 0), (3, 0)}

    def test_oracle_counts_ties(self):
        oracle = OracleObserver()
        flb_observed(paper_example(), MachineModel(2), oracle)
        assert oracle.iterations == 8
        assert oracle.tie_iterations == 1
