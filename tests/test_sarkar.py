"""Tests for Sarkar's edge-zeroing clustering and the sarkar-llb pipeline."""

import pytest

from repro.machine import MachineModel
from repro.graph import bottom_levels, critical_path_length, static_levels
from repro.schedulers import SCHEDULERS, dsc, sarkar, sarkar_llb
from repro.schedulers.sarkar import estimate_parallel_time
from repro.util.rng import make_rng
from repro.workloads import (
    chain,
    erdos_dag,
    fork_join,
    independent_tasks,
    lu,
    paper_example,
    stencil,
)


class TestEstimator:
    def test_singleton_clusters_equal_full_comm_schedule(self):
        g = paper_example()
        machine = MachineModel(1)
        bl = bottom_levels(g)
        time, start = estimate_parallel_time(g, list(g.tasks()), machine, bl)
        # Unbounded processors, all comm paid: the makespan is the CP.
        assert time == pytest.approx(critical_path_length(g))
        assert start[0] == 0.0

    def test_single_cluster_is_serial(self):
        g = lu(6, make_rng(0), ccr=3.0)
        machine = MachineModel(1)
        bl = bottom_levels(g)
        time, _ = estimate_parallel_time(g, [0] * g.num_tasks, machine, bl)
        assert time == pytest.approx(g.total_comp())

    def test_start_times_respect_dependencies(self):
        g = erdos_dag(20, 0.3, make_rng(1), ccr=2.0)
        machine = MachineModel(1)
        bl = bottom_levels(g)
        c = dsc(g)
        _, start = estimate_parallel_time(g, list(c.cluster_of), machine, bl)
        for src, dst, comm in g.edges():
            gap = start[dst] - (start[src] + g.comp(src))
            if c.cluster_of[src] == c.cluster_of[dst]:
                assert gap >= -1e-9
            else:
                assert gap >= comm - 1e-9


class TestSarkarClustering:
    def test_partition(self):
        g = erdos_dag(18, 0.25, make_rng(2), ccr=2.0)
        c = sarkar(g)
        seen = sorted(t for cl in c.clusters for t in cl)
        assert seen == list(range(18))
        for cid, cl in enumerate(c.clusters):
            for t in cl:
                assert c.cluster_of[t] == cid

    def test_never_worse_than_no_clustering(self):
        """Merges are only accepted when the estimated parallel time does
        not increase, so the result is at most the full-communication CP."""
        for seed in range(4):
            g = erdos_dag(16, 0.3, make_rng(seed), ccr=4.0)
            c = sarkar(g)
            assert c.makespan <= critical_path_length(g) + 1e-9
            assert c.makespan >= max(static_levels(g)) - 1e-9

    def test_chain_collapses(self):
        g = chain(8, make_rng(3), ccr=5.0)
        c = sarkar(g)
        assert c.num_clusters == 1

    def test_independent_tasks_stay_apart(self):
        c = sarkar(independent_tasks(6))
        assert c.num_clusters == 6

    def test_zeroes_heavy_edges_first(self):
        # The paper example's heaviest edge t0->t2 (comm 4) gets zeroed.
        g = paper_example()
        c = sarkar(g)
        assert c.cluster_of[0] == c.cluster_of[2]

    def test_cluster_order_topological(self):
        g = lu(6, make_rng(4), ccr=2.0)
        c = sarkar(g)
        pos = {}
        for cl in c.clusters:
            for i, t in enumerate(cl):
                pos[t] = i
        for src, dst, _ in g.edges():
            if c.cluster_of[src] == c.cluster_of[dst]:
                assert pos[src] < pos[dst]


class TestSarkarLlb:
    @pytest.mark.parametrize("procs", [1, 2, 4])
    def test_valid_schedules(self, procs):
        for builder in (
            lambda: paper_example(),
            lambda: lu(7, make_rng(5), ccr=5.0),
            lambda: stencil(5, 5, make_rng(6), ccr=0.2),
            lambda: fork_join(3, 4, make_rng(7), ccr=1.0),
        ):
            s = sarkar_llb(builder(), MachineModel(procs))
            assert s.complete
            assert s.violations() == []

    def test_registry_entry(self):
        s = SCHEDULERS["sarkar-llb"](paper_example(), MachineModel(2))
        assert s.violations() == []

    def test_competitive_with_dsc_llb_on_average(self):
        """Both are clustering+LLB; neither should dominate catastrophically
        on small communication-heavy graphs."""
        ratios = []
        for seed in range(5):
            g = erdos_dag(20, 0.25, make_rng(seed), ccr=5.0)
            srk = sarkar_llb(g, MachineModel(4)).makespan
            dsl = SCHEDULERS["dsc-llb"](g, MachineModel(4)).makespan
            ratios.append(srk / dsl)
        mean = sum(ratios) / len(ratios)
        assert 0.6 < mean < 1.6
