"""Tests for DSC clustering, LLB mapping, and the DSC-LLB composition."""

import pytest

from repro.exceptions import SchedulerError
from repro.graph import critical_path_length
from repro.machine import MachineModel
from repro.schedulers import dsc, dsc_llb, llb
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


class TestDsc:
    def test_partition(self):
        g = erdos_dag(30, 0.2, make_rng(0), ccr=2.0)
        c = dsc(g)
        seen = sorted(t for cl in c.clusters for t in cl)
        assert seen == list(range(30))
        for cl_id, cl in enumerate(c.clusters):
            for t in cl:
                assert c.cluster_of[t] == cl_id

    def test_cluster_order_is_topological_and_times_consistent(self):
        g = lu(8, make_rng(1), ccr=3.0)
        c = dsc(g)
        for cl in c.clusters:
            finish = 0.0
            for t in cl:
                assert c.tlevel[t] >= finish - 1e-9  # appended after previous
                finish = c.tlevel[t] + g.comp(t)

    def test_tlevels_respect_dependencies(self):
        g = erdos_dag(25, 0.25, make_rng(2), ccr=1.0)
        c = dsc(g)
        for src, dst, comm in g.edges():
            ft = c.tlevel[src] + g.comp(src)
            if c.cluster_of[src] == c.cluster_of[dst]:
                assert c.tlevel[dst] >= ft - 1e-9
            else:
                assert c.tlevel[dst] >= ft + comm - 1e-9

    def test_chain_collapses_to_one_cluster(self):
        # Zeroing every edge of a chain always reduces the start time.
        g = chain(10, make_rng(3), ccr=4.0)
        c = dsc(g)
        assert c.num_clusters == 1
        assert c.makespan == pytest.approx(g.total_comp())

    def test_independent_tasks_one_cluster_each(self):
        g = independent_tasks(7)
        c = dsc(g)
        assert c.num_clusters == 7
        assert c.makespan == pytest.approx(1.0)

    def test_makespan_bounds(self):
        # Clustered (unbounded procs) makespan is at most serial time and at
        # least the communication-free critical path.
        for seed in range(4):
            g = erdos_dag(30, 0.2, make_rng(seed), ccr=2.0)
            c = dsc(g)
            assert c.makespan <= g.total_comp() + 1e-9
            from repro.graph import static_levels

            assert c.makespan >= max(static_levels(g)) - 1e-9

    def test_clustering_reduces_cp_when_comm_heavy(self):
        # With heavy communication, DSC's virtual makespan must beat the
        # no-clustering bound (the full critical path with communication).
        g = chain(6, None, ccr=10.0)
        c = dsc(g)
        assert c.makespan < critical_path_length(g)

    def test_paper_example_clustering(self):
        g = paper_example()
        c = dsc(g)
        # The heavy t0 -> t2 edge (comm 4) is zeroed first: t0 and t2 end up
        # co-clustered, and the dominant sequence t3 -> t5 -> t7 forms a
        # chain cluster.
        assert c.cluster_of[0] == c.cluster_of[2]
        assert c.cluster_of[3] == c.cluster_of[5] == c.cluster_of[7]
        assert c.makespan <= critical_path_length(g)
        assert c.makespan == pytest.approx(11.0)


class TestLlb:
    def test_paper_example(self):
        g = paper_example()
        s = llb(g, dsc(g), MachineModel(2))
        assert s.complete
        assert s.violations() == []

    def test_respects_cluster_affinity(self):
        # Once a cluster is mapped, its tasks all run on that processor.
        g = lu(8, make_rng(4), ccr=2.0)
        c = dsc(g)
        s = llb(g, c, MachineModel(3))
        proc_of_cluster = {}
        for t in g.tasks():
            cl = c.cluster_of[t]
            if cl in proc_of_cluster:
                assert s.proc_of(t) == proc_of_cluster[cl]
            else:
                proc_of_cluster[cl] = s.proc_of(t)

    def test_priority_flag(self):
        g = stencil(6, 5, make_rng(5), ccr=1.0)
        c = dsc(g)
        s_largest = llb(g, c, MachineModel(3), priority="largest")
        s_least = llb(g, c, MachineModel(3), priority="least")
        assert s_largest.violations() == []
        assert s_least.violations() == []

    def test_unknown_priority(self):
        g = paper_example()
        with pytest.raises(SchedulerError):
            llb(g, dsc(g), MachineModel(2), priority="median")

    def test_more_clusters_than_procs(self):
        g = independent_tasks(9)
        s = llb(g, dsc(g), MachineModel(2))
        assert s.violations() == []
        # Perfect balance on unit tasks: 9 tasks over 2 procs -> makespan 5.
        assert s.makespan == pytest.approx(5.0)


class TestDscLlb:
    def test_valid_on_suite(self):
        for builder in (
            lambda: lu(8, make_rng(6), ccr=0.2),
            lambda: stencil(6, 5, make_rng(7), ccr=5.0),
            lambda: fork_join(3, 6, make_rng(8), ccr=1.0),
        ):
            g = builder()
            for procs in (2, 4):
                s = dsc_llb(g, MachineModel(procs))
                assert s.complete
                assert s.violations() == []

    def test_quality_within_expected_band_of_flb(self):
        # The paper reports DSC-LLB typically within ~20-40% of the one-step
        # algorithms; allow a generous band to keep the test robust.
        from repro.core import flb

        worst = 0.0
        for seed in range(5):
            g = lu(10, make_rng(seed), ccr=1.0)
            ratio = dsc_llb(g, MachineModel(4)).makespan / flb(g, MachineModel(4)).makespan
            worst = max(worst, ratio)
        assert worst < 2.0

    def test_machine_model_passes_through(self):
        g = paper_example()
        m = MachineModel(2, comm_scale=2.0, latency=0.5)
        s = dsc_llb(g, machine=m)
        assert s.violations() == []
