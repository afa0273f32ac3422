"""Tests for the FLB scheduler: behaviour, edge cases, and complexity-visible
bookkeeping."""

import pytest

from repro.core import FlbLists, OracleObserver, flb
from repro.graph import TaskGraph
from repro.machine import MachineModel
from repro.util.rng import make_rng
from repro.workloads import (
    chain,
    erdos_dag,
    fft,
    fork_join,
    independent_tasks,
    laplace,
    lu,
    paper_example,
    series_parallel,
    stencil,
    two_chains,
)


class TestPaperExample:
    def test_schedule_matches_table1(self):
        s = flb(paper_example(), MachineModel(2))
        expected = {
            0: (0, 0.0, 2.0),
            3: (0, 2.0, 5.0),
            1: (1, 3.0, 5.0),
            2: (0, 5.0, 7.0),
            4: (1, 5.0, 8.0),
            5: (0, 7.0, 10.0),
            6: (1, 8.0, 10.0),
            7: (0, 12.0, 14.0),
        }
        for task, (proc, st, ft) in expected.items():
            assert s.proc_of(task) == proc
            assert s.start_of(task) == st
            assert s.finish_of(task) == ft
        assert s.makespan == 14.0
        assert s.violations() == []

    def test_oracle_holds_on_paper_example(self):
        oracle = OracleObserver()
        flb(paper_example(), MachineModel(2), observer=oracle)
        assert oracle.iterations == 8
        # t6 (EP, EST 7) ties t5 (non-EP, EST 7) at iteration 6; the paper
        # prefers the non-EP task.
        assert oracle.tie_iterations >= 1


class TestBasicShapes:
    def test_single_task(self):
        g = TaskGraph()
        g.add_task(5.0)
        s = flb(g.freeze(), MachineModel(3))
        assert s.makespan == 5.0
        assert s.start_of(0) == 0.0

    def test_single_proc_is_topological_execution(self):
        g = erdos_dag(30, 0.2, make_rng(0), ccr=2.0)
        s = flb(g, MachineModel(1))
        assert s.violations() == []
        assert s.makespan == pytest.approx(g.total_comp())

    def test_chain_width_one(self):
        g = chain(10, make_rng(1), ccr=3.0)
        s = flb(g, MachineModel(4))
        assert s.violations() == []
        # A chain cannot beat its serial time; with FLB all tasks should
        # end up on one processor (moving any task only adds communication).
        assert s.makespan == pytest.approx(g.total_comp())
        assert s.num_procs_used() == 1

    def test_independent_tasks_load_balance(self):
        g = independent_tasks(16)  # unit comp
        s = flb(g, MachineModel(4))
        assert s.violations() == []
        assert s.makespan == pytest.approx(4.0)
        for p in range(4):
            assert len(s.proc_tasks(p)) == 4

    def test_two_chains_on_two_procs(self):
        s = flb(two_chains(), MachineModel(2))
        assert s.violations() == []
        assert s.makespan == pytest.approx(3.0)

    def test_fork_join(self):
        g = fork_join(3, 8, make_rng(2), ccr=0.5)
        s = flb(g, MachineModel(4))
        assert s.violations() == []

    def test_zero_comm_graph(self):
        g = chain(5, None, ccr=0.0)
        s = flb(g, MachineModel(2))
        assert s.violations() == []
        assert s.makespan == pytest.approx(5.0)


class TestArguments:
    def test_machine_object(self):
        m = MachineModel(3)
        s = flb(paper_example(), machine=m)
        assert s.num_procs == 3
        assert s.violations() == []

    def test_missing_procs(self):
        with pytest.raises(TypeError):
            flb(paper_example())

    def test_matching_procs_ok(self):
        s = flb(paper_example(), machine=MachineModel(2))
        assert s.complete

    def test_unfrozen_graph_accepted(self):
        g = TaskGraph()
        a, b = g.add_task(1.0), g.add_task(1.0)
        g.add_edge(a, b, 1.0)
        s = flb(g, MachineModel(2))  # flb freezes internally
        assert s.complete

    def test_extended_machine_model(self):
        g = erdos_dag(25, 0.2, make_rng(3), ccr=1.0)
        m = MachineModel(4, comm_scale=2.5, latency=0.3)
        s = flb(g, machine=m)
        assert s.violations() == []


class TestQualityBounds:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: lu(10, make_rng(0), ccr=0.2),
            lambda: lu(10, make_rng(0), ccr=5.0),
            lambda: stencil(8, 8, make_rng(1), ccr=0.2),
            lambda: fft(16, make_rng(2), ccr=5.0),
            lambda: laplace(4, 4, make_rng(3), ccr=1.0),
            lambda: series_parallel(30, make_rng(4), ccr=1.0),
        ],
    )
    @pytest.mark.parametrize("procs", [1, 2, 4, 8])
    def test_valid_and_bounded(self, builder, procs):
        g = builder()
        s = flb(g, MachineModel(procs))
        assert s.violations() == []
        # Any valid schedule is at least total work / P.  Greedy
        # earliest-start scheduling can exceed serial time when joins wait
        # on expensive messages (fine-grain LU), but not by much — an
        # empirical sanity band, not a theorem.
        assert s.makespan >= g.total_comp() / procs - 1e-9
        assert s.makespan <= 2.0 * g.total_comp() + 1e-9

    def test_makespan_never_worse_than_serial(self):
        # FLB always has the option of keeping everything on one processor;
        # its greedy rule keeps processors busy, so the makespan should not
        # exceed serial time on these workloads.
        for seed in range(5):
            g = erdos_dag(40, 0.15, make_rng(seed), ccr=1.0)
            s = flb(g, MachineModel(4))
            assert s.makespan <= g.total_comp() + 1e-9

    def test_more_procs_never_hurts_much(self):
        g = stencil(8, 10, make_rng(7), ccr=0.2)
        m1 = flb(g, MachineModel(1)).makespan
        m4 = flb(g, MachineModel(4)).makespan
        assert m4 <= m1 + 1e-9


class TestDeterminism:
    def test_repeated_runs_identical(self):
        g = erdos_dag(50, 0.15, make_rng(11), ccr=2.0)
        s1 = flb(g, MachineModel(4))
        s2 = flb(g, MachineModel(4))
        assert s1.assignment() == s2.assignment()
        assert s1.makespan == s2.makespan


class TestFlbLists:
    def test_rejects_bad_procs(self):
        with pytest.raises(ValueError):
            FlbLists(0, [])

    def test_entry_task_flow(self):
        lists = FlbLists(2, [5.0, 3.0])
        lists.add_ready_task(0, 0.0, None, 0.0)
        lists.add_ready_task(1, 0.0, None, 0.0)
        lists.check_invariants()
        assert lists.best_ep_candidate() is None
        task, proc, est = lists.best_non_ep_candidate()
        assert task == 0  # higher bottom level wins the LMT tie
        assert est == 0.0

    def test_ep_classification_boundary(self):
        # LMT == PRT(EP) counts as EP type (paper: LMT >= PRT).
        lists = FlbLists(1, [1.0])
        lists.set_prt(0, 4.0)
        lists.add_ready_task(0, 4.0, 0, 2.0)
        cand = lists.best_ep_candidate()
        assert cand is not None and cand[0] == 0
        lists.check_invariants()

    def test_demotion_on_prt_advance(self):
        lists = FlbLists(1, [1.0, 2.0])
        lists.add_ready_task(0, 5.0, 0, 3.0)  # EP: LMT 5 >= PRT 0
        demoted = lists.set_prt(0, 6.0)  # PRT overtakes LMT
        assert demoted == [0]
        assert lists.best_ep_candidate() is None
        task, _, est = lists.best_non_ep_candidate()
        assert task == 0
        assert est == 6.0  # max(LMT 5, PRT 6)
        lists.check_invariants()

    def test_ep_candidate_uses_max_of_emt_and_prt(self):
        lists = FlbLists(2, [1.0])
        lists.set_prt(1, 10.0)
        lists.add_ready_task(0, 20.0, 1, 4.0)  # EMT 4 < PRT 10
        task, proc, est = lists.best_ep_candidate()
        assert (task, proc, est) == (0, 1, 10.0)

    def test_num_ready(self):
        lists = FlbLists(2, [1.0, 1.0, 1.0])
        lists.add_ready_task(0, 0.0, None, 0.0)
        lists.add_ready_task(1, 5.0, 0, 5.0)
        lists.add_ready_task(2, 7.0, 1, 7.0)
        assert lists.num_ready == 3
        assert sorted(lists.ready_tasks()) == [0, 1, 2]
        lists.remove_ep_task(0, 1)
        assert lists.num_ready == 2
        lists.remove_non_ep_task(0)
        assert lists.num_ready == 1
        lists.check_invariants()


class TestTiePreferenceAblation:
    def test_paper_example_tie_flips_decision(self):
        # Iteration 6 of the trace ties t6 (EP) with t5 (non-EP) at 7; the
        # paper schedules t5.  Preferring EP instead schedules t6 first and
        # happens to finish one unit earlier on this instance.
        s_paper = flb(paper_example(), MachineModel(2))
        s_ep = flb(paper_example(), MachineModel(2), prefer_non_ep_on_tie=False)
        assert s_paper.makespan == 14.0
        assert s_ep.makespan == 13.0
        assert s_ep.violations() == []

    def test_oracle_accepts_both_policies(self):
        from repro.core import OracleObserver

        for prefer in (True, False):
            oracle = OracleObserver()
            flb(paper_example(), MachineModel(2), observer=oracle, prefer_non_ep_on_tie=prefer)
            assert oracle.tie_iterations >= 1

    def test_no_ties_means_no_difference(self):
        # Continuous random weights: EP/non-EP ties have ~zero probability,
        # so both policies give identical schedules.
        g = erdos_dag(40, 0.2, make_rng(3), ccr=1.7)
        s1 = flb(g, MachineModel(4))
        s2 = flb(g, MachineModel(4), prefer_non_ep_on_tie=False)
        assert s1.assignment() == s2.assignment()

    def test_both_policies_satisfy_theorem3(self):
        from repro.core import OracleObserver

        g = fork_join(4, 6, None, ccr=1.0)  # unit weights: many ties
        for prefer in (True, False):
            oracle = OracleObserver()
            s = flb(g, MachineModel(3), observer=oracle, prefer_non_ep_on_tie=prefer)
            assert s.violations() == []
