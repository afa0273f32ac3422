"""MCP-specific tests: ALAP priorities, tie-breaking variants, placement."""

import pytest

from repro.exceptions import SchedulerError
from repro.graph import TaskGraph, alap_times
from repro.machine import MachineModel
from repro.schedulers import mcp, mcp_priority_order
from repro.util.rng import make_rng
from repro.workloads import erdos_dag, lu, paper_example


class TestPriorityOrder:
    def test_order_is_ascending_alap(self):
        g = paper_example()
        alap = alap_times(g)
        order = mcp_priority_order(g)
        values = [alap[t] for t in order]
        assert values == sorted(values)

    def test_order_is_topological(self):
        g = erdos_dag(30, 0.2, make_rng(0), ccr=1.0)
        pos = {t: i for i, t in enumerate(mcp_priority_order(g))}
        for src, dst, _ in g.edges():
            assert pos[src] < pos[dst]

    def test_paper_example_order_starts_with_critical_path(self):
        # ALAP: t0=0 < t3=3 < t1=4 < t5=4? -- check the actual prefix.
        g = paper_example()
        order = mcp_priority_order(g)
        assert order[0] == 0
        assert order[1] == 3  # ALAP(t3) = 15 - 12 = 3

    def test_lex_tie_breaking_deterministic(self):
        g = erdos_dag(20, 0.2, make_rng(1), ccr=1.0)
        assert mcp_priority_order(g, tie="lex") == mcp_priority_order(g, tie="lex")

    def test_random_tie_breaking_seed_dependent(self):
        # A fork of identical children has fully tied ALAPs.
        g = TaskGraph()
        root = g.add_task(1.0)
        for _ in range(8):
            c = g.add_task(1.0)
            g.add_edge(root, c, 1.0)
        g.freeze()
        orders = {tuple(mcp_priority_order(g, seed=s)) for s in range(6)}
        assert len(orders) > 1  # different seeds shuffle the tie
        assert all(o[0] == root for o in orders)

    def test_unknown_tie_rule(self):
        with pytest.raises(SchedulerError):
            mcp_priority_order(paper_example(), tie="bogus")


class TestMcpScheduling:
    def test_paper_example_valid(self):
        s = mcp(paper_example(), MachineModel(2))
        assert s.violations() == []
        assert s.makespan <= 16.0  # comparable to FLB's 14

    def test_lex_variant_valid(self):
        s = mcp(paper_example(), MachineModel(2), tie="lex")
        assert s.violations() == []

    def test_seed_changes_only_ties(self):
        g = lu(8, make_rng(2), ccr=1.0)
        # Continuous random weights: ALAP ties have probability zero, so
        # every seed yields the same schedule.
        s1 = mcp(g, MachineModel(3), seed=0)
        s2 = mcp(g, MachineModel(3), seed=99)
        assert s1.assignment() == s2.assignment()

    def test_each_task_on_min_est_processor(self):
        from tests.placement_oracle import est_on
        from repro.machine import MachineModel
        from repro.schedule import Schedule

        g = lu(6, make_rng(3), ccr=2.0)
        machine = MachineModel(3)
        final = mcp(g, machine=machine, seed=0)
        replay = Schedule(g, machine)
        for task in mcp_priority_order(g, seed=0):
            best = min(est_on(replay, task, p) for p in machine.procs)
            assert final.start_of(task) == pytest.approx(best)
            replay.place(task, final.proc_of(task), final.start_of(task))
