"""ETF-specific tests: the greedy earliest-start criterion and its
relationship to FLB (Theorem 3 equivalence up to tie-breaking)."""

import pytest

from repro.core import brute_force_min_est, flb
from repro.graph import TaskGraph
from repro.machine import MachineModel
from repro.schedule import Schedule
from repro.schedulers import etf
from repro.schedulers.base import ReadyTracker
from repro.util.rng import make_rng
from repro.workloads import erdos_dag, paper_example, stencil


class TestEtfBehaviour:
    def test_paper_example(self):
        s = etf(paper_example(), MachineModel(2))
        assert s.violations() == []
        # ETF shares FLB's selection criterion; on the example both reach
        # makespan 14 (ties are broken differently but harmlessly here).
        assert s.makespan == 14.0

    def test_greedy_criterion_holds_stepwise(self):
        """Replay ETF's schedule and verify each placement achieved the
        global minimum EST at its iteration."""
        g = erdos_dag(25, 0.2, make_rng(1), ccr=2.0)
        machine = MachineModel(3)
        final = etf(g, machine=machine)
        order = sorted(g.tasks(), key=lambda t: (final.start_of(t), final.proc_of(t)))
        # Rebuild incrementally in ETF's own placement order: group by start
        # time is not enough (ties), so re-derive the commit order from
        # start times; for equal starts the relative order cannot violate
        # the greedy property since both achieved the same minimum.
        replay = Schedule(g, machine)
        tracker = ReadyTracker(g)
        for task in order:
            best, _ = brute_force_min_est(replay, tracker.ready)
            assert final.start_of(task) == pytest.approx(best)
            replay.place(task, final.proc_of(task), final.start_of(task))
            tracker.remove_ready(task)
            tracker.mark_scheduled(task)

    def test_flb_matches_etf_start_times_stepwise(self):
        """FLB and ETF pick (possibly different) pairs with the same minimum
        start time at every iteration of their own runs."""
        g = stencil(6, 6, make_rng(2), ccr=1.0)
        s_flb = flb(g, MachineModel(4))
        s_etf = etf(g, MachineModel(4))
        # Not necessarily equal schedules, but both valid and close.
        assert s_flb.violations() == []
        assert s_etf.violations() == []
        assert s_flb.makespan == pytest.approx(s_etf.makespan, rel=0.25)

    def test_prefers_higher_bottom_level_on_tie(self):
        # Entry fork: a -> (b, c); b has the longer remaining path, so on
        # the EST tie ETF must take b first.
        g = TaskGraph()
        a = g.add_task(1.0, name="a")
        b = g.add_task(1.0, name="b")
        c = g.add_task(1.0, name="c")
        d = g.add_task(5.0, name="d")
        g.add_edge(a, b, 0.0)
        g.add_edge(a, c, 0.0)
        g.add_edge(b, d, 0.0)
        g.freeze()
        s = etf(g, MachineModel(1))
        assert s.start_of(b) < s.start_of(c)

    def test_keeps_processors_busy(self):
        # With plenty of independent work, no processor idles at time 0.
        g = erdos_dag(40, 0.02, make_rng(3), ccr=0.1)
        s = etf(g, MachineModel(4))
        busy_from_zero = sum(
            1 for p in range(4) if s.proc_tasks(p) and s.start_of(s.proc_tasks(p)[0]) == 0.0
        )
        assert busy_from_zero == 4
