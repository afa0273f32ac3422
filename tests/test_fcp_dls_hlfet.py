"""Tests for the FCP, DLS, and HLFET baselines."""

import pytest

from repro.core import flb
from repro.graph import TaskGraph, static_levels
from repro.machine import MachineModel
from repro.schedulers import dls, fcp, hlfet
from repro.util.rng import make_rng
from repro.workloads import chain, erdos_dag, fft, independent_tasks, paper_example


class TestFcp:
    def test_paper_example_valid(self):
        s = fcp(paper_example(), MachineModel(2))
        assert s.violations() == []
        assert s.makespan <= 16.0

    def test_priority_order_is_bottom_level(self):
        # With one processor FCP serialises tasks in bottom-level order
        # among ready tasks; the first scheduled entry task must be the one
        # with the largest bottom level.
        g = TaskGraph()
        a = g.add_task(1.0)  # short branch entry
        b = g.add_task(1.0)  # long branch entry
        c = g.add_task(9.0)
        g.add_edge(b, c, 0.0)
        g.freeze()
        s = fcp(g, MachineModel(1))
        assert s.start_of(b) < s.start_of(a)

    def test_two_processor_selection_is_sound(self):
        # FCP's placement is one of {enabling proc, earliest idle proc};
        # either way the schedule must be valid and the start time equals
        # the better of the two choices at commit time (validity is checked
        # globally; here we sanity-check load spreading).
        g = independent_tasks(8)
        s = fcp(g, MachineModel(4))
        assert s.violations() == []
        assert s.makespan == pytest.approx(2.0)

    def test_close_to_flb_quality(self):
        g = fft(16, make_rng(1), ccr=1.0)
        m_fcp = fcp(g, MachineModel(4)).makespan
        m_flb = flb(g, MachineModel(4)).makespan
        assert m_fcp == pytest.approx(m_flb, rel=0.35)


class TestDls:
    def test_paper_example_valid(self):
        s = dls(paper_example(), MachineModel(2))
        assert s.violations() == []

    def test_dynamic_level_selection(self):
        # Two ready tasks; DLS must prefer the higher SL - EST combination.
        g = TaskGraph()
        g.add_task(1.0)  # "a": ready but with the lower dynamic level
        b = g.add_task(1.0)
        c = g.add_task(10.0)
        g.add_edge(b, c, 0.0)
        g.freeze()
        s = dls(g, MachineModel(1))
        # DL(b) = SL(b) - 0 = 11 > DL(a) = 1.
        assert s.start_of(b) == 0.0

    def test_quality_reasonable(self):
        g = erdos_dag(40, 0.15, make_rng(2), ccr=1.0)
        s = dls(g, MachineModel(4))
        assert s.makespan <= g.total_comp()


class TestHlfet:
    def test_static_order_respected(self):
        g = paper_example()
        sl = static_levels(g)
        s = hlfet(g, MachineModel(1))
        order = sorted(g.tasks(), key=lambda t: s.start_of(t))
        values = [sl[t] for t in order]
        assert values == sorted(values, reverse=True)

    def test_chain_stays_serial(self):
        g = chain(6, make_rng(3), ccr=5.0)
        s = hlfet(g, MachineModel(3))
        assert s.violations() == []

    def test_ignores_comm_in_priorities(self):
        # HLFET orders by SL only; two graphs differing only in comm weights
        # produce the same priority order (placement may differ).
        g1 = chain(5, None, ccr=0.1)
        g2 = chain(5, None, ccr=9.0)
        assert [static_levels(g1)[t] for t in g1.tasks()] == [
            static_levels(g2)[t] for t in g2.tasks()
        ]
