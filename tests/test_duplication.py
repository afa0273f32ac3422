"""Tests for the duplication subsystem: DuplicationSchedule and DSH."""

import pytest
from typing import ClassVar
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import flb
from repro.duplication import DuplicationSchedule, dsh
from repro.exceptions import ScheduleError
from repro.graph import TaskGraph, static_levels
from repro.machine import MachineModel
from repro.metrics import time_scheduler
from repro.util.rng import make_rng
from repro.workloads import (
    chain,
    erdos_dag,
    fft,
    fork_join,
    independent_tasks,
    lu,
    out_tree,
    paper_example,
    stencil,
)


class TestDuplicationSchedule:
    def test_place_and_query(self):
        g = paper_example()
        s = DuplicationSchedule(g, MachineModel(2))
        c = s.place_copy(0, 0, 0.0)
        assert c.finish == 2.0
        assert s.prt(0) == 2.0
        assert s.is_scheduled(0)
        assert not s.complete
        assert len(s.copies_of(0)) == 1

    def test_multiple_copies_different_procs(self):
        g = paper_example()
        s = DuplicationSchedule(g, MachineModel(2))
        s.place_copy(0, 0, 0.0)
        s.place_copy(0, 1, 0.0)
        assert len(s.copies_of(0)) == 2
        assert s.total_copies() == 2

    def test_duplicate_on_same_proc_rejected(self):
        g = paper_example()
        s = DuplicationSchedule(g, MachineModel(2))
        s.place_copy(0, 0, 0.0)
        with pytest.raises(ScheduleError):
            s.place_copy(0, 0, 5.0)

    def test_place_before_prt_rejected(self):
        g = paper_example()
        s = DuplicationSchedule(g, MachineModel(1))
        s.place_copy(0, 0, 0.0)
        with pytest.raises(ScheduleError):
            s.place_copy(1, 0, 1.0)

    def test_requires_frozen(self):
        g = TaskGraph()
        g.add_task(1.0)
        with pytest.raises(ScheduleError):
            DuplicationSchedule(g, MachineModel(1))

    def test_arrival_uses_best_copy(self):
        g = TaskGraph()
        a = g.add_task(1.0)
        b = g.add_task(1.0)
        g.add_edge(a, b, 10.0)
        g.freeze()
        s = DuplicationSchedule(g, MachineModel(2))
        s.place_copy(a, 0, 0.0)
        # Remote copy would arrive at 11 on p1; add a local copy.
        s.place_copy(a, 1, 3.0)
        assert s.arrival_of_edge(a, b, 1) == pytest.approx(4.0)
        assert s.arrival_of_edge(a, b, 0) == pytest.approx(1.0)

    def test_violations_detect_missing_and_early(self):
        g = TaskGraph()
        a = g.add_task(1.0)
        b = g.add_task(1.0)
        g.add_edge(a, b, 5.0)
        g.freeze()
        s = DuplicationSchedule(g, MachineModel(2))
        s.place_copy(b, 1, 0.0)  # no copy of a anywhere, and b starts at 0
        problems = s.violations()
        assert any("no copy" in p for p in problems)
        s.place_copy(a, 0, 0.0)
        problems = s.violations()
        assert any("before message" in p for p in problems)
        with pytest.raises(ScheduleError):
            s.validate()

    def test_duplication_ratio(self):
        g = paper_example()
        s = DuplicationSchedule(g, MachineModel(2))
        for t in g.topological_order:
            s.place_copy(t, 0, s.prt(0))
        assert s.duplication_ratio() == 1.0
        assert s.complete


class TestDsh:
    WORKLOADS: ClassVar = [
        lambda: paper_example(),
        lambda: lu(8, make_rng(0), ccr=5.0),
        lambda: fft(16, make_rng(1), ccr=2.0),
        lambda: stencil(5, 5, make_rng(2), ccr=0.2),
        lambda: fork_join(3, 5, make_rng(3), ccr=3.0),
        lambda: out_tree(4, 2, make_rng(4), ccr=5.0),
    ]

    @pytest.mark.parametrize("builder", WORKLOADS)
    @pytest.mark.parametrize("procs", [1, 2, 4])
    def test_valid_complete(self, builder, procs):
        s = dsh(builder(), MachineModel(procs))
        assert s.complete
        assert s.violations() == []

    def test_paper_example_beats_flb(self):
        # Duplicating t0 lets both branches start locally: makespan 10 < 13.
        d = dsh(paper_example(), MachineModel(4))
        f = flb(paper_example(), MachineModel(4))
        assert d.makespan < f.makespan
        assert d.duplication_ratio() > 1.0

    def test_out_tree_duplication_wins_big(self):
        """Fork-only trees are duplication's best case: every subtree can
        own a copy of its ancestors."""
        g = out_tree(4, 2, make_rng(5), ccr=5.0)
        d = dsh(g, MachineModel(8)).makespan
        f = flb(g, MachineModel(8)).makespan
        assert d <= f + 1e-9

    def test_never_worse_than_its_no_duplication_mode(self):
        for seed in range(5):
            g = erdos_dag(25, 0.2, make_rng(seed), ccr=4.0)
            with_dup = dsh(g, MachineModel(4), max_chain=8).makespan
            without = dsh(g, MachineModel(4), max_chain=0).makespan
            assert with_dup <= without + 1e-9

    def test_max_chain_zero_means_no_duplication(self):
        g = lu(8, make_rng(6), ccr=5.0)
        s = dsh(g, MachineModel(4), max_chain=0)
        assert s.duplication_ratio() == 1.0

    def test_rejects_negative_chain(self):
        with pytest.raises(ValueError):
            dsh(paper_example(), MachineModel(2), max_chain=-1)

    def test_single_proc_serialises(self):
        g = erdos_dag(20, 0.25, make_rng(7), ccr=2.0)
        s = dsh(g, MachineModel(1))
        assert s.makespan == pytest.approx(g.total_comp())
        assert s.duplication_ratio() == 1.0

    def test_chain_no_duplication_possible(self):
        s = dsh(chain(6, make_rng(8), ccr=5.0), MachineModel(3))
        assert s.duplication_ratio() == 1.0

    def test_independent_tasks_balanced(self):
        s = dsh(independent_tasks(8), MachineModel(4))
        assert s.makespan == pytest.approx(2.0)

    def test_costs_more_than_flb(self):
        """The paper's taxonomy: duplication costs significantly more.  The
        gap widens with P (DSH scans every processor, FLB pays log P) and
        with fan-in (duplication-chain evaluation)."""
        g = lu(32, make_rng(9), ccr=5.0)  # V ~ 530, joins everywhere
        t_dsh = time_scheduler(dsh, g, MachineModel(16), repeats=1)
        t_flb = time_scheduler(flb, g, MachineModel(16), repeats=1)
        assert t_dsh > 3.0 * t_flb

    def test_makespan_lower_bound(self):
        g = lu(8, make_rng(10), ccr=1.0)
        s = dsh(g, MachineModel(4))
        assert s.makespan >= max(static_levels(g)) - 1e-9


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 25),
    p=st.floats(0.0, 0.5),
    ccr=st.floats(0.1, 6.0),
    procs=st.integers(1, 5),
    seed=st.integers(0, 5000),
)
def test_property_dsh_valid_on_random_dags(n, p, ccr, procs, seed):
    g = erdos_dag(n, p, make_rng(seed), ccr=ccr)
    s = dsh(g, MachineModel(procs))
    assert s.complete
    assert s.violations() == []
