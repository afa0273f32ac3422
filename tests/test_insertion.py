"""Tests for insertion-based placement: Schedule gap machinery and the
mcp-i / hlfet-i scheduler variants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ScheduleError
from repro.graph import TaskGraph
from repro.machine import MachineModel
from repro.schedule import Schedule
from repro.schedulers import SCHEDULERS, hlfet_insertion, mcp_insertion
from repro.schedulers.base import Placer
from repro.schedulers.insertion import best_insertion_slot
from repro.sim import execute
from repro.util.rng import make_rng
from repro.workloads import erdos_dag, fork_join, lu, lu_chain, paper_example


def gap_graph():
    """Three tasks; placing 1 and 2 first leaves a [2, 6) gap on p0."""
    g = TaskGraph()
    for _ in range(4):
        g.add_task(2.0)
    return g.freeze()


class TestScheduleInsertion:
    def test_insert_into_gap(self):
        g = gap_graph()
        s = Schedule(g, MachineModel(1))
        s.place(0, 0, 0.0)
        s.place(1, 0, 6.0)
        entry = s.place(2, 0, 2.0, insertion=True)
        assert entry.finish == 4.0
        assert s.proc_tasks(0) == (0, 2, 1)  # sorted by start
        s.place(3, 0, 8.0)
        assert s.violations() == []
        assert s.prt(0) == 10.0

    def test_insert_overlap_prev_rejected(self):
        g = gap_graph()
        s = Schedule(g, MachineModel(1))
        s.place(0, 0, 0.0)
        s.place(1, 0, 6.0)
        with pytest.raises(ScheduleError):
            s.place(2, 0, 1.0, insertion=True)  # overlaps task 0

    def test_insert_overlap_next_rejected(self):
        g = gap_graph()
        s = Schedule(g, MachineModel(1))
        s.place(0, 0, 0.0)
        s.place(1, 0, 6.0)
        with pytest.raises(ScheduleError):
            s.place(2, 0, 5.0, insertion=True)  # runs into task 1

    def test_early_place_without_flag_rejected(self):
        g = gap_graph()
        s = Schedule(g, MachineModel(1))
        s.place(0, 0, 0.0)
        s.place(1, 0, 6.0)
        with pytest.raises(ScheduleError):
            s.place(2, 0, 2.0)

    def test_negative_start_rejected(self):
        g = gap_graph()
        s = Schedule(g, MachineModel(1))
        with pytest.raises(ScheduleError):
            s.place(0, 0, -1.0, insertion=True)

    def test_prt_unchanged_by_gap_fill(self):
        g = gap_graph()
        s = Schedule(g, MachineModel(1))
        s.place(0, 0, 6.0)
        assert s.prt(0) == 8.0
        s.place(1, 0, 0.0, insertion=True)
        assert s.prt(0) == 8.0


class TestEarliestGap:
    def test_empty_processor(self):
        g = gap_graph()
        s = Schedule(g, MachineModel(1))
        assert s.earliest_gap(0, 3.0, 2.0) == 3.0
        assert s.earliest_gap(0, -5.0, 2.0) == 0.0

    def test_finds_first_fitting_gap(self):
        g = gap_graph()
        s = Schedule(g, MachineModel(1))
        s.place(0, 0, 0.0)  # [0, 2)
        s.place(1, 0, 3.0)  # [3, 5)
        s.place(2, 0, 9.0)  # [9, 11)
        # Gap [2,3) too small for duration 2; [5,9) fits.
        assert s.earliest_gap(0, 0.0, 2.0) == 5.0
        # Duration 1 fits right after task 0.
        assert s.earliest_gap(0, 0.0, 1.0) == 2.0
        # Lower bound inside a gap.
        assert s.earliest_gap(0, 6.0, 2.0) == 6.0
        # Nothing fits before the end.
        assert s.earliest_gap(0, 0.0, 5.0) == 11.0

    def test_lower_bound_inside_task(self):
        g = gap_graph()
        s = Schedule(g, MachineModel(1))
        s.place(0, 0, 0.0)
        assert s.earliest_gap(0, 1.0, 1.0) == 2.0


class TestInsertionSchedulers:
    @pytest.mark.parametrize("algo", ["mcp-i", "hlfet-i"])
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: paper_example(),
            lambda: lu(9, make_rng(0), ccr=5.0),
            lambda: lu_chain(9, make_rng(1), ccr=5.0),
            lambda: fork_join(3, 6, make_rng(2), ccr=2.0),
        ],
    )
    @pytest.mark.parametrize("procs", [1, 3])
    def test_valid(self, algo, builder, procs):
        s = SCHEDULERS[algo](builder(), MachineModel(procs))
        assert s.complete
        assert s.violations() == []

    def test_insertion_helps_on_average(self):
        """Insertion dominates per placement but placements cascade, so it
        is not a per-instance guarantee; on average over a seed sweep it
        must not lose."""
        ratios = []
        for seed in range(10):
            g = erdos_dag(35, 0.2, make_rng(seed), ccr=3.0)
            base = SCHEDULERS["mcp"](g, MachineModel(4), seed=0).makespan
            ins = mcp_insertion(g, MachineModel(4), seed=0).makespan
            ratios.append(ins / base)
        assert sum(ratios) / len(ratios) <= 1.02

    def test_insertion_helps_hlfet_on_average(self):
        ratios = []
        for seed in range(10):
            g = erdos_dag(35, 0.2, make_rng(seed), ccr=3.0)
            machine = MachineModel(4)
            ratios.append(hlfet_insertion(g, machine).makespan
                          / SCHEDULERS["hlfet"](g, machine).makespan)
        assert sum(ratios) / len(ratios) <= 1.02

    def test_insertion_can_strictly_help(self):
        """On communication-stalled graphs insertion should win at least
        once across a handful of seeds."""
        improved = False
        for seed in range(10):
            g = lu_chain(10, make_rng(seed), ccr=5.0)
            machine = MachineModel(4)
            if (mcp_insertion(g, machine, seed=0).makespan
                    < SCHEDULERS["mcp"](g, machine, seed=0).makespan - 1e-9):
                improved = True
                break
        assert improved

    def test_best_insertion_slot_prefers_gap(self):
        g = gap_graph()
        placer = Placer(g, MachineModel(2))
        placer.place(0, 0, 0.0)
        placer.place(1, 0, 6.0)
        placer.place(2, 1, 0.0)
        proc, start = best_insertion_slot(placer, 3)
        assert (proc, start) == (0, 2.0)  # the gap beats both queue ends

    def test_gantt_renders_inserted_schedules(self):
        from repro.schedule import render_gantt

        g = lu(7, make_rng(3), ccr=5.0)
        s = mcp_insertion(g, MachineModel(3))
        text = render_gantt(s, width=60)
        assert text.count("\n") >= 2


class TestInsertionExecutorCompat:
    def test_executor_respects_inserted_order(self):
        """Self-timed replay follows per-processor *order*; for inserted
        schedules the replayed times must still be dependency-valid and can
        only be earlier or equal where gaps were artificial."""
        g = lu(8, make_rng(4), ccr=5.0)
        s = mcp_insertion(g, MachineModel(3))
        result = execute(s)
        assert result.makespan <= s.makespan + 1e-6


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(2, 30),
    p=st.floats(0.0, 0.5),
    ccr=st.floats(0.1, 6.0),
    procs=st.integers(1, 6),
    seed=st.integers(0, 5000),
)
def test_property_insertion_valid(n, p, ccr, procs, seed):
    g = erdos_dag(n, p, make_rng(seed), ccr=ccr)
    ins = mcp_insertion(g, MachineModel(procs), seed=0)
    assert ins.complete
    assert ins.violations() == []
