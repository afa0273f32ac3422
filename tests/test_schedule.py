"""Tests for the Schedule class: placement, queries, validation, rendering."""

import pytest

from repro.exceptions import InvalidScheduleError, ScheduleError
from repro.graph import TaskGraph
from repro.machine import MachineModel
from repro.schedule import Schedule, render_gantt
from repro.workloads import paper_example, simple_diamond


def make_chain_graph():
    g = TaskGraph()
    a = g.add_task(2.0, name="a")
    b = g.add_task(3.0, name="b")
    g.add_edge(a, b, 4.0)
    return g.freeze()


class TestPlacement:
    def test_place_computes_finish(self):
        g = make_chain_graph()
        s = Schedule(g, MachineModel(2))
        entry = s.place(0, 0, 0.0)
        assert entry.finish == 2.0
        assert s.prt(0) == 2.0
        assert s.proc_of(0) == 0
        assert s.start_of(0) == 0.0
        assert s.finish_of(0) == 2.0

    def test_requires_frozen_graph(self):
        g = TaskGraph()
        g.add_task(1.0)
        with pytest.raises(ScheduleError):
            Schedule(g, MachineModel(1))

    def test_double_place_rejected(self):
        g = make_chain_graph()
        s = Schedule(g, MachineModel(2))
        s.place(0, 0, 0.0)
        with pytest.raises(ScheduleError):
            s.place(0, 1, 5.0)

    def test_place_before_prt_rejected(self):
        g = make_chain_graph()
        s = Schedule(g, MachineModel(1))
        s.place(0, 0, 0.0)
        with pytest.raises(ScheduleError):
            s.place(1, 0, 1.0)  # PRT(0) is 2.0

    def test_unknown_ids_rejected(self):
        g = make_chain_graph()
        s = Schedule(g, MachineModel(1))
        with pytest.raises(ScheduleError):
            s.place(9, 0, 0.0)
        with pytest.raises(ScheduleError):
            s.place(0, 3, 0.0)

    def test_unscheduled_queries_raise(self):
        g = make_chain_graph()
        s = Schedule(g, MachineModel(1))
        with pytest.raises(ScheduleError):
            s.proc_of(0)
        assert not s.is_scheduled(0)
        assert not s.complete

    def test_complete_and_len(self):
        g = make_chain_graph()
        s = Schedule(g, MachineModel(2))
        s.place(0, 0, 0.0)
        assert len(s) == 1
        s.place(1, 1, 6.0)
        assert s.complete
        assert len(s) == 2

    def test_makespan_and_proc_tasks(self):
        g = make_chain_graph()
        s = Schedule(g, MachineModel(2))
        s.place(0, 0, 0.0)
        s.place(1, 0, 2.0)
        assert s.makespan == 5.0
        assert s.proc_tasks(0) == (0, 1)
        assert s.proc_tasks(1) == ()
        assert s.num_procs_used() == 1

    def test_iteration_order(self):
        g = simple_diamond()
        s = Schedule(g, MachineModel(2))
        s.place(0, 0, 0.0)
        s.place(2, 1, 2.0)
        s.place(1, 0, 1.0)
        s.place(3, 1, 5.0)
        starts = [e.start for e in s]
        assert starts == sorted(starts)

    def test_assignment(self):
        g = make_chain_graph()
        s = Schedule(g, MachineModel(2))
        s.place(0, 1, 0.0)
        assert s.assignment() == {0: 1}

    def test_placements_are_the_queries_in_bulk_and_never_stale(self):
        g = paper_example()
        s = Schedule(g, MachineModel(3))
        for task, proc, start in ((0, 0, 0.0), (3, 0, 2.0), (1, 2, 3.0)):
            s.place(task, proc, start)
        state = s.placements()
        for t in g.tasks():
            assert state.placed[t] == s.is_scheduled(t)
            if s.is_scheduled(t):
                assert (state.proc[t], state.start[t], state.finish[t]) == (
                    s.proc_of(t), s.start_of(t), s.finish_of(t))
            else:
                assert (state.proc[t], state.start[t], state.finish[t]) == (-1, 0.0, 0.0)
        assert list(state.listed) == [0, 3, 1]
        assert list(state.listed_proc) == [0, 0, 2]
        assert list(state.prt) == [s.prt(p) for p in range(3)]
        s.place(2, 1, 5.0)
        again = s.placements()
        assert again.placed[2] and again.proc[2] == 1
        assert not state.placed[2]  # a fresh read, not a shared buffer


class TestValidation:
    def test_valid_same_proc_schedule(self):
        g = make_chain_graph()
        s = Schedule(g, MachineModel(1))
        s.place(0, 0, 0.0)
        s.place(1, 0, 2.0)  # same proc: comm is free
        assert s.violations() == []
        assert s.validate() is s

    def test_cross_proc_comm_violation(self):
        g = make_chain_graph()
        s = Schedule(g, MachineModel(2))
        s.place(0, 0, 0.0)
        s.place(1, 1, 3.0)  # needs FT(0) + comm = 6
        problems = s.violations()
        assert any("message arrival" in p for p in problems)
        with pytest.raises(InvalidScheduleError):
            s.validate()

    def test_cross_proc_comm_satisfied(self):
        g = make_chain_graph()
        s = Schedule(g, MachineModel(2))
        s.place(0, 0, 0.0)
        s.place(1, 1, 6.0)
        assert s.violations() == []

    def test_missing_task_reported(self):
        g = make_chain_graph()
        s = Schedule(g, MachineModel(1))
        s.place(0, 0, 0.0)
        assert any("not scheduled" in p for p in s.violations())

    def test_machine_scale_affects_validity(self):
        g = make_chain_graph()
        m = MachineModel(2, comm_scale=0.5)
        s = Schedule(g, m)
        s.place(0, 0, 0.0)
        s.place(1, 1, 4.0)  # arrival = 2 + 0.5*4 = 4
        assert s.violations() == []

    def test_paper_example_known_schedule_is_valid(self):
        # The FLB schedule from Table 1, hand-checked.
        g = paper_example()
        s = Schedule(g, MachineModel(2))
        s.place(0, 0, 0.0)
        s.place(3, 0, 2.0)
        s.place(1, 1, 3.0)
        s.place(2, 0, 5.0)
        s.place(4, 1, 5.0)
        s.place(5, 0, 7.0)
        s.place(6, 1, 8.0)
        s.place(7, 0, 12.0)
        assert s.violations() == []
        assert s.makespan == 14.0


class TestRendering:
    def _full_schedule(self):
        g = simple_diamond()
        s = Schedule(g, MachineModel(2))
        s.place(0, 0, 0.0)
        s.place(1, 0, 1.0)
        s.place(2, 1, 2.0)
        s.place(3, 1, 5.0)
        return s

    def test_as_table(self):
        text = self._full_schedule().as_table()
        assert "makespan" in text
        assert "a" in text and "d" in text

    def test_gantt_rows(self):
        text = render_gantt(self._full_schedule(), width=40)
        lines = text.splitlines()
        assert lines[0].startswith("P0")
        assert lines[1].startswith("P1")
        assert "=" in lines[0]

    def test_gantt_width_validation(self):
        with pytest.raises(ValueError):
            render_gantt(self._full_schedule(), width=5)

    def test_repr(self):
        s = self._full_schedule()
        assert "complete" in repr(s)
