"""Exact reproduction of the paper's Table 1 (FLB execution trace).

These tests pin every row of the published trace: the contents and order of
the per-processor EP lists (with their EMT / bottom-level / LMT
annotations), the non-EP list, and each placement decision.  The rows are
read from the finished schedule (:func:`repro.core.trace.flb_trace`); the
last tests hold them ``==`` the rows the seed loop's lists show at every
iteration (``tests/flb_oracle.py``).
"""

import pytest

from repro.bench.suite import paper_suite
from repro.bench.warmstart import mutant
from repro.core import flb, flb_trace, format_trace
from repro.core.flb_array import flb_array
from repro.exceptions import ScheduleError
from repro.machine import MachineModel
from repro.schedule import Schedule
from repro.schedulers import SCHEDULERS
from repro.util.rng import make_rng
from repro.workloads import erdos_dag, paper_example, stencil, stencil_size_for_tasks
from tests.flb_oracle import TraceRecorder, flb_observed


@pytest.fixture(scope="module")
def schedule():
    return flb(paper_example(), MachineModel(2))


@pytest.fixture(scope="module")
def trace(schedule):
    return flb_trace(schedule)


def ep_list(row, proc):
    return [(e.task, e.emt, e.bottom_level, e.lmt) for e in row.ep_tasks.get(proc, [])]


class TestTable1Rows:
    def test_row_count(self, trace):
        assert len(trace) == 8

    def test_iteration_0(self, trace):
        row = trace[0]
        assert row.ep_tasks == {}
        assert row.non_ep_tasks == [(0, 0.0)]
        assert (row.task, row.proc, row.start, row.finish) == (0, 0, 0.0, 2.0)
        assert not row.is_ep

    def test_iteration_1(self, trace):
        row = trace[1]
        # EP on p0: t3[2; 12/3], t1[2; 11/3], t2[2; 9/6] in that order.
        assert ep_list(row, 0) == [
            (3, 2.0, 12.0, 3.0),
            (1, 2.0, 11.0, 3.0),
            (2, 2.0, 9.0, 6.0),
        ]
        assert ep_list(row, 1) == []
        assert row.non_ep_tasks == []
        assert (row.task, row.proc, row.start, row.finish) == (3, 0, 2.0, 5.0)
        assert row.is_ep

    def test_iteration_2(self, trace):
        row = trace[2]
        # t1 demoted to non-EP (PRT(p0)=5 > LMT(t1)=3).
        assert ep_list(row, 0) == [(2, 2.0, 9.0, 6.0)]
        assert row.non_ep_tasks == [(1, 3.0)]
        assert (row.task, row.proc, row.start, row.finish) == (1, 1, 3.0, 5.0)
        assert not row.is_ep

    def test_iteration_3(self, trace):
        row = trace[3]
        # t4 enabled by p1, t5 by p0 (the paper's EP tie-break).
        assert ep_list(row, 0) == [(2, 2.0, 9.0, 6.0), (5, 6.0, 8.0, 6.0)]
        assert ep_list(row, 1) == [(4, 5.0, 6.0, 7.0)]
        assert row.non_ep_tasks == []
        assert (row.task, row.proc, row.start, row.finish) == (2, 0, 5.0, 7.0)
        assert row.is_ep

    def test_iteration_4(self, trace):
        row = trace[4]
        # t5 demoted (PRT(p0)=7 > 6); t6 newly ready, EP on p0.
        assert ep_list(row, 0) == [(6, 7.0, 6.0, 8.0)]
        assert ep_list(row, 1) == [(4, 5.0, 6.0, 7.0)]
        assert row.non_ep_tasks == [(5, 6.0)]
        assert (row.task, row.proc, row.start, row.finish) == (4, 1, 5.0, 8.0)
        assert row.is_ep

    def test_iteration_5(self, trace):
        row = trace[5]
        assert ep_list(row, 0) == [(6, 7.0, 6.0, 8.0)]
        assert ep_list(row, 1) == []
        assert row.non_ep_tasks == [(5, 6.0)]
        # EP candidate t6 and non-EP candidate t5 both start at 7; the
        # non-EP task is preferred.
        assert (row.task, row.proc, row.start, row.finish) == (5, 0, 7.0, 10.0)
        assert not row.is_ep

    def test_iteration_6(self, trace):
        row = trace[6]
        # t6 demoted (PRT(p0)=10 > LMT 8); scheduled on earliest-idle p1.
        assert row.ep_tasks == {}
        assert row.non_ep_tasks == [(6, 8.0)]
        assert (row.task, row.proc, row.start, row.finish) == (6, 1, 8.0, 10.0)

    def test_iteration_7(self, trace):
        row = trace[7]
        assert ep_list(row, 0) == [(7, 12.0, 2.0, 13.0)]
        assert row.non_ep_tasks == []
        assert (row.task, row.proc, row.start, row.finish) == (7, 0, 12.0, 14.0)
        assert row.is_ep


class TestRendering:
    def test_format_trace_matches_paper_annotations(self, schedule):
        text = format_trace(schedule)
        # Spot-check the annotated cells against Table 1 in the paper.
        assert "t3[2;12/3]" in text
        assert "t1[2;11/3]" in text
        assert "t2[2;9/6]" in text
        assert "t4[5;6/7]" in text
        assert "t5[6;8/6]" in text
        assert "t6[7;6/8]" in text
        assert "t7[12;2/13]" in text
        assert "t0 -> p0, [0 - 2]" in text
        assert "t7 -> p0, [12 - 14]" in text

    def test_format_trace_explicit_procs(self, schedule):
        text = format_trace(schedule, procs=[1, 0])
        assert text.index("EP tasks on p1") < text.index("EP tasks on p0")

    def test_format_trace_headers(self, schedule):
        lines = format_trace(schedule).splitlines()
        assert "non-EP tasks" in lines[0]
        assert "scheduling" in lines[0]


@pytest.mark.parametrize(
    ("graph", "machine"),
    [
        (paper_example(), MachineModel(2, speeds=(2.0, 1.0))),
        (erdos_dag(25, 0.2, make_rng(4)), MachineModel(3, speeds=(2.0, 1.0, 0.5))),
    ],
    ids=["fig1", "erdos"],
)
def test_speed_scaled_rows_place_as_the_schedule(graph, machine):
    """A row's placement is the schedule's, finish included: on a
    speed-scaled machine a task runs ``comp / speed``, not ``comp``."""
    schedule = flb(graph, machine)
    assert [(r.proc, r.start, r.finish) for r in flb_trace(schedule)] == [
        (schedule.proc_of(t), schedule.start_of(t), schedule.finish_of(t))
        for t in schedule.placement_order()
    ]


def _assert_rows_match_the_lists(graph, machine, prefer):
    recorder = TraceRecorder(graph)
    flb_observed(graph, machine, recorder, prefer)
    rows = flb_trace(flb(graph, machine, prefer_non_ep_on_tie=prefer))
    assert rows == recorder.rows, f"{machine} prefer={prefer}"


MACHINES = {
    "clique": lambda p: MachineModel(p),
    "delay": lambda p: MachineModel(p, latency=0.3, comm_scale=1.7),
    "speeds": lambda p: MachineModel(p, speeds=tuple(2.0 / (1 + q % 3) for q in range(p))),
}


@pytest.mark.parametrize("variant", list(MACHINES))
@pytest.mark.parametrize("procs", [2, 8, 32])
def test_rows_match_the_lists_on_the_suite(variant, procs):
    for inst in paper_suite(120, seeds=1):
        for prefer in (True, False):
            _assert_rows_match_the_lists(inst.graph, MACHINES[variant](procs), prefer)


@pytest.mark.parametrize("distribution", ["uniform", "constant"])
@pytest.mark.parametrize("procs", [1, 3])
def test_rows_match_the_lists_on_random_dags(procs, distribution):
    """Constant weights make ``LMT == PRT(EP)`` and bottom-level ties common,
    so they hold the EP test's boundary and both tie keys."""
    for seed in range(60):
        graph = erdos_dag(30, 0.15, make_rng(seed), ccr=2.0, distribution=distribution)
        for variant in ("clique", "speeds"):
            _assert_rows_match_the_lists(graph, MACHINES[variant](procs), seed % 2 == 0)


class TestOnlyFlbSchedules:
    """The rows describe an FLB run, so a schedule no FLB run made has none."""

    def test_an_mcp_schedule_is_refused(self):
        with pytest.raises(ScheduleError, match="produced by FLB"):
            flb_trace(SCHEDULERS["mcp"](paper_example(), MachineModel(2)))

    def test_an_empty_schedule_is_refused(self):
        with pytest.raises(ScheduleError, match="produced by FLB"):
            flb_trace(Schedule(paper_example(), MachineModel(2)))

    def test_a_warm_started_schedule_still_traces(self):
        """A warm start replays its base's clean prefix and runs FLB on the
        rest: the schedule is FLB's, and its rows are the seed loop's."""
        graph = stencil(*stencil_size_for_tasks(600), make_rng(7))
        machine = MachineModel(4)
        changed = mutant(graph, 0.01)
        stats = {}
        warm = flb_array(changed, machine, base=flb(graph, machine), warm_stats=stats)
        assert stats.get("reused", 0) > 0, stats
        recorder = TraceRecorder(changed)
        flb_observed(changed, machine, recorder)
        assert flb_trace(warm) == recorder.rows
