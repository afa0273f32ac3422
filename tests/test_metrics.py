"""Tests for schedule metrics."""

import math

import pytest

from repro.core import flb
from repro.graph import TaskGraph
from repro.machine import MachineModel
from repro.metrics import (
    comm_stats,
    efficiency,
    load_imbalance,
    normalized_schedule_length,
    speedup,
    summarize,
    time_scheduler,
    utilization,
)
from repro.schedule import Schedule
from repro.schedulers import mcp
from repro.util.rng import make_rng
from repro.workloads import independent_tasks, lu, paper_example, two_chains


@pytest.fixture()
def paper_schedule():
    return flb(paper_example(), MachineModel(2))


def _zero_makespan_schedule(procs=2):
    """A degenerate schedule: nothing placed yet, so the makespan is 0."""
    g = TaskGraph()
    g.add_task(1.0, name="t0")
    g.freeze()
    return Schedule(g, MachineModel(procs))


class TestSpeedupEfficiency:
    def test_paper_example(self, paper_schedule):
        # Total comp = 19, makespan = 14.
        assert speedup(paper_schedule) == pytest.approx(19.0 / 14.0)
        assert efficiency(paper_schedule) == pytest.approx(19.0 / 28.0)

    def test_single_proc_speedup_one(self):
        s = flb(paper_example(), MachineModel(1))
        assert speedup(s) == pytest.approx(1.0)
        assert efficiency(s) == pytest.approx(1.0)

    def test_perfect_parallelism(self):
        s = flb(independent_tasks(8), MachineModel(4))
        assert speedup(s) == pytest.approx(4.0)
        assert efficiency(s) == pytest.approx(1.0)

    def test_zero_makespan_raises_value_error(self):
        # A degenerate schedule must raise a ValueError that names the
        # schedule, not a bare ZeroDivisionError from the division.
        s = _zero_makespan_schedule()
        with pytest.raises(ValueError, match="makespan"):
            speedup(s)
        with pytest.raises(ValueError, match="makespan"):
            efficiency(s)


class TestNsl:
    def test_identity(self, paper_schedule):
        assert normalized_schedule_length(paper_schedule, paper_schedule.makespan) == 1.0

    def test_against_mcp(self):
        g = lu(10, make_rng(0), ccr=1.0)
        ref = mcp(g, MachineModel(4)).makespan
        nsl = normalized_schedule_length(flb(g, MachineModel(4)), ref)
        assert 0.3 < nsl < 3.0

    def test_bad_reference(self, paper_schedule):
        with pytest.raises(ValueError):
            normalized_schedule_length(paper_schedule, 0.0)


class TestUtilization:
    def test_paper_example(self, paper_schedule):
        util = utilization(paper_schedule)
        assert len(util) == 2
        # p0 runs t0,t3,t2,t5,t7 = 12 comp over 14; p1 runs t1,t4,t6 = 7.
        assert util[0] == pytest.approx(12.0 / 14.0)
        assert util[1] == pytest.approx(7.0 / 14.0)

    def test_bounds(self):
        g = lu(10, make_rng(1), ccr=2.0)
        for u in utilization(flb(g, MachineModel(4))):
            assert 0.0 <= u <= 1.0 + 1e-9

    def test_load_imbalance(self):
        s = flb(independent_tasks(8), MachineModel(4))
        assert load_imbalance(s) == pytest.approx(1.0)
        s2 = flb(two_chains(), MachineModel(4))
        assert load_imbalance(s2) >= 1.0

    def test_load_imbalance_degenerate_is_inf(self):
        # Zero total busy time: imbalance is undefined, reported as inf
        # (the docstring always promised this; the code used to return 0.0,
        # which reads as "perfectly balanced").
        assert math.isinf(load_imbalance(_zero_makespan_schedule()))


class TestCommStats:
    def test_paper_example(self, paper_schedule):
        stats = comm_stats(paper_schedule)
        assert stats.total_messages == 10
        # Crossing edges in the Table 1 schedule: t0->t1, t1->t5, t2->t6,
        # t4->t7, t6->t7 (p0<->p1).
        assert stats.remote_messages == 5
        assert stats.remote_volume == pytest.approx(1 + 1 + 1 + 1 + 2)
        assert stats.local_volume == pytest.approx(17 - 6)  # total volume 17
        assert stats.remote_fraction == pytest.approx(0.5)

    def test_single_proc_all_local(self):
        g = paper_example()
        s = flb(g, MachineModel(1))
        stats = comm_stats(s)
        assert stats.remote_messages == 0
        assert stats.local_volume == pytest.approx(g.total_comm())

    def test_no_edges(self):
        s = flb(independent_tasks(4), MachineModel(2))
        stats = comm_stats(s)
        assert stats.total_messages == 0
        assert stats.remote_fraction == 0.0


class TestSummarize:
    def test_keys_and_consistency(self, paper_schedule):
        d = summarize(paper_schedule)
        assert d["makespan"] == 14.0
        assert d["speedup"] == pytest.approx(19.0 / 14.0)
        assert d["procs_used"] == 2.0
        assert set(d) >= {
            "makespan",
            "speedup",
            "efficiency",
            "load_imbalance",
            "remote_messages",
        }


class TestTimeScheduler:
    def test_returns_positive_seconds(self):
        g = lu(8, make_rng(2), ccr=1.0)
        t = time_scheduler(flb, g, MachineModel(4), repeats=3)
        assert t > 0.0
        assert t < 5.0  # tiny graph: must be fast

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            time_scheduler(flb, paper_example(), MachineModel(2), repeats=0)
