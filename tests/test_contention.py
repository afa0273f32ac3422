"""Tests for the link-contention execution model (extension X5)."""

import pytest

from repro.core import flb
from repro.exceptions import ScheduleError
from repro.graph import TaskGraph
from repro.machine import MachineModel
from repro.schedule import Schedule
from repro.schedulers import SCHEDULERS
from repro.sim import execute, execute_contended
from repro.util.rng import make_rng
from repro.workloads import chain, fft, independent_tasks, lu, paper_example


class TestBasics:
    def test_high_bandwidth_converges_to_contention_free(self):
        g = fft(32, make_rng(0), ccr=2.0)
        s = flb(g, MachineModel(4))
        free = execute(s)
        contended = execute_contended(s, bandwidth=1e9)
        assert contended.makespan == pytest.approx(free.makespan)
        for t in g.tasks():
            assert contended.start[t] == pytest.approx(free.start[t])

    def test_contention_never_speeds_up(self):
        for bw in (0.5, 1.0, 2.0):
            g = lu(9, make_rng(1), ccr=3.0)
            s = flb(g, MachineModel(4))
            free = execute(s)
            contended = execute_contended(s, bandwidth=bw)
            assert contended.makespan >= free.makespan - 1e-9

    def test_monotone_in_bandwidth(self):
        g = fft(32, make_rng(2), ccr=5.0)
        s = flb(g, MachineModel(8))
        spans = [execute_contended(s, bandwidth=bw).makespan for bw in (0.5, 1.0, 2.0, 8.0)]
        for a, b in zip(spans, spans[1:]):
            assert b <= a + 1e-9

    def test_no_communication_unaffected(self):
        g = independent_tasks(12)
        s = flb(g, MachineModel(4))
        assert execute_contended(s, bandwidth=0.1).makespan == pytest.approx(
            execute(s).makespan
        )

    def test_local_messages_skip_the_port(self):
        # Everything on one processor: all messages local, no contention.
        g = chain(8, make_rng(3), ccr=5.0)
        s = flb(g, MachineModel(1))
        assert execute_contended(s, bandwidth=0.01).makespan == pytest.approx(
            s.makespan
        )

    def test_rejects_bad_bandwidth(self):
        s = flb(paper_example(), MachineModel(2))
        with pytest.raises(ValueError):
            execute_contended(s, bandwidth=0.0)

    def test_incomplete_schedule_rejected(self):
        g = paper_example()
        s = Schedule(g, MachineModel(2))
        s.place(0, 0, 0.0)
        with pytest.raises(ScheduleError):
            execute_contended(s)


class TestSerialisation:
    def test_fork_serialises_on_sender_port(self):
        """A root forking two remote children: the second message waits for
        the first transfer to finish."""
        g = TaskGraph()
        root = g.add_task(1.0)
        a = g.add_task(1.0)
        b = g.add_task(1.0)
        g.add_edge(root, a, 4.0)
        g.add_edge(root, b, 4.0)
        g.freeze()
        s = Schedule(g, MachineModel(3))
        s.place(root, 0, 0.0)
        s.place(a, 1, 5.0)  # contention-free: arrival 1 + 4
        s.place(b, 2, 5.0)
        assert s.violations() == []
        result = execute_contended(s, bandwidth=1.0)
        starts = sorted((result.start[a], result.start[b]))
        assert starts[0] == pytest.approx(5.0)  # first transfer: 1 + 4
        assert starts[1] == pytest.approx(9.0)  # second waits for the port

    def test_busy_time_is_comp_only(self):
        g = fft(16, make_rng(4), ccr=5.0)
        s = flb(g, MachineModel(4))
        result = execute_contended(s, bandwidth=1.0)
        assert sum(result.busy_time) == pytest.approx(g.total_comp())


class TestAcrossSchedulers:
    @pytest.mark.parametrize("algo", ["flb", "mcp", "dsc-llb"])
    def test_terminates_and_valid_for_all(self, algo):
        g = lu(9, make_rng(5), ccr=5.0)
        s = SCHEDULERS[algo](g, MachineModel(4))
        result = execute_contended(s, bandwidth=1.0)
        assert result.makespan > 0
        # Every task ran exactly once within the makespan.
        assert max(result.finish) == result.makespan

    def test_communication_minimising_schedules_degrade_less(self):
        """DSC-LLB zeroes heavy edges; under severe contention its relative
        degradation should not exceed a communication-oblivious baseline's
        by much.  (Statistical, generous bound.)"""
        g = fft(64, make_rng(6), ccr=5.0)
        ratios = {}
        for algo in ("hlfet", "dsc-llb"):
            s = SCHEDULERS[algo](g, MachineModel(8))
            free = execute(s).makespan
            contended = execute_contended(s, bandwidth=1.0).makespan
            ratios[algo] = contended / free
        assert ratios["dsc-llb"] < ratios["hlfet"] * 1.5
