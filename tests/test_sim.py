"""Tests for the discrete-event engine and the schedule executor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ScheduleError
from repro.graph import TaskGraph
from repro.machine import MachineModel
from repro.schedule import Schedule
from repro.schedulers import SCHEDULERS
from repro.sim import Simulator, execute, execute_perturbed
from repro.util.rng import make_rng
from repro.workloads import erdos_dag, fft, lu, paper_example, stencil


class TestSimulator:
    def test_ordering(self):
        sim = Simulator()
        log = []
        sim.at(3.0, lambda: log.append("c"))
        sim.at(1.0, lambda: log.append("a"))
        sim.at(2.0, lambda: log.append("b"))
        assert sim.run() == 3
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_priority_breaks_simultaneous_ties(self):
        sim = Simulator()
        log = []
        sim.at(1.0, lambda: log.append("low"), priority=1)
        sim.at(1.0, lambda: log.append("high"), priority=0)
        sim.run()
        assert log == ["high", "low"]

    def test_insertion_order_for_equal_keys(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.at(1.0, lambda i=i: log.append(i))
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_callbacks_can_schedule(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.after(2.0, lambda: log.append(("second", sim.now)))

        sim.at(1.0, first)
        sim.run()
        assert log == [("first", 1.0), ("second", 3.0)]

    def test_run_until(self):
        sim = Simulator()
        log = []
        sim.at(1.0, lambda: log.append(1))
        sim.at(5.0, lambda: log.append(5))
        assert sim.run(until=2.0) == 1
        assert sim.pending == 1
        sim.run()
        assert log == [1, 5]

    def test_past_event_rejected(self):
        sim = Simulator()
        sim.at(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.at(1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.after(-1.0, lambda: None)


class TestExecute:
    @pytest.mark.parametrize("algo", sorted(SCHEDULERS))
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: paper_example(),
            lambda: lu(8, make_rng(0), ccr=2.0),
            lambda: stencil(6, 5, make_rng(1), ccr=0.2),
            lambda: fft(8, make_rng(2), ccr=5.0),
        ],
    )
    def test_replay_reproduces_schedule_exactly(self, algo, builder):
        """Every scheduler's claimed times must survive independent
        self-timed re-execution — the strongest cross-check in the suite."""
        g = builder()
        s = SCHEDULERS[algo](g, MachineModel(3))
        result = execute(s)
        assert result.matches(s), result.mismatches(s)[:3]
        assert result.makespan == pytest.approx(s.makespan)

    def test_incomplete_schedule_rejected(self):
        g = paper_example()
        s = Schedule(g, MachineModel(2))
        s.place(0, 0, 0.0)
        with pytest.raises(ScheduleError):
            execute(s)

    def test_busy_time_accounting(self):
        g = paper_example()
        s = SCHEDULERS["flb"](g, MachineModel(2))
        result = execute(s)
        assert sum(result.busy_time) == pytest.approx(g.total_comp())

    def test_deadlock_detection(self):
        # Hand-build a schedule whose per-proc sequences are circularly
        # dependent at execution time: a -> b (cross-proc), but b is ordered
        # before a's message can ever arrive AND c (before a on a's proc)
        # waits on b.  Construct: proc0: [b], proc1: [a]; edge a->b with b
        # placed legally per validate()? A valid schedule can't deadlock, so
        # we bypass place()-order legality by abusing timing: place b first
        # on p0 at 0 although its message arrives at 3 -> the *scheduler's
        # claim* is invalid, and execute() must still terminate, producing
        # times that differ (self-timed execution delays b, no deadlock).
        g = TaskGraph()
        a = g.add_task(1.0)
        b = g.add_task(1.0)
        g.add_edge(a, b, 2.0)
        g.freeze()
        s = Schedule(g, MachineModel(2))
        s.place(b, 0, 0.0)  # invalid claim (message not yet arrived)
        s.place(a, 1, 0.0)
        result = execute(s)
        # Self-timed execution fixes the start: b runs at 1 + 2 = 3.
        assert result.start[b] == pytest.approx(3.0)
        assert not result.matches(s)


class TestPerturbed:
    def test_zero_noise_is_exact(self):
        g = lu(8, make_rng(3), ccr=1.0)
        s = SCHEDULERS["flb"](g, MachineModel(3))
        r = execute_perturbed(s, make_rng(0), comp_cv=0.0, comm_cv=0.0)
        assert r.matches(s)

    def test_noise_changes_makespan(self):
        g = lu(8, make_rng(4), ccr=1.0)
        s = SCHEDULERS["flb"](g, MachineModel(3))
        r = execute_perturbed(s, make_rng(5), comp_cv=0.5, comm_cv=0.5)
        assert r.makespan != pytest.approx(s.makespan)
        # Execution is self-timed from the real weights: still dependency-safe.
        assert r.makespan > 0

    def test_deterministic_given_rng(self):
        g = lu(8, make_rng(6), ccr=1.0)
        s = SCHEDULERS["flb"](g, MachineModel(3))
        r1 = execute_perturbed(s, make_rng(7), 0.3, 0.3)
        r2 = execute_perturbed(s, make_rng(7), 0.3, 0.3)
        assert r1.makespan == r2.makespan

    def test_rejects_negative_cv(self):
        g = paper_example()
        s = SCHEDULERS["flb"](g, MachineModel(2))
        with pytest.raises(ValueError):
            execute_perturbed(s, make_rng(0), comp_cv=-0.1)

    def test_mean_preserving_noise(self):
        # Across many draws, perturbed makespans should straddle the
        # noise-free makespan (lognormal factors have mean exactly 1).
        g = stencil(6, 6, make_rng(8), ccr=0.5)
        s = SCHEDULERS["flb"](g, MachineModel(3))
        spans = [
            execute_perturbed(s, make_rng(100 + i), 0.3, 0.3).makespan
            for i in range(30)
        ]
        mean = sum(spans) / len(spans)
        assert mean == pytest.approx(s.makespan, rel=0.25)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 25),
    p=st.floats(0.0, 0.5),
    procs=st.integers(1, 5),
    seed=st.integers(0, 3000),
)
def test_property_flb_replay_exact_on_random_dags(n, p, procs, seed):
    g = erdos_dag(n, p, make_rng(seed), ccr=1.5)
    s = SCHEDULERS["flb"](g, MachineModel(procs))
    assert execute(s).matches(s)
