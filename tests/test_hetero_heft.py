"""Tests for the heterogeneous-machine extension and HEFT."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import flb
from repro.graph import TaskGraph, bottom_levels
from repro.machine import MachineModel
from repro.schedulers import SCHEDULERS, heft, upward_ranks
from repro.sim import execute
from repro.util.rng import make_rng
from repro.workloads import (
    chain,
    erdos_dag,
    fft,
    independent_tasks,
    lu,
    paper_example,
    stencil,
)


class TestHeterogeneousMachine:
    def test_duration_scaling(self):
        m = MachineModel(3, speeds=(2.0, 1.0, 0.5))
        assert m.duration(4.0, 0) == 2.0
        assert m.duration(4.0, 1) == 4.0
        assert m.duration(4.0, 2) == 8.0
        assert m.is_heterogeneous
        assert not m.is_paper_model

    def test_mean_duration(self):
        m = MachineModel(2, speeds=(1.0, 0.5))
        # (4/1 + 4/0.5)/2 = 6
        assert m.mean_duration(4.0) == pytest.approx(6.0)

    def test_homogeneous_defaults(self):
        m = MachineModel(4)
        assert m.duration(3.0, 2) == 3.0
        assert m.mean_duration(3.0) == 3.0
        assert not m.is_heterogeneous
        assert m.is_paper_model

    def test_uniform_speeds_not_heterogeneous(self):
        m = MachineModel(2, speeds=(1.0, 1.0))
        assert not m.is_heterogeneous

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineModel(2, speeds=(1.0,))
        with pytest.raises(ValueError):
            MachineModel(2, speeds=(1.0, 0.0))
        with pytest.raises(ValueError):
            MachineModel(2, speeds=(1.0, -2.0))

    def test_schedule_uses_durations(self):
        g = TaskGraph()
        g.add_task(4.0)
        g.freeze()
        from repro.schedule import Schedule

        s = Schedule(g, MachineModel(2, speeds=(2.0, 1.0)))
        entry = s.place(0, 0, 0.0)
        assert entry.finish == 2.0
        assert s.violations() == []


class TestUpwardRanks:
    def test_homogeneous_equals_bottom_level(self):
        g = paper_example()
        ranks = upward_ranks(g, MachineModel(4))
        assert ranks == pytest.approx(bottom_levels(g))

    def test_hetero_uses_mean_durations(self):
        g = chain(2, None, ccr=1.0)  # two unit tasks, comm 1
        m = MachineModel(2, speeds=(1.0, 0.5))  # mean duration = 1.5
        ranks = upward_ranks(g, m)
        assert ranks[1] == pytest.approx(1.5)
        assert ranks[0] == pytest.approx(1.5 + 1.0 + 1.5)


class TestHeft:
    @pytest.mark.parametrize(
        "speeds", [None, (1.0, 1.0, 1.0), (2.0, 1.0, 0.5), (4.0, 1.0, 1.0)]
    )
    def test_valid_on_machines(self, speeds):
        g = lu(8, make_rng(0), ccr=2.0)
        m = MachineModel(3, speeds=speeds)
        s = heft(g, machine=m)
        assert s.complete
        assert s.violations() == []

    def test_prefers_fast_processor(self):
        # One very fast processor: serial work should gravitate there.
        g = chain(6, make_rng(1), ccr=0.5)
        m = MachineModel(3, speeds=(10.0, 1.0, 1.0))
        s = heft(g, machine=m)
        assert all(s.proc_of(t) == 0 for t in g.tasks())

    def test_beats_homogeneous_minded_schedulers_on_hetero(self):
        g = lu(12, make_rng(2), ccr=1.0)
        m = MachineModel(4, speeds=(2.0, 1.0, 1.0, 0.5))
        h = heft(g, machine=m).makespan
        for algo in ("flb", "mcp", "hlfet"):
            assert h <= SCHEDULERS[algo](g, machine=m).makespan + 1e-9

    def test_competitive_on_homogeneous(self):
        for seed in range(4):
            g = erdos_dag(30, 0.2, make_rng(seed), ccr=1.0)
            h = heft(g, MachineModel(4)).makespan
            f = flb(g, MachineModel(4)).makespan
            assert h <= 1.3 * f

    def test_makespan_bound_fastest_proc(self):
        """The makespan can never beat total work on an idealised machine
        running everything at the fastest speed in parallel."""
        g = fft(16, make_rng(3), ccr=0.2)
        m = MachineModel(4, speeds=(2.0, 1.0, 1.0, 1.0))
        s = heft(g, machine=m)
        lower = g.total_comp() / (2.0 + 1.0 + 1.0 + 1.0)
        assert s.makespan >= lower - 1e-9

    def test_registry(self):
        s = SCHEDULERS["heft"](paper_example(), MachineModel(2))
        assert s.violations() == []

    def test_executor_handles_hetero(self):
        g = stencil(6, 5, make_rng(4), ccr=1.0)
        m = MachineModel(3, speeds=(1.5, 1.0, 0.75))
        s = heft(g, machine=m)
        result = execute(s)
        # HEFT inserts into gaps; self-timed replay can only be earlier.
        assert result.makespan <= s.makespan + 1e-6

    def test_independent_tasks_weighted_balance(self):
        g = independent_tasks(30)
        m = MachineModel(2, speeds=(3.0, 1.0))
        s = heft(g, machine=m)
        fast = len(s.proc_tasks(0))
        slow = len(s.proc_tasks(1))
        assert fast > slow  # the fast processor takes the lion's share


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(2, 25),
    p=st.floats(0.0, 0.5),
    procs=st.integers(1, 5),
    seed=st.integers(0, 4000),
    speed_seed=st.integers(0, 100),
)
def test_property_all_schedulers_valid_on_hetero(n, p, procs, seed, speed_seed):
    """Every scheduler must stay *valid* (if not clever) on heterogeneous
    machines: finish times and the validity checker both honour speeds."""
    g = erdos_dag(n, p, make_rng(seed), ccr=1.5)
    speeds = tuple(float(s) for s in make_rng(speed_seed).uniform(0.5, 3.0, procs))
    m = MachineModel(procs, speeds=speeds)
    for algo in ("heft", "flb", "mcp", "fcp", "hlfet", "dsc-llb"):
        s = SCHEDULERS[algo](g, machine=m)
        assert s.complete
        assert s.violations() == [], f"{algo} invalid on hetero machine"
