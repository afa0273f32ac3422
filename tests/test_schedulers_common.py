"""Cross-scheduler properties: every algorithm must produce valid schedules
on every workload family, respect basic bounds, and be deterministic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SchedulingOptions, schedule_graph
from repro.exceptions import SchedulerError
from repro.graph import static_levels
from repro.machine import MachineModel
from repro.schedulers import SCHEDULERS, get_scheduler
from repro.util.rng import make_rng
from repro.workloads import (
    chain,
    cholesky,
    erdos_dag,
    fft,
    fork_join,
    independent_tasks,
    laplace,
    lu,
    paper_example,
    series_parallel,
    stencil,
)

ALL = sorted(SCHEDULERS)

WORKLOADS = [
    ("paper", lambda: paper_example()),
    ("lu", lambda: lu(8, make_rng(0), ccr=1.0)),
    ("laplace", lambda: laplace(4, 3, make_rng(1), ccr=5.0)),
    ("stencil", lambda: stencil(6, 5, make_rng(2), ccr=0.2)),
    ("fft", lambda: fft(8, make_rng(3), ccr=1.0)),
    ("cholesky", lambda: cholesky(4, make_rng(4), ccr=1.0)),
    ("fork_join", lambda: fork_join(3, 5, make_rng(5), ccr=2.0)),
    ("sp", lambda: series_parallel(15, make_rng(6), ccr=1.0)),
    ("chain", lambda: chain(8, make_rng(7), ccr=4.0)),
    ("independent", lambda: independent_tasks(12, make_rng(8))),
]


@pytest.mark.parametrize("algo", ALL)
@pytest.mark.parametrize("wname,builder", WORKLOADS)
@pytest.mark.parametrize("procs", [1, 3])
def test_valid_complete_schedules(algo, wname, builder, procs):
    g = builder()
    s = SCHEDULERS[algo](g, MachineModel(procs))
    assert s.complete
    assert s.violations() == []


@pytest.mark.parametrize("algo", ALL)
def test_lower_bounds(algo):
    g = lu(10, make_rng(9), ccr=0.5)
    for procs in (2, 4):
        s = SCHEDULERS[algo](g, MachineModel(procs))
        # Work bound and (communication-free) critical-path bound.
        assert s.makespan >= g.total_comp() / procs - 1e-9
        assert s.makespan >= max(static_levels(g)) - 1e-9


@pytest.mark.parametrize("algo", ALL)
def test_deterministic(algo):
    g = erdos_dag(40, 0.15, make_rng(10), ccr=2.0)
    s1 = SCHEDULERS[algo](g, MachineModel(4))
    s2 = SCHEDULERS[algo](g, MachineModel(4))
    assert s1.assignment() == s2.assignment()
    assert [s1.start_of(t) for t in g.tasks()] == [s2.start_of(t) for t in g.tasks()]


@pytest.mark.parametrize("algo", ALL)
def test_single_proc_serialises(algo):
    g = erdos_dag(25, 0.2, make_rng(11), ccr=3.0)
    s = SCHEDULERS[algo](g, MachineModel(1))
    assert s.makespan == pytest.approx(g.total_comp())
    assert s.violations() == []


@pytest.mark.parametrize("algo", ALL)
def test_machine_argument(algo):
    g = paper_example()
    m = MachineModel(2, comm_scale=2.0)
    s = SCHEDULERS[algo](g, machine=m)
    assert s.violations() == []
    with pytest.raises(TypeError):
        SCHEDULERS[algo](g)


class TestRegistry:
    def test_get_scheduler_known(self):
        for name in ALL:
            assert callable(get_scheduler(name))

    def test_get_scheduler_unknown(self):
        with pytest.raises(SchedulerError):
            get_scheduler("nope")

    def test_top_level_schedule_helper(self):
        s = schedule_graph(
            paper_example(),
            SchedulingOptions(machine=MachineModel(2), algorithm="flb"),
        )
        assert s.makespan == 14.0
        s = schedule_graph(paper_example(), machine=MachineModel(2))  # default algorithm is flb
        assert s.makespan == 14.0

    def test_top_level_passes_kwargs(self):
        s = schedule_graph(
            paper_example(),
            SchedulingOptions(machine=MachineModel(2), algorithm="mcp"),
            seed=3,
        )
        assert s.violations() == []


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 30),
    p=st.floats(0.0, 0.4),
    ccr=st.floats(0.1, 6.0),
    procs=st.integers(1, 6),
    seed=st.integers(0, 5000),
)
def test_property_all_schedulers_valid_on_random_dags(n, p, ccr, procs, seed):
    g = erdos_dag(n, p, make_rng(seed), ccr=ccr)
    for algo in ALL:
        s = SCHEDULERS[algo](g, MachineModel(procs))
        assert s.complete
        assert s.violations() == [], f"{algo} produced an invalid schedule"


@settings(max_examples=15, deadline=None)
@given(
    procs=st.integers(2, 6),
    seed=st.integers(0, 5000),
    scale=st.floats(0.1, 3.0),
    latency=st.floats(0.0, 2.0),
)
def test_property_extended_machines(procs, seed, scale, latency):
    g = erdos_dag(20, 0.25, make_rng(seed), ccr=2.0)
    m = MachineModel(procs, comm_scale=scale, latency=latency)
    for algo in ALL:
        s = SCHEDULERS[algo](g, machine=m)
        assert s.violations() == [], f"{algo} invalid under extended machine"
