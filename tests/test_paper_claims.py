"""Executable checks of the paper's stated claims and definitions beyond
Theorem 3 (which has its own suite in test_flb_oracle.py)."""

from typing import ClassVar

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FlbIteration, flb
from repro.graph import width
from repro.machine import MachineModel
from repro.metrics import time_scheduler
from repro.schedulers import SCHEDULERS
from repro.util.rng import make_rng
from repro.workloads import erdos_dag, layered_random, lu, paper_example, stencil


class ReadyCountObserver:
    """Records the peak ready-set size during an FLB run."""

    def __init__(self):
        self.peak = 0

    def on_iteration(self, snapshot: FlbIteration) -> None:
        self.peak = max(self.peak, snapshot.lists.num_ready)


class TestSection2Claims:
    """'Note that at any given time the number of ready tasks never
    exceeds W.'"""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 30),
        p=st.floats(0.0, 0.5),
        procs=st.integers(1, 6),
        seed=st.integers(0, 5000),
    )
    def test_ready_set_bounded_by_width(self, n, p, procs, seed):
        g = erdos_dag(n, p, make_rng(seed), ccr=1.0)
        observer = ReadyCountObserver()
        flb(g, MachineModel(procs), observer=observer)
        assert observer.peak <= width(g)

    def test_ready_set_bound_on_workloads(self):
        for g in (lu(8, make_rng(0)), stencil(6, 5, make_rng(1))):
            observer = ReadyCountObserver()
            flb(g, MachineModel(4), observer=observer)
            assert observer.peak <= width(g)


class TestSection6Claims:
    """Cost claims from the performance section, checked as orderings on
    this machine (absolute 1999 numbers are not reproducible)."""

    def test_etf_is_the_most_costly(self):
        g = stencil(20, 20, make_rng(2), ccr=1.0)  # V=400
        times = {
            algo: time_scheduler(SCHEDULERS[algo], g, MachineModel(16), repeats=1)
            for algo in ("etf", "mcp", "dsc-llb", "fcp", "flb")
        }
        assert max(times, key=times.get) == "etf"

    def test_dsc_llb_cost_nearly_independent_of_p(self):
        g = stencil(20, 20, make_rng(3), ccr=1.0)
        t2 = time_scheduler(SCHEDULERS["dsc-llb"], g, MachineModel(2), repeats=3)
        t32 = time_scheduler(SCHEDULERS["dsc-llb"], g, MachineModel(32), repeats=3)
        assert t32 < 3.0 * t2

    def test_flb_cost_nearly_independent_of_p(self):
        g = stencil(25, 40, make_rng(4), ccr=1.0)  # V=1000
        t2 = time_scheduler(SCHEDULERS["flb"], g, MachineModel(2), repeats=3)
        t32 = time_scheduler(SCHEDULERS["flb"], g, MachineModel(32), repeats=3)
        assert t32 < 2.5 * t2

    def test_flb_consistently_outperforms_dsc_llb(self):
        """'FLB consistently outperforms multi-step algorithms like
        DSC-LLB' — on suite averages (per-instance exceptions exist and the
        paper's own Fig. 4 shows a few)."""
        wins = ties = losses = 0
        for seed in range(6):
            for ccr in (0.2, 5.0):
                g = stencil(15, 15, make_rng(seed), ccr=ccr)
                f = SCHEDULERS["flb"](g, MachineModel(8)).makespan
                d = SCHEDULERS["dsc-llb"](g, MachineModel(8)).makespan
                if f < d - 1e-9:
                    wins += 1
                elif d < f - 1e-9:
                    losses += 1
                else:
                    ties += 1
        assert wins + ties >= losses

    def test_flb_equivalent_to_etf_on_paper_example(self):
        assert (
            SCHEDULERS["flb"](paper_example(), MachineModel(2)).makespan
            == SCHEDULERS["etf"](paper_example(), MachineModel(2)).makespan
        )


class TestComplexityVisibleInvariants:
    def test_flb_scales_gently_in_width(self):
        """Doubling W at fixed V should only move cost by the log factor."""
        narrow = layered_random(100, 10, make_rng(5), ccr=1.0)  # V=1000, W=10
        wide = layered_random(10, 100, make_rng(5), ccr=1.0)  # V=1000, W=100
        t_narrow = time_scheduler(SCHEDULERS["flb"], narrow, MachineModel(8), repeats=3)
        t_wide = time_scheduler(SCHEDULERS["flb"], wide, MachineModel(8), repeats=3)
        assert t_wide < 5.0 * t_narrow

    def test_etf_scales_linearly_in_width(self):
        """ETF's W factor is real: 10x the width costs roughly 10x."""
        narrow = layered_random(50, 10, make_rng(6), ccr=1.0)  # V=500, W=10
        wide = layered_random(5, 100, make_rng(6), ccr=1.0)  # V=500, W=100
        t_narrow = time_scheduler(SCHEDULERS["etf"], narrow, MachineModel(8), repeats=1)
        t_wide = time_scheduler(SCHEDULERS["etf"], wide, MachineModel(8), repeats=1)
        assert t_wide > 3.0 * t_narrow


class TestFcpTwoProcessorLemma:
    """Ref [7]'s lemma, reused by FLB: a ready task starts earliest either
    on its enabling processor or on the processor that becomes idle the
    earliest.  Verified by replaying FCP's own choices against a full scan,
    and directly for arbitrary ready tasks on FLB partial schedules."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 25),
        p=st.floats(0.0, 0.5),
        ccr=st.floats(0.1, 6.0),
        procs=st.integers(1, 6),
        seed=st.integers(0, 5000),
    )
    def test_lemma_on_flb_iterations(self, n, p, ccr, procs, seed):
        from repro.core.oracle import est_of

        class LemmaObserver:
            failures: ClassVar = []

            def on_iteration(self, snapshot):
                schedule = snapshot.schedule
                machine = schedule.machine
                idle = min(machine.procs, key=lambda q: (schedule.prt(q), q))
                for task in snapshot.lists.ready_tasks():
                    global_min = min(
                        est_of(schedule, task, q) for q in machine.procs
                    )
                    candidates = {idle}
                    # Enabling processor: derive from predecessors.
                    graph = schedule.graph
                    best = (-1.0, -1.0, -1)
                    ep = None
                    for pred in graph.preds(task):
                        ft = schedule.finish_of(pred)
                        arrival = ft + machine.remote_delay(graph.comm(pred, task))
                        if (arrival, ft, pred) > best:
                            best = (arrival, ft, pred)
                            ep = schedule.proc_of(pred)
                    if ep is not None:
                        candidates.add(ep)
                    two_proc_min = min(est_of(schedule, task, q) for q in candidates)
                    if abs(two_proc_min - global_min) > 1e-9:
                        self.failures.append((task, two_proc_min, global_min))

        from repro.core import flb
        from repro.util.rng import make_rng
        from repro.workloads import erdos_dag

        g = erdos_dag(n, p, make_rng(seed), ccr=ccr)
        observer = LemmaObserver()
        flb(g, MachineModel(procs), observer=observer)
        assert observer.failures == []
