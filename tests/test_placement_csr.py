"""The CSR placement evaluator must be *bit-identical* to the dict path it
replaced.

MCP, HLFET, DLS, LLB (under DSC and Sarkar clusterings), HEFT and the
insertion variants place through :class:`repro.schedulers.base.Placer`.
Before, they called ``emt_on``/``est_on``/``best_proc_for``, which looked
up ``finish_of``, ``proc_of``, ``comm_delay`` and ``graph.comm`` for every
(predecessor, processor) pair; those helpers, the loops that called them
and the old ``Schedule.earliest_gap`` walk are kept in
``tests/placement_oracle.py``.  The change is constant-factor
work only, so every comparison here uses ``==``: the processor, start and
finish of every task, the placement order and every processor's task list,
over the V=120 paper suite × P ∈ {1, 2, 8, 32} × three machine variants
(the paper's clique, latency plus scaled communication, heterogeneous
speeds) and an ``erdos_dag`` fuzz.  Both also run on constant weights,
where every priority ties and only the tie keys decide (the suite at
P ∈ {2, 8}).  The perfgate test holds the speedup
that motivated the change: MCP at P=32 at least 2× faster than the oracle's.
"""

import ast
import inspect
import re
import statistics

import pytest

from repro.bench.perfgate import paired_rounds
from repro.bench.suite import paper_suite
from repro.exceptions import ScheduleError
from repro.machine.model import MachineModel
from repro.schedulers import SCHEDULERS, dls, heft, hlfet, llb, mcp
from repro.schedulers.base import Placer
from repro.schedulers.dsc import dsc
from repro.schedulers.insertion import _run_static_order, best_insertion_slot
from repro.schedulers.mcp import mcp_priority_order
from repro.schedulers.sarkar import sarkar
from repro.util.rng import make_rng
from repro.workloads import erdos_dag, lu, stencil
from tests import placement_oracle as oracle

ALGOS = tuple(oracle.ORACLES)
PROCS = (1, 2, 8, 32)
VARIANTS = ("clique", "delay", "speeds")


def machine_for(procs, variant):
    """The paper's clique, latency plus scaled communication, or
    heterogeneous speeds (which divide every duration, even at P=1)."""
    if variant == "clique":
        return MachineModel(procs)
    if variant == "delay":
        return MachineModel(procs, latency=0.3, comm_scale=1.7)
    return MachineModel(procs, speeds=tuple(2.0 / (1 + p % 3) for p in range(procs)))


def assert_same_placements(got, want, label):
    graph = got.graph
    for t in graph.tasks():
        assert (got.proc_of(t), got.start_of(t), got.finish_of(t)) == (
            want.proc_of(t), want.start_of(t), want.finish_of(t)
        ), f"{label}: task {t} placed differently"
    assert got.placement_order() == want.placement_order(), f"{label}: order"
    for p in got.machine.procs:
        assert got.proc_tasks(p) == want.proc_tasks(p), f"{label}: P{p} list"
    assert got.makespan == want.makespan, label


@pytest.fixture(scope="module")
def suite():
    return paper_suite(120, seeds=1)


@pytest.fixture(scope="module")
def constant_suite():
    return paper_suite(120, seeds=1, distribution="constant")


# ---------------------------------------------------------------------------
# The V=120 paper suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("procs", PROCS)
@pytest.mark.parametrize("algo", [a for a in ALGOS if a != "sarkar-llb"])
def test_paper_suite_matches_oracle(suite, constant_suite, algo, procs):
    weights = {"uniform": suite, "constant": constant_suite if procs in (2, 8) else []}
    for distribution, instances in weights.items():
        for inst in instances:
            for variant in VARIANTS:
                machine = machine_for(procs, variant)
                assert_same_placements(
                    SCHEDULERS[algo](inst.graph, machine),
                    oracle.ORACLES[algo](inst.graph, machine),
                    f"{algo} {inst.problem} ccr={inst.ccr} {distribution} P={procs} {variant}",
                )


@pytest.fixture(scope="module")
def sarkar_clusterings(suite):
    """Sarkar clusterings of the suite's LU and stencil instances.

    A clustering depends only on the delay model, and one Sarkar pass over
    the suite's Laplace or FFT graphs costs 1.4-8 s, so those two problems
    are left to the fuzz below (which runs ``sarkar-llb`` end to end).
    """
    return [
        (inst, sarkar(inst.graph, MachineModel(1)))
        for inst in suite if inst.problem in ("lu", "stencil")
    ]


@pytest.mark.parametrize("procs", PROCS)
def test_sarkar_llb_matches_oracle_on_suite(sarkar_clusterings, procs):
    for inst, clustering in sarkar_clusterings:
        for variant in VARIANTS:
            machine = machine_for(procs, variant)
            assert_same_placements(
                llb(inst.graph, clustering, machine),
                oracle.llb(inst.graph, clustering, machine),
                f"sarkar-llb {inst.problem} ccr={inst.ccr} P={procs} {variant}",
            )


@pytest.mark.parametrize("priority", ["largest", "least"])
def test_llb_priority_rules_match_oracle(suite, priority):
    for inst in suite:
        machine = MachineModel(8)
        clustering = dsc(inst.graph, machine)
        assert_same_placements(
            llb(inst.graph, clustering, machine, priority=priority),
            oracle.llb(inst.graph, clustering, machine, priority=priority),
            f"llb {priority} {inst.problem} ccr={inst.ccr}",
        )


# ---------------------------------------------------------------------------
# erdos_dag fuzz
# ---------------------------------------------------------------------------

FUZZ_GRAPHS = 120
FUZZ_CHUNKS = 4


@pytest.mark.parametrize("chunk", range(FUZZ_CHUNKS))
def test_erdos_fuzz_matches_oracle(chunk):
    for seed in range(chunk, FUZZ_GRAPHS, FUZZ_CHUNKS):
        for distribution in ("uniform", "constant"):
            rng = make_rng(seed)
            n = int(rng.integers(1, 41))
            density = float(rng.uniform(0.0, 0.5))
            ccr = float(rng.choice([0.2, 1.0, 5.0]))
            graph = erdos_dag(n, density, rng, ccr=ccr, distribution=distribution)
            machine = machine_for(int(rng.integers(1, 10)), VARIANTS[seed % 3])
            for algo in ALGOS:
                assert_same_placements(
                    SCHEDULERS[algo](graph, machine),
                    oracle.ORACLES[algo](graph, machine),
                    f"{algo} fuzz seed={seed} V={n} {distribution} {machine}",
                )


# ---------------------------------------------------------------------------
# The evaluator itself
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
def test_placer_queries_match_dict_helpers(variant):
    """On every partial schedule of an MCP run, ``emt``, ``emts`` and
    ``best_est`` equal the dict helpers evaluated on the same schedule."""
    graph = lu(8, make_rng(4), ccr=2.0)
    machine = machine_for(5, variant)
    placer = Placer(graph, machine)
    schedule = placer.schedule
    for task in mcp_priority_order(graph):
        want = [oracle.emt_on(schedule, task, p) for p in machine.procs]
        assert placer.emts(task) == want
        assert [placer.emt(task, p) for p in machine.procs] == want
        proc, est = placer.best_est(task)
        assert (proc, est) == oracle.best_proc_for(schedule, task)
        assert placer.place(task, proc, est) == schedule.finish_of(task)
        assert placer.prt == [schedule.prt(p) for p in machine.procs]


def test_placer_keeps_schedule_place_checks():
    """A non-insertion commit runs all five of ``Schedule.place``'s checks,
    with its messages, an insertion still refuses an overlap, and a
    rejected commit leaves the schedule as it was."""
    graph = stencil(3, 3, make_rng(1))
    placer = Placer(graph, MachineModel(2))
    first, second = graph.entry_tasks[:2]
    finish = placer.place(first, 0, 0.0)
    rejected = [
        ((graph.num_tasks, 0, 0.0), f"unknown task {graph.num_tasks}"),
        ((-1, 0, 0.0), "unknown task -1"),
        ((second, 2, 0.0), "unknown processor 2"),
        ((second, -1, 0.0), "unknown processor -1"),
        ((first, 1, 0.0), f"task {first} is already scheduled"),
        ((second, 1, -0.5), f"task {second} start -0.5 is negative"),
        ((second, 0, finish / 2),
         f"task {second} start {finish / 2} precedes PRT(0) = {finish}"),
        ((second, 0, finish / 2, True),
         f"task {second} insertion at {finish / 2} overlaps task {first} "
         f"finishing at {finish} on processor 0"),
    ]
    for args, message in rejected:
        for commit in (placer.place, placer.schedule.place):
            with pytest.raises(ScheduleError, match=re.escape(message)):
                commit(*args)
    assert placer.prt == [finish, 0.0]
    assert placer.schedule.placement_order() == (first,)
    assert placer.schedule.proc_tasks(0) == (first,)


def test_mcp_order_matches_the_python_sort():
    """``mcp_priority_order`` (one ``lexsort``) equals the Python sort on
    ``(ALAP, jitter)`` kept in the oracle, under three seeds, on the V=120
    suite and the ``erdos_dag`` fuzz graphs; each also with constant
    weights, whose many equal ALAPs leave the order to the jitter."""
    graphs = []
    for weights in ("uniform", "constant"):
        graphs += [inst.graph for inst in paper_suite(120, seeds=1, distribution=weights)]
        for seed in range(FUZZ_GRAPHS):
            rng = make_rng(seed)
            n = int(rng.integers(1, 41))
            density = float(rng.uniform(0.0, 0.5))
            graphs.append(erdos_dag(n, density, rng, ccr=1.0, distribution=weights))
    for graph in graphs:
        for seed in (0, 1, 1999):
            assert mcp_priority_order(graph, seed=seed) == oracle.mcp_priority_order(
                graph, seed=seed
            ), (graph.num_tasks, seed)


def test_earliest_gap_matches_the_full_walk():
    """A bound at or past ``PRT(p)`` returns at once; everywhere else, and at
    durations below the overlap tolerance, the walk decides as before."""
    graph = lu(8, make_rng(6), ccr=2.0)
    machine = MachineModel(3)
    schedule = SCHEDULERS["mcp-i"](graph, machine)
    for p in machine.procs:
        prt = schedule.prt(p)
        for lower in (0.0, prt / 3, prt / 2, prt - 1e-12, prt, prt + 1.0):
            for duration in (0.0, 1e-10, 0.5, 3.0):
                assert schedule.earliest_gap(p, lower, duration) == (
                    oracle.earliest_gap(schedule, p, lower, duration)
                ), (p, lower, duration)


# The placement loops may read the graph only through the evaluator: none of
# them may fall back to the dict path.
_DICT_PATH = {"comm", "preds", "finish_of", "proc_of", "emt_on", "est_on", "best_proc_for"}
_PLACEMENT_LOOPS = (mcp, hlfet, dls, llb, heft, best_insertion_slot, _run_static_order)


@pytest.mark.parametrize("fn", _PLACEMENT_LOOPS, ids=lambda f: f.__qualname__)
def test_placement_loops_leave_the_dict_path(fn):
    tree = ast.parse(inspect.getsource(fn))
    names = {
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(tree)
        if isinstance(node, (ast.Attribute, ast.Name))
    }
    assert not names & _DICT_PATH, f"{fn.__qualname__} uses {names & _DICT_PATH}"


# ---------------------------------------------------------------------------
# Perf gate
# ---------------------------------------------------------------------------


@pytest.mark.perfgate
def test_mcp_at_least_2x_faster_than_oracle(suite):
    """On the V=120 suite at P=32, MCP on the evaluator runs at least 2×
    faster than the oracle's dict-path MCP, in the median of paired rounds."""
    graphs = [inst.graph for inst in suite]
    machine = MachineModel(32)
    ratios = paired_rounds(
        lambda: [oracle.mcp(g, machine) for g in graphs],
        lambda: [SCHEDULERS["mcp"](g, machine) for g in graphs],
        rounds=9,
    )
    ratio = statistics.median(ratios)
    assert ratio >= 2.0, (
        f"the oracle's MCP over MCP: {ratio:.2f}x in the median round "
        f"(floor 2x; rounds {[round(r, 2) for r in ratios]})"
    )
