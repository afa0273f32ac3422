"""The bulk certifier against the scalar oracle (``tests/certify_oracle.py``).

``repro.verify.certify`` runs S001..S007 and the F001/F002 replay as NumPy
passes; the oracle is the per-task, per-edge, per-step loop they replaced.
Wherever the processor lists agree with ``PROC(t)`` (every list entry names
a placed task, every placed task is listed on its processor), the two must
produce the same ``Certificate.to_dict()`` — codes, messages, task/proc and
order — on:

* every mutant of ``tests/test_certify.py``;
* the V=120 paper suite (one instance per problem and CCR) under seven
  schedulers, P in {2, 8, 32} and every greedy flavour, also with replay
  blocks a few pairs wide;
* a seeded random-mutation fuzz over suite schedules;
* a wide fork, where an unblocked replay would hold ~4.5M (task, step)
  pairs, about 0.5 GB — the blocked one must stay under 64 MiB, as must a
  long chain on 2,048 processors.

On non-finite inputs only ``ok`` and the S007 entries must match, without a
``RuntimeWarning``.  The perfgate test holds the certify budget: certifying
a schedule costs no more than the FLB run that produced it, at V=2000 and
on the V=120 suite.
"""

import ast
import importlib
import inspect
import json
import math
import statistics
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.bench.perfgate import paired_rounds
from repro.bench.suite import paper_suite
from repro.core.flb import flb
from repro.core.flb_array import flb_array
from repro.graph.io import from_json, to_json
from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.schedule.schedule import Schedule
from repro.schedulers import SCHEDULERS
from repro.util.rng import make_rng
from repro.verify import certify
from repro.workloads import stencil, stencil_size_for_tasks
from repro.workloads.gallery import paper_example, simple_diamond, two_chains
from tests.certify_oracle import oracle_certify
from tests.test_certify import sequential_schedule

certify_module = importlib.import_module("repro.verify.certify")

FLAVORS = (None, "flb", "etf")
SUITE_ALGOS = ("flb", "etf", "fcp", "mcp", "dls", "hlfet", "heft")


def lists_agree(s):
    """Every list entry names a placed task and every placed task is listed
    on ``PROC(t)`` — the inputs on which the two certifiers must agree."""
    n = s.graph.num_tasks
    entries = {(p, t) for p in s.machine.procs for t in s.proc_tasks(p)}
    if not all(0 <= t < n and s.is_scheduled(t) for _, t in entries):
        return False
    return all((s.proc_of(t), t) in entries for t in range(n) if s.is_scheduled(t))


def assert_matches_oracle(s, flavors=FLAVORS, label=""):
    assert lists_agree(s), label
    for flavor in flavors:
        bulk = certify(s, flavor).to_dict()
        assert bulk == oracle_certify(s, flavor).to_dict(), (label, flavor)


def clone(s):
    return Schedule._from_arrays(
        s.graph, s.machine, list(s.placement_order()), list(s._proc),
        list(s._start), list(s._finish), list(s._prt),
    )


def recompute_prt(s):
    s._prt = [0.0] * s.num_procs
    for t in s.graph.tasks():
        if s._placed[t] and s._finish[t] > s._prt[s._proc[t]]:
            s._prt[s._proc[t]] = s._finish[t]


def slack(s, t):
    """How much later ``t`` could run without an overlap or a late message."""
    graph, finish = s.graph, s.finish_of(t)
    gaps = [
        s.start_of(u) - finish
        for u in s.proc_tasks(s.proc_of(t))
        if u != t and s.start_of(u) >= s.start_of(t)
    ]
    gaps += [
        s.start_of(u) - finish
        - s.machine.comm_delay(s.proc_of(t), s.proc_of(u), graph.comm(t, u))
        for u in graph.succs(t)
        if s.is_scheduled(u)
    ]
    return min(gaps, default=1.0)


# -- the mutants of tests/test_certify.py ------------------------------------


def _frozen(make_graph):
    g = make_graph()
    g.freeze()
    return g


def _pair(comm):
    g = TaskGraph()
    g.add_task(1.0)
    g.add_task(1.0)
    g.add_edge(0, 1, comm)
    return g.freeze()


def _s001_missing_task():
    s = Schedule(_frozen(paper_example), MachineModel(2))
    s._append(0, 0, 0.0)
    return s


def _s001_duplicate_placement():
    s = flb(_frozen(simple_diamond), MachineModel(2))
    s._proc_tasks[1].append(0)
    return s


def _s002_negative_start():
    s = flb(_frozen(simple_diamond), MachineModel(2))
    s._start[s.proc_tasks(0)[0]] = -1.0
    return s


def _s003_wrong_finish():
    s = flb(paper_example(), MachineModel(3))
    s._finish[s.proc_tasks(0)[0]] += 0.5
    return s


def _s004_overlap_on_proc():
    # test_s004_overlap with PROC(1) set; the mutant as written there
    # leaves PROC(1) = -1, see test_s004_mutant_with_unset_proc.
    g = TaskGraph()
    g.add_task(2.0)
    g.add_task(2.0)
    s = Schedule(g.freeze(), MachineModel(1))
    s._append(0, 0, 0.0)
    s._append(1, 0, 2.0)
    s._start[1], s._finish[1], s._prt[0] = 1.0, 3.0, 3.0
    return s


def _s005_comm_delay_violated():
    s = Schedule(_pair(5.0), MachineModel(2))
    s._append(0, 0, 0.0)
    s._append(1, 1, 1.0)
    return s


def _s005_ok_when_colocated():
    s = Schedule(_pair(5.0), MachineModel(2))
    s._append(0, 0, 0.0)
    s._append(1, 0, 1.0)
    return s


def _s006_makespan_mismatch():
    s = flb(paper_example(), MachineModel(3))
    s._prt[0] += 5.0
    return s


def _f002_ep_preferred_tie():
    g = TaskGraph()
    a = g.add_task(1.0, name="a")
    c = g.add_task(1.0, name="c")
    g.add_task(2.0, name="e")
    g.add_task(0.5, name="d")
    g.add_edge(a, c, 1.0)
    return flb(g, MachineModel(2), prefer_non_ep_on_tie=False)


def _empty_schedule():
    return Schedule(_frozen(paper_example), MachineModel(2))


def _candidate_earlier_by(margin):
    # Task 2 starts at its own EST, 1.0, but the idle entry task 3 could
    # start `margin` sooner, when processor 1 frees up: F001 only if the
    # margin exceeds eps.
    g = TaskGraph()
    g.add_tasks([1.0, 1.0 - margin, 1.0, 1.0])
    g.add_edge(0, 2, 0.5)
    s = Schedule(g.freeze(), MachineModel(2))
    s._append(0, 0, 0.0)
    s._append(1, 1, 0.0)
    s._append(2, 0, 1.0)
    s._append(3, 1, 2.0)
    return s


def _replay_desync():
    # Durations below eps let a successor start before its predecessor
    # within every structural tolerance; the replay then meets it first.
    g = TaskGraph()
    g.add_task(1e-10)
    g.add_task(1e-10)
    g.add_edge(0, 1, 0.0)
    s = Schedule(g.freeze(), MachineModel(2))
    s._append(0, 0, 0.0)
    s._append(1, 0, -5e-10)
    return s


MUTANTS = {
    "s001_missing_task": _s001_missing_task,
    "s001_duplicate_placement": _s001_duplicate_placement,
    "s002_negative_start": _s002_negative_start,
    "s003_wrong_finish": _s003_wrong_finish,
    "s004_overlap": _s004_overlap_on_proc,
    "s005_comm_delay_violated": _s005_comm_delay_violated,
    "s005_ok_when_colocated": _s005_ok_when_colocated,
    "s006_makespan_mismatch": _s006_makespan_mismatch,
    "f001_sequential_schedule": lambda: sequential_schedule(paper_example(), 2),
    "f002_ep_preferred_tie": _f002_ep_preferred_tie,
    "f001_candidate_earlier_by_4eps": lambda: _candidate_earlier_by(4e-9),
    "f001_candidate_earlier_by_half_eps": lambda: _candidate_earlier_by(5e-10),
    "incomplete_schedule": _empty_schedule,
    "replay_desync": _replay_desync,
    "nontrivial_machine": lambda: flb(
        paper_example(), MachineModel(3, comm_scale=2.0, latency=0.5)
    ),
}


class TestMutantsOfTestCertify:
    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_matches_oracle(self, name):
        assert_matches_oracle(MUTANTS[name](), label=name)

    @pytest.mark.parametrize("make_graph", [paper_example, simple_diamond, two_chains])
    @pytest.mark.parametrize("algo", ["flb", "etf", "fcp"])
    @pytest.mark.parametrize("procs", [2, 3, 8])
    def test_gallery_schedules_match_oracle(self, make_graph, algo, procs):
        assert_matches_oracle(SCHEDULERS[algo](make_graph(), MachineModel(procs)))

    @pytest.mark.parametrize("problem", ["lu", "fft", "stencil"])
    def test_fast_path_schedules_match_oracle(self, problem):
        from repro.cli import _build_problem

        graph = _build_problem(problem, 150, 1.0, 0)
        assert_matches_oracle(flb(graph, MachineModel(4)))

    def test_s004_mutant_with_unset_proc(self):
        # test_s004_overlap leaves PROC(1) at -1 while processor 0 lists
        # it: the oracle reports only the overlap; the bulk checker also
        # names the disagreeing list (S001) and, with task 1 on no real
        # processor, the PRT mismatch (S006).
        s = _s004_overlap_on_proc()
        s._proc[1] = -1
        assert oracle_certify(s).codes() == ("S004",)
        cert = certify(s)
        assert cert.codes() == ("S001", "S004", "S006", "S006")
        assert cert.violations[0].message == (
            "task 1 is listed on processor 0 but placed on processor -1"
        )
        assert cert.violations[1] == oracle_certify(s).violations[0]


# -- the paper suite ---------------------------------------------------------


@pytest.fixture(scope="module")
def suite():
    # One instance per (problem, CCR): DLS and ETF dominate the runtime.
    return paper_suite(120, seeds=1)


@pytest.mark.parametrize("algo", SUITE_ALGOS)
def test_paper_suite_matches_oracle(suite, algo):
    for inst in suite:
        for procs in (2, 8, 32):
            s = SCHEDULERS[algo](inst.graph, MachineModel(procs))
            assert_matches_oracle(s, label=f"{inst.label} {algo} P={procs}")


@pytest.mark.parametrize("block", [1, 5, 64])
def test_small_replay_blocks_match_oracle(suite, block, monkeypatch):
    # Blocks of a few pairs put the failing step, the PRT carry-over and a
    # ready set wider than the block across block boundaries.
    monkeypatch.setattr(certify_module, "_REPLAY_BLOCK", block)
    for inst in suite:
        for algo in ("flb", "mcp"):
            s = SCHEDULERS[algo](inst.graph, MachineModel(4))
            assert_matches_oracle(s, ("flb", "etf"), f"{inst.label} {algo}")
        tie_rule_off = flb(inst.graph, MachineModel(4), prefer_non_ep_on_tie=False)
        assert_matches_oracle(tie_rule_off, ("flb",), f"{inst.label} ep-tie")


# -- random mutations --------------------------------------------------------


def mutate(s, rng):
    """One random corruption that keeps the lists agreeing with PROC(t)."""
    placed = [t for t in s.graph.tasks() if s._placed[t]]
    t = placed[int(rng.integers(len(placed)))]
    kind = int(rng.integers(5))
    if kind == 0:  # shift a start, a finish, or both
        if rng.random() < 0.5:  # a delay that keeps the schedule valid
            delta, which = float(rng.uniform(0.0, max(slack(s, t), 0.0))), 2
        else:
            delta = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 2.0))
            which = int(rng.integers(3))
        if which != 1:
            s._start[t] += delta
        if which != 0:
            s._finish[t] += delta
    elif kind == 1:  # move it to another processor
        old = s._proc[t]
        new = (old + 1 + int(rng.integers(s.num_procs - 1))) % s.num_procs
        s._proc_tasks[old].remove(t)
        row = s._proc_tasks[new]
        row.insert(sum(s._start[u] <= s._start[t] for u in row), t)
        s._proc[t] = new
    elif kind == 2:  # swap two placements
        u = placed[int(rng.integers(len(placed)))]
        pt, pu = s._proc[t], s._proc[u]
        it, iu = s._proc_tasks[pt].index(t), s._proc_tasks[pu].index(u)
        s._proc_tasks[pt][it], s._proc_tasks[pu][iu] = u, t
        for field in (s._proc, s._start, s._finish):
            field[t], field[u] = field[u], field[t]
    elif kind == 3:  # drop it
        s._placed[t] = False
        s._num_placed -= 1
        for row in s._proc_tasks:
            while t in row:
                row.remove(t)
    else:  # list it a second time
        row = s._proc_tasks[int(rng.integers(s.num_procs))]
        row.insert(int(rng.integers(len(row) + 1)), t)


@pytest.mark.parametrize("block", [None, 3])
def test_random_mutations_match_oracle(suite, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(certify_module, "_REPLAY_BLOCK", block)
    bases = [
        SCHEDULERS[algo](inst.graph, MachineModel(procs))
        for inst in suite for algo in ("flb", "etf", "mcp") for procs in (2, 8)
    ]
    rng = np.random.default_rng(2024)
    codes = set()
    for case in range(250):
        s = clone(bases[int(rng.integers(len(bases)))])
        for _ in range(int(rng.integers(1, 4))):
            mutate(s, rng)
        if rng.random() < 0.5:
            recompute_prt(s)
        assert_matches_oracle(s, label=f"case {case}")
        codes.update(certify(s, "flb").codes())
    # The fuzz reaches every structural rule and the replay.
    assert {"S001", "S002", "S003", "S004", "S005", "S006", "F001"} <= codes


def test_valid_delays_match_oracle(suite):
    # Delays within a task's slack keep S001..S007 intact, so the replay
    # runs on every one and must find the oracle's first failing step.
    rng = np.random.default_rng(7)
    codes = set()
    for inst in suite:
        base = flb(inst.graph, MachineModel(4))
        for t in rng.choice(inst.graph.num_tasks, size=6, replace=False).tolist():
            # Half the slack, and a few eps: just past the replay's tolerance.
            for delay in (slack(base, t) / 2, 4e-9):
                if not 0.0 < delay <= slack(base, t):
                    continue
                s = clone(base)
                s._start[t] += delay
                s._finish[t] += delay
                recompute_prt(s)
                assert certify(s).ok
                assert_matches_oracle(s, label=f"{inst.label} delay {t} by {delay}")
                codes.update(certify(s, "flb").codes())
    assert "F001" in codes


# -- the wide fork -----------------------------------------------------------


def random_graph(n, src, dst):
    rng = make_rng(3)
    return TaskGraph.from_arrays(
        rng.uniform(1.0, 2.0, n), src, dst, rng.uniform(0.0, 1.0, len(src))
    )


def certify_peak(schedule, flavor):
    """The certificate and the peak bytes traced while computing it."""
    tracemalloc.start()
    try:
        return certify(schedule, flavor), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_fork_matches_oracle_in_bounded_memory():
    leaves = np.arange(1, 3000)
    fork = random_graph(3000, np.zeros_like(leaves), leaves)
    s = flb_array(fork, machine=MachineModel(8))
    # A late failure too: delaying the last leaf keeps the schedule
    # structurally valid, and the replay must reach the final step.
    late = clone(s)
    last = max(late.graph.tasks(), key=late.start_of)
    late._start[last] += 1.0
    late._finish[last] += 1.0
    recompute_prt(late)
    for schedule, ok in ((s, True), (late, False)):
        cert, peak = certify_peak(schedule, "flb")
        assert cert.ok is ok
        assert peak < 64 * 2**20, f"certify peaked at {peak / 2**20:.1f} MiB"
        assert cert.to_dict() == oracle_certify(schedule, "flb").to_dict()


def test_many_processors_bound_the_prt_history():
    # A chain has one ready task per step, so the pair bound alone would
    # put all 5,000 steps in one block: 2,049 x 5,001 PRT entries, 82 MB.
    n = 5000
    chain = random_graph(n, np.arange(n - 1), np.arange(1, n))
    cert, peak = certify_peak(flb_array(chain, machine=MachineModel(2048)), "flb")
    assert cert.ok, cert.render()
    assert peak < 64 * 2**20, f"certify peaked at {peak / 2**20:.1f} MiB"


# -- non-finite inputs -------------------------------------------------------


@pytest.mark.parametrize("case", range(24))
def test_non_finite_times_match_oracle_on_s007(case):
    rng = np.random.default_rng(case)
    s = flb(paper_example(), MachineModel(3))
    bad = [math.nan, math.inf, -math.inf]
    for _ in range(int(rng.integers(1, 4))):
        value = bad[int(rng.integers(3))]
        where = int(rng.integers(4))
        if where == 3:
            s._prt[int(rng.integers(3))] = value
        else:
            t = int(rng.integers(s.graph.num_tasks))
            if where != 1:
                s._start[t] = value
            if where != 0:
                s._finish[t] = value
    for flavor in FLAVORS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bulk = certify(s, flavor)
        oracle = oracle_certify(s, flavor)
        assert not bulk.ok and not oracle.ok
        s007 = [v for v in bulk.violations if v.code == "S007"]
        assert s007 == [v for v in oracle.violations if v.code == "S007"]
        assert s007 and bulk.violations[: len(s007)] == tuple(s007)


# -- independence ------------------------------------------------------------


def test_certifier_shares_nothing_with_the_kernels():
    tree = ast.parse(inspect.getsource(certify_module))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    for banned in ("repro.core", "repro.schedulers", "repro.graph.properties", "heapq"):
        assert not any(m == banned or m.startswith(banned + ".") for m in imported)
    attributes = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not attributes & {
        "csr", "lists", "_placement_arrays", "heappush", "heappop",
    }
    assert not {a for a in attributes if a.startswith("_")}


# -- budget ------------------------------------------------------------------


@pytest.mark.perfgate
def test_certify_within_kernel_time():
    """Certifying (FLB flavour) the schedule of a freshly ingested graph on
    P=8 costs no more than the ``flb_array`` run that produced it, for one
    V=2000 stencil and for the eight V=120 suite graphs, in the median of
    paired rounds.  Every graph either arm touches is fresh from
    ``from_json``, built before the timing starts: the kernel arm runs cold,
    and the certify arm checks schedules made from other fresh copies."""
    machine = MachineModel(8)
    cases = {
        "V=2000 stencil": [stencil(*stencil_size_for_tasks(2000), make_rng(0))],
        "V=120 suite": [inst.graph for inst in paper_suite(120, seeds=1)],
    }
    rounds = 9
    for label, graphs in cases.items():
        docs = [json.loads(to_json(g)) for g in graphs]
        fresh = iter([[from_json(d) for d in docs] for _ in range(rounds)])
        made = iter(
            [[flb_array(from_json(d), machine=machine) for d in docs]
             for _ in range(rounds)]
        )
        certs = []
        ratios = [cert / kernel for cert, kernel in paired_rounds(
            lambda: certs.extend(certify(s, "flb") for s in next(made)),
            lambda: [flb_array(g, machine=machine) for g in next(fresh)],
            rounds,
        )]
        assert all(cert.ok for cert in certs), label
        ratio = statistics.median(ratios)
        assert ratio <= 1.0, (
            f"{label}: certify/kernel {ratio:.2f} in the median round "
            f"(rounds {[round(r, 2) for r in ratios]})"
        )
