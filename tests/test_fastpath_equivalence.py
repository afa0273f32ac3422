"""The CSR fast paths must be *bit-identical* to the implementations they
replaced.

``docs/performance.md``: the fast kernels (the FLB array kernel, the CSR
rewrites of ETF and FCP, ``Schedule._append``) are pure constant-factor
work — the
algorithms' decisions, tie-breaks, and floating-point arithmetic are
unchanged.  That claim is checkable exactly, so these tests use ``==`` on
starts and makespans, never ``approx``:

* FLB: ``flb`` (the array kernel) vs ``_flb_observed`` with no observer (the preserved
  seed loop) vs :func:`repro.core.reference.flb_reference` (brute force),
  across random DAGs swept over V, CCR and P, and across machine variants
  (latency, comm scaling, heterogeneous speeds).
* The *observed* path still reproduces the paper's Table 1 trace, so the
  dispatch on ``observer`` cost no fidelity.
* ETF and FCP: against brute-force re-implementations written here from the
  generic ``est_on``/``emt_on`` helpers — independent of the CSR code they
  check.
* A hypothesis sweep hunts for divergence on arbitrary layered DAGs.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TraceRecorder, flb
from repro.core.flb import _flb_observed
from repro.core.reference import flb_reference
from repro.graph.properties import bottom_levels
from repro.machine import MachineModel
from repro.schedule import Schedule
from repro.schedulers import etf, fcp
from repro.schedulers.base import emt_on, est_on
from repro.util.rng import make_rng
from repro.workloads import erdos_dag, laplace, layered_random, lu, paper_example, stencil


def assert_bit_identical(a: Schedule, b: Schedule, label: str) -> None:
    graph = a.graph
    for t in graph.tasks():
        assert a.proc_of(t) == b.proc_of(t), f"{label}: task {t} on different proc"
        assert a.start_of(t) == b.start_of(t), f"{label}: task {t} start differs"
    assert a.makespan == b.makespan, f"{label}: makespan differs"


def seed_flb(graph, machine):
    return _flb_observed(graph, machine, None, True)


# ---------------------------------------------------------------------------
# FLB: fast vs observed vs brute force
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("v,density", [(20, 0.3), (60, 0.15), (150, 0.08)])
@pytest.mark.parametrize("ccr", [0.2, 1.0, 5.0])
@pytest.mark.parametrize("procs", [1, 2, 8, 32])
def test_flb_three_way_on_random_dags(v, density, ccr, procs):
    graph = erdos_dag(v, density, make_rng(v + procs), ccr=ccr)
    fast = flb(graph, MachineModel(procs))
    observed = seed_flb(graph, MachineModel(procs))
    reference = flb_reference(graph, MachineModel(procs))
    assert_bit_identical(fast, observed, "fast vs observed")
    assert_bit_identical(fast, reference, "fast vs reference")


@pytest.mark.parametrize(
    "machine",
    [
        MachineModel(3, latency=0.5),
        MachineModel(4, comm_scale=2.5),
        MachineModel(3, latency=0.25, comm_scale=0.5),
        MachineModel(4, speeds=(1.0, 2.0, 0.5, 1.5)),
        MachineModel(3, latency=0.1, comm_scale=1.5, speeds=(2.0, 1.0, 1.0)),
    ],
)
def test_flb_three_way_on_machine_variants(machine):
    graph = layered_random(8, 6, make_rng(3), edge_density=0.3, ccr=2.0)
    fast = flb(graph, machine=machine)
    observed = _flb_observed(graph, machine, None, True)
    reference = flb_reference(graph, machine=machine)
    assert_bit_identical(fast, observed, "fast vs observed")
    assert_bit_identical(fast, reference, "fast vs reference")


@pytest.mark.parametrize("prefer", [True, False])
def test_flb_tie_ablation_matches_observed(prefer):
    # Unit weights maximise EP/non-EP ties — the knob's whole domain.
    graph = erdos_dag(40, 0.25, None, ccr=1.0)
    machine = MachineModel(4)
    fast = flb(graph, MachineModel(4), prefer_non_ep_on_tie=prefer)
    observed = _flb_observed(graph, machine, None, prefer)
    assert_bit_identical(fast, observed, f"prefer_non_ep_on_tie={prefer}")


def test_observed_path_still_traces_table1():
    """Supplying an observer selects the snapshot path; its schedule must
    equal the fast path's and its trace must stay complete and ordered."""
    graph = paper_example()
    recorder = TraceRecorder(graph)
    observed = flb(graph, MachineModel(2), observer=recorder)
    fast = flb(graph, MachineModel(2))
    assert_bit_identical(fast, observed, "table1 graph")
    assert len(recorder.rows) == graph.num_tasks
    assert [row.task for row in recorder.rows] == [
        row.task for row in sorted(recorder.rows, key=lambda r: r.start)
    ]
    starts = [row.start for row in recorder.rows]
    assert starts == sorted(starts)


@pytest.mark.parametrize(
    "builder",
    [
        lambda: lu(9, make_rng(2), ccr=5.0),
        lambda: laplace(5, 5, make_rng(2), ccr=0.2),
        lambda: stencil(8, 8, make_rng(2), ccr=1.0),
    ],
)
def test_flb_array_vs_observed_on_paper_workloads(builder):
    graph = builder()
    for procs in (2, 8):
        assert_bit_identical(
            flb(graph, MachineModel(procs)), seed_flb(graph, MachineModel(procs)),
            "paper workload",
        )


# ---------------------------------------------------------------------------
# ETF and FCP: CSR kernels vs brute-force re-implementations
# ---------------------------------------------------------------------------


def etf_brute(graph, machine):
    """ETF semantics from the generic helpers: full (ready x proc) scan,
    minimum EST, ties by (-BL, task, proc)."""
    graph.freeze()
    schedule = Schedule(graph, machine)
    bl = bottom_levels(graph)
    remaining = [graph.in_degree(t) for t in graph.tasks()]
    ready = set(graph.entry_tasks)
    while ready:
        best = None
        for task in sorted(ready):
            for proc in machine.procs:
                est = est_on(schedule, task, proc)
                key = (est, -bl[task], task, proc)
                if best is None or key < best:
                    best = key
                    choice = (task, proc, est)
        task, proc, est = choice
        schedule.place(task, proc, est)
        ready.discard(task)
        for succ in graph.succs(task):
            remaining[succ] -= 1
            if not remaining[succ]:
                ready.add(succ)
    return schedule


def fcp_brute(graph, machine):
    """FCP semantics from the generic helpers: highest-BL ready task, two
    candidate processors (EP with ties by (arrival, FT, id), earliest-idle),
    EP wins ties."""
    graph.freeze()
    schedule = Schedule(graph, machine)
    bl = bottom_levels(graph)
    remaining = [graph.in_degree(t) for t in graph.tasks()]
    ready = [(-bl[t], t) for t in graph.entry_tasks]
    heapq.heapify(ready)
    while ready:
        _, task = heapq.heappop(ready)
        ep, key = 0, (-1.0, -1.0, -1)
        for pred in graph.preds(task):
            ft = schedule.finish_of(pred)
            arrival = ft + machine.remote_delay(graph.comm(pred, task))
            if (arrival, ft, pred) > key:
                key = (arrival, ft, pred)
                ep = schedule.proc_of(pred)
        idle = min(machine.procs, key=lambda p: (schedule.prt(p), p))
        est_ep = est_on(schedule, task, ep)
        est_idle = max(key[0], schedule.prt(idle))
        if est_ep <= est_idle:
            proc, est = ep, est_ep
        else:
            proc, est = idle, est_idle
        schedule.place(task, proc, est)
        for succ in graph.succs(task):
            remaining[succ] -= 1
            if not remaining[succ]:
                heapq.heappush(ready, (-bl[succ], succ))
    return schedule


@pytest.mark.parametrize("procs", [1, 2, 4, 8])
@pytest.mark.parametrize("ccr", [0.2, 1.0, 5.0])
def test_etf_matches_brute_force(procs, ccr):
    graph = erdos_dag(35, 0.2, make_rng(procs), ccr=ccr)
    machine = MachineModel(procs)
    assert_bit_identical(etf(graph, machine), etf_brute(graph, machine), "etf")


@pytest.mark.parametrize("procs", [1, 2, 4, 8])
@pytest.mark.parametrize("ccr", [0.2, 1.0, 5.0])
def test_fcp_matches_brute_force(procs, ccr):
    graph = erdos_dag(45, 0.2, make_rng(procs + 100), ccr=ccr)
    machine = MachineModel(procs)
    assert_bit_identical(fcp(graph, machine), fcp_brute(graph, machine), "fcp")


def test_etf_fcp_brute_on_machine_variants():
    graph = layered_random(6, 5, make_rng(9), edge_density=0.35, ccr=2.0)
    machine = MachineModel(3, latency=0.5, comm_scale=1.5)
    assert_bit_identical(
        etf(graph, machine=machine), etf_brute(graph, machine), "etf machine"
    )
    assert_bit_identical(
        fcp(graph, machine=machine), fcp_brute(graph, machine), "fcp machine"
    )


# ---------------------------------------------------------------------------
# Kernel matrix: flb (array kernel) / observed seed loop / brute force
# ---------------------------------------------------------------------------


def _kernel_backends(prefer=True):
    """Every FLB implementation that must agree bit-for-bit under the tie
    rule ``prefer``, as (label, callable(graph, machine, prefer))
    pairs.  The brute-force reference implements the paper's rule only, so
    it joins the matrix when ``prefer`` is True."""
    backends = [
        ("flb", lambda g, m, pref: flb(g, m, prefer_non_ep_on_tie=pref)),
        ("seed", lambda g, m, pref: _flb_observed(g, m, None, pref)),
    ]
    if prefer:
        backends.append(
            ("reference", lambda g, m, pref: flb_reference(g, m))
        )
    return backends


@pytest.mark.parametrize("v,density", [(20, 0.3), (80, 0.12), (200, 0.05)])
@pytest.mark.parametrize("procs", [1, 2, 8, 32])
def test_kernel_matrix_on_random_dags(v, density, procs):
    graph = erdos_dag(v, density, make_rng(v * 31 + procs), ccr=1.0)
    backends = _kernel_backends()
    ref_label, ref_fn = backends[0]
    ref = ref_fn(graph, MachineModel(procs), True)
    for label, fn in backends[1:]:
        assert_bit_identical(
            ref, fn(graph, MachineModel(procs), True), f"{ref_label} vs {label}"
        )


@pytest.mark.parametrize(
    "machine",
    [
        MachineModel(3, latency=0.5),
        MachineModel(4, comm_scale=2.5),
        MachineModel(4, speeds=(1.0, 2.0, 0.5, 1.5)),
        MachineModel(3, latency=0.1, comm_scale=1.5, speeds=(2.0, 1.0, 1.0)),
    ],
)
@pytest.mark.parametrize("prefer", [True, False])
def test_kernel_matrix_on_machine_variants(machine, prefer):
    graph = layered_random(7, 6, make_rng(11), edge_density=0.3, ccr=2.0)
    backends = _kernel_backends(prefer)
    ref = backends[0][1](graph, machine, prefer)
    for label, fn in backends[1:]:
        assert_bit_identical(
            ref, fn(graph, machine, prefer), f"flb vs {label}"
        )


def test_kernel_fuzz_200_random_dags_with_certify():
    """200-graph fuzz sweep: every backend agrees with ``flb`` on every
    graph, and the array kernel's schedule passes the independent certifier
    (structural invariants S001.. plus the FLB greedy certificate F001/F002).
    """
    from repro.verify import certify as certify_schedule
    from repro.verify import greedy_flavor
    from repro.workloads import fork_join

    flavor = greedy_flavor("flb")
    for i in range(200):
        rng = make_rng(10_000 + i)
        kind = i % 3
        if kind == 0:
            graph = erdos_dag(
                10 + (i * 7) % 50, 0.08 + (i % 5) * 0.06, rng,
                ccr=(0.2, 1.0, 5.0)[i % 3],
            )
        elif kind == 1:
            graph = layered_random(
                2 + i % 6, 2 + i % 5, rng, edge_density=0.15 + (i % 4) * 0.2,
                ccr=(0.2, 1.0, 5.0)[(i // 3) % 3],
            )
        else:
            graph = fork_join(1 + i % 4, 2 + i % 6, rng)
        procs = (1, 2, 3, 8)[i % 4]
        prefer = (i // 2) % 2 == 0
        backends = _kernel_backends(prefer)
        ref = backends[0][1](graph, MachineModel(procs), prefer)
        schedules = {"flb": ref}
        for label, fn in backends[1:]:
            schedules[label] = fn(graph, MachineModel(procs), prefer)
            assert_bit_identical(
                ref, schedules[label], f"fuzz graph {i}: flb vs {label}"
            )
        if prefer:  # the certifier's greedy certificate assumes the paper rule
            cert = certify_schedule(schedules["flb"], flavor=flavor)
            assert cert.ok, f"fuzz graph {i}: {[v.code for v in cert.violations]}"


# ---------------------------------------------------------------------------
# Hypothesis sweep
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    layers=st.integers(2, 7),
    width=st.integers(2, 6),
    density=st.floats(0.1, 0.9),
    ccr=st.sampled_from([0.2, 1.0, 5.0]),
    procs=st.sampled_from([1, 2, 3, 8]),
    seed=st.integers(0, 10_000),
)
def test_flb_array_never_diverges(layers, width, density, ccr, procs, seed):
    graph = layered_random(
        layers, width, make_rng(seed), edge_density=density, ccr=ccr
    )
    fast = flb(graph, MachineModel(procs))
    assert_bit_identical(fast, seed_flb(graph, MachineModel(procs)), "hypothesis observed")
    assert_bit_identical(fast, flb_reference(graph, MachineModel(procs)), "hypothesis reference")
