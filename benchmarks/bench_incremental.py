"""Warm-start incremental rescheduling: reuse-fraction sweep + perf gate.

Serving traffic reschedules *mutated* DAGs far more often than fresh ones.
The warm-start path (:mod:`repro.incremental` + the ``base=`` replay in
:func:`repro.core.flb_array.flb_array`) diffs the new graph against a base
schedule, replays the clean schedule prefix verbatim, and runs the FLB
kernel only over the dirty suffix — bit-identical to a cold run.

This benchmark measures the payoff across mutation sizes (0.1% .. 50% of
tasks retuned, always *late* tasks — early mutations legitimately kill the
prefix and fall back to cold) on 10^4–10^5-task stencil and LU graphs.
Warm timings are honest end-to-end calls on freshly-built mutants: they
include the vectorized diff, the incremental re-hash of the dirty set, and
the suffix replay.  The base graph's own hash sweep is primed once, as the
serving planes do at base-store time.

Run as a script to produce ``results/incremental.txt``::

    PYTHONPATH=src python benchmarks/bench_incremental.py
    PYTHONPATH=src python benchmarks/bench_incremental.py --max-v 10000

The ``perfgate`` test pins the headline acceptance number: a 10^5-task
reschedule with <= 1% mutated must be at least 5x faster warm than cold,
bit-identical, and pass the independent certifier.
"""

import gc
import math
import time

import numpy as np
import pytest

from repro.core.flb_array import flb_array
from repro.graph.properties import bottom_levels_array, subgraph_hashes
from repro.graph.taskgraph import TaskGraph
from repro.util.rng import make_rng
from repro.workloads import lu, stencil
from repro.workloads.stencil import stencil_size_for_tasks

PROCS = 16
FRACTIONS = (0.001, 0.01, 0.1, 0.5)


def _off_chain_tasks(graph):
    """Tasks that are on no predecessor's max-successor chain, in
    topological order.

    A bottom-level is ``comp + max(comm + BL(succ))``; decreasing the comp
    of a task that never *achieves* that max leaves every other task's
    bottom level bitwise unchanged, so the retune dirties exactly the task
    itself (plus its hash descendants) instead of cascading an ancestor
    chain back to the entry tasks and killing the reusable prefix.  The
    test replicates the exact float ops of ``bottom_levels_array``, so
    ties are conservatively treated as on-chain.
    """
    csr = graph.csr()
    bl = bottom_levels_array(graph)
    comps = graph.comps_array()
    src = np.repeat(np.arange(graph.num_tasks), np.diff(csr.succ_ptr))
    on_max = comps[src] + (csr.succ_comm + bl[csr.succ_ids]) == bl[src]
    critical = np.zeros(graph.num_tasks, dtype=bool)
    critical[csr.succ_ids[on_max]] = True
    return [t for t in graph.topological_order if not critical[t]]


def _mutant(graph, fraction):
    """Rebuild ``graph`` with ``ceil(fraction * V)`` late off-chain tasks
    retuned (comp scaled down).  Deterministic: repeated calls with the
    same arguments build bitwise-identical mutants.

    The latest eligible tasks are picked, so small fractions stay confined
    to the tail of the schedule — the realistic serving delta (retuning
    cost estimates off the critical path).  Large fractions necessarily
    reach early tasks and legitimately fall back to a cold run.
    """
    k = max(1, math.ceil(fraction * graph.num_tasks))
    late = set(_off_chain_tasks(graph)[-k:])
    out = TaskGraph()
    for t in range(graph.num_tasks):
        comp = graph.comp(t)
        out.add_task(comp * 0.75 if t in late else comp, graph._names[t])
    for s, d, c in graph.edges():
        out.add_edge(s, d, c)
    return out.freeze()


def _prime(graph):
    """Warm the caches a served graph would already carry (CSR, bottom
    levels) without touching the subgraph-hash cache the warm path must
    build incrementally."""
    graph.freeze()
    graph.csr()
    bottom_levels_array(graph)
    return graph


def _bench_pair(graph, fraction, repeats):
    """(cold seconds, warm seconds, warm stats) for one mutation size.

    Every repeat gets freshly-built, identically-primed mutants so the
    incremental hash seeding is always inside the warm timed region.  Cold
    and warm runs are *interleaved* (cold, warm, cold, warm, ...) and each
    side takes its min, so a throttling or noisy-neighbour episode hits
    both sides of the ratio instead of whichever block it lands on.
    """
    base = flb_array(_prime(graph), PROCS)
    subgraph_hashes(graph)  # primed at base-store time by the serving planes

    cold = warm = float("inf")
    stats = {}
    for _ in range(repeats):
        # Each mutant is built immediately before its timed run (not
        # batched up front): with V=10^5 a batch of prebuilt graphs spreads
        # the interpreter heap across hundreds of MB and the pointer-chasing
        # kernels lose cache locality, doubling the measured times.
        cold_mutant = _prime(_mutant(graph, fraction))
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            flb_array(cold_mutant, PROCS)
            cold = min(cold, time.perf_counter() - t0)
        finally:
            gc.enable()
        del cold_mutant
        warm_mutant = _prime(_mutant(graph, fraction))
        gc.collect()
        gc.disable()
        try:
            stats.clear()
            t0 = time.perf_counter()
            flb_array(warm_mutant, PROCS, base=base,
                      warm_stats=stats)
            warm = min(warm, time.perf_counter() - t0)
        finally:
            gc.enable()
        del warm_mutant
    return cold, warm, dict(stats)


def run_incremental_sweep(max_v=100_000, procs=PROCS, out=None):
    """Reuse-fraction sweep; returns row dicts and writes ``out``."""
    from pathlib import Path

    from repro.util.tables import format_table

    global PROCS
    PROCS = procs
    graphs = []
    for v in (10_000, 100_000):
        if v <= max_v:
            cells, steps = stencil_size_for_tasks(v)
            graphs.append((f"stencil-{v // 1000}k",
                           stencil(cells, steps, make_rng(7))))
    if max_v >= 10_000:
        graphs.append(("lu-10k", lu(140, make_rng(7))))

    rows = []
    for label, graph in graphs:
        repeats = 3 if graph.num_tasks <= 20_000 else 2
        for fraction in FRACTIONS:
            cold, warm, stats = _bench_pair(graph, fraction, repeats)
            served = "fallback" not in stats
            reuse = float(stats.get("fraction", 0.0)) if served else 0.0
            rows.append({
                "graph": label,
                "V": graph.num_tasks,
                "mutated": fraction,
                "reuse": reuse,
                "cold_ms": cold * 1e3,
                "warm_ms": warm * 1e3,
                "speedup": cold / warm if warm > 0 else float("inf"),
                "served": served,
            })
            print(f"{label:>12}  mutated={fraction:>6.1%}  "
                  f"reuse={reuse:>6.1%}  cold={cold * 1e3:8.1f}ms  "
                  f"warm={warm * 1e3:8.1f}ms  "
                  f"speedup={rows[-1]['speedup']:5.1f}x"
                  f"{'' if served else '  (cold fallback)'}")

    text = "\n".join([
        "== incremental: warm-start rescheduling vs cold array kernel ==",
        f"late-task comp retunes, P={PROCS}; warm includes diff + "
        "incremental re-hash + suffix replay (bit-identical to cold)",
        format_table(
            ["graph", "V", "mutated", "reuse", "cold [ms]", "warm [ms]",
             "speedup"],
            [[r["graph"], r["V"], f"{r['mutated']:.1%}",
              f"{r['reuse']:.1%}" if r["served"] else "fallback",
              r["cold_ms"], r["warm_ms"], f"{r['speedup']:.1f}x"]
             for r in rows],
        ),
    ]) + "\n"
    if out is not None:
        out = Path(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        print(f"wrote {out}")
    print(text)
    return rows


# ---------------------------------------------------------------------------
# The acceptance gate
# ---------------------------------------------------------------------------


@pytest.mark.perfgate
def test_warm_start_beats_cold_5x_small_mutation():
    """10^5-task stencil with <= 1% of (late, off-chain) tasks retuned:
    the warm-start reschedule must be >= 5x faster than the cold array
    run, bit-identical to it, and pass the independent certifier."""
    from repro.verify import certify as certify_schedule
    from repro.verify import greedy_flavor

    cells, steps = stencil_size_for_tasks(100_000)
    graph = stencil(cells, steps, make_rng(7))
    cold_s, warm_s, stats = _bench_pair(graph, 0.001, repeats=3)

    assert "fallback" not in stats, f"warm path fell back: {stats}"
    assert stats["reused"] > 0.99 * graph.num_tasks

    speedup = cold_s / warm_s
    assert speedup >= 5.0, (
        f"warm-start speedup {speedup:.1f}x < 5x "
        f"(cold {cold_s * 1e3:.0f}ms, warm {warm_s * 1e3:.0f}ms)"
    )

    # Correctness outside the timed region: exact equality, then the
    # independent certificate on the warm result.
    base = flb_array(graph, PROCS)
    mutant = _mutant(graph, 0.001)
    cold = flb_array(_prime(_mutant(graph, 0.001)), PROCS)
    warm = flb_array(mutant, PROCS, base=base)
    assert warm.makespan == cold.makespan
    for t in range(0, graph.num_tasks, 997):  # stride keeps the check fast
        assert warm.proc_of(t) == cold.proc_of(t)
        assert warm.start_of(t) == cold.start_of(t)
    cert = certify_schedule(warm, flavor=greedy_flavor("flb"))
    assert cert.ok, [v.code for v in cert.violations]


@pytest.mark.perfgate
def test_identical_resubmission_reuses_everything():
    """The no-change delta (an identical resubmission) must replay the
    whole schedule and cost far less than recomputing it."""
    cells, steps = stencil_size_for_tasks(20_000)
    graph = stencil(cells, steps, make_rng(7))
    base = flb_array(_prime(graph), PROCS)
    subgraph_hashes(graph)
    resub = _prime(_resub(graph))
    stats = {}
    warm = flb_array(resub, PROCS, base=base,
                     warm_stats=stats)
    assert stats.get("reused") == graph.num_tasks
    assert warm.makespan == base.makespan


def _resub(graph):
    """A bitwise-equal rebuild (identical resubmission)."""
    out = TaskGraph()
    for t in range(graph.num_tasks):
        out.add_task(graph.comp(t), graph._names[t])
    for s, d, c in graph.edges():
        out.add_edge(s, d, c)
    return out.freeze()


if __name__ == "__main__":
    import argparse
    from pathlib import Path

    _parser = argparse.ArgumentParser(
        description="Warm-start incremental rescheduling sweep"
    )
    _parser.add_argument("--max-v", type=int, default=100_000)
    _parser.add_argument("--procs", type=int, default=16)
    _parser.add_argument(
        "-o", "--output",
        default=str(
            Path(__file__).resolve().parents[1] / "results" / "incremental.txt"
        ),
    )
    _args = _parser.parse_args()
    run_incremental_sweep(
        max_v=_args.max_v, procs=_args.procs, out=_args.output
    )
