"""Warm-start incremental rescheduling, measured against the cold kernel.

Serving traffic reschedules *mutated* DAGs far more often than fresh ones.
The warm-start path (:mod:`repro.incremental` + the ``base=`` replay in
:func:`repro.core.flb_array.flb_array`) diffs the new graph against a base
schedule, replays the clean schedule prefix verbatim, and runs the FLB
kernel only over the dirty suffix — bit-identical to a cold run.

:func:`measure_pair` times one mutation size.  Warm timings are honest
end-to-end calls on freshly-built mutants: they include the vectorized
diff, the incremental re-hash of the dirty set, and the suffix replay.  The
base graph's own hash sweep is primed once, as the serving planes do at
base-store time.  The ``incremental`` registry entry sweeps it over
:data:`FRACTIONS`; ``benchmarks/bench_incremental.py`` gates on it.
"""

from __future__ import annotations

import gc
import math
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.flb_array import flb_array
from repro.graph.properties import bottom_levels_array, subgraph_hashes
from repro.graph.taskgraph import TaskGraph
from repro.machine import MachineModel

__all__ = ["FRACTIONS", "PROCS", "measure_pair", "mutant", "prime"]

PROCS = 16

#: Fractions of the tasks retuned, always *late* tasks: early mutations
#: legitimately kill the prefix and fall back to cold.
FRACTIONS = (0.001, 0.01, 0.1, 0.5)


def _off_chain_tasks(graph: TaskGraph) -> List[int]:
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


def mutant(graph: TaskGraph, fraction: float) -> TaskGraph:
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
        out.add_task(comp * 0.75 if t in late else comp, graph.name(t))
    for s, d, c in graph.edges():
        out.add_edge(s, d, c)
    return out.freeze()


def prime(graph: TaskGraph) -> TaskGraph:
    """Warm the caches a served graph would already carry (CSR, bottom
    levels) without touching the subgraph-hash cache the warm path must
    build incrementally."""
    graph.freeze()
    graph.csr()
    bottom_levels_array(graph)
    return graph


def measure_pair(
    graph: TaskGraph, fraction: float, repeats: int
) -> Tuple[float, float, Dict[str, Any]]:
    """(cold seconds, warm seconds, warm stats) for one mutation size.

    Every repeat gets freshly-built, identically-primed mutants so the
    incremental hash seeding is always inside the warm timed region.  Cold
    and warm runs are *interleaved* (cold, warm, cold, warm, ...) and each
    side takes its min, so a throttling or noisy-neighbour episode hits
    both sides of the ratio instead of whichever block it lands on.
    """
    base = flb_array(prime(graph), MachineModel(PROCS))
    subgraph_hashes(graph)  # primed at base-store time by the serving planes

    cold = warm = float("inf")
    stats: Dict[str, Any] = {}
    for _ in range(repeats):
        # Each mutant is built immediately before its timed run (not
        # batched up front): with V=10^5 a batch of prebuilt graphs spreads
        # the interpreter heap across hundreds of MB and the pointer-chasing
        # kernels lose cache locality, doubling the measured times.
        cold_mutant = prime(mutant(graph, fraction))
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            flb_array(cold_mutant, MachineModel(PROCS))
            cold = min(cold, time.perf_counter() - t0)
        finally:
            gc.enable()
        del cold_mutant
        warm_mutant = prime(mutant(graph, fraction))
        gc.collect()
        gc.disable()
        try:
            stats.clear()
            t0 = time.perf_counter()
            flb_array(warm_mutant, MachineModel(PROCS), base=base,
                      warm_stats=stats)
            warm = min(warm, time.perf_counter() - t0)
        finally:
            gc.enable()
        del warm_mutant
    return cold, warm, dict(stats)
