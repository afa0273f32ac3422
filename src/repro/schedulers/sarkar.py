"""Sarkar's edge-zeroing clustering (ref [9] of the paper; extension).

Sarkar's classic internalisation pre-pass, the other canonical clustering
algorithm next to DSC: visit edges in **decreasing communication cost**
order and merge the two endpoint clusters whenever doing so does not
increase the estimated parallel time on an unbounded machine; tasks inside
a cluster are serialised in a fixed priority order (here: descending bottom
level, the standard choice).

Composed with LLB (``sarkar-llb`` in the registry) this gives a second
multi-step baseline, letting the harness ablate DSC against a simpler
clustering of higher cost — Sarkar's is ``O(E (V + E))`` because every
tentative merge re-estimates the parallel time.

The parallel-time estimator schedules each cluster on its own virtual
processor (list scheduling inside clusters by the fixed priority order) and
respects cross-cluster communication; it is shared with the tests, which
verify monotonic non-degradation across accepted merges.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.properties import bottom_levels
from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.schedule.schedule import Schedule
from repro.schedulers.dsc import Clustering
from repro.schedulers.llb import llb

__all__ = ["sarkar", "sarkar_llb", "estimate_parallel_time"]


def estimate_parallel_time(
    graph: TaskGraph,
    cluster_of: Sequence[int],
    machine: MachineModel,
    priority: Sequence[float],
) -> Tuple[float, List[float]]:
    """Parallel time of a clustering on an unbounded machine.

    Each cluster runs on its own processor; within a cluster, ready tasks
    run in descending ``priority`` order; messages between clusters cost
    their remote delay, inside a cluster they are free.  Returns
    ``(makespan, start_times)``.
    """
    n = graph.num_tasks
    start = [0.0] * n
    finish = [0.0] * n
    cluster_ready: Dict[int, float] = {}
    remaining = [graph.in_degree(t) for t in graph.tasks()]
    # Event-free list simulation: repeatedly take the globally next task to
    # start; O(V^2) worst case, fine for the estimator's role.
    ready = {t for t in graph.entry_tasks}
    done = 0
    while ready:
        best = None
        best_key = None
        for t in ready:
            c = cluster_of[t]
            arrivals = 0.0
            for p in graph.preds(t):
                if cluster_of[p] == c:
                    a = finish[p]
                else:
                    a = finish[p] + machine.remote_delay(graph.comm(p, t))
                if a > arrivals:
                    arrivals = a
            est = max(arrivals, cluster_ready.get(c, 0.0))
            key = (est, -priority[t], t)
            if best_key is None or key < best_key:
                best_key = key
                best = (t, est)
        t, est = best
        ready.remove(t)
        c = cluster_of[t]
        start[t] = est
        finish[t] = est + graph.comp(t)
        cluster_ready[c] = finish[t]
        for s in graph.succs(t):
            remaining[s] -= 1
            if remaining[s] == 0:
                ready.add(s)
        done += 1
    assert done == n
    return (max(finish) if n else 0.0), start


def sarkar(graph: TaskGraph, machine: Optional[MachineModel] = None) -> Clustering:
    """Cluster ``graph`` with Sarkar's edge-zeroing algorithm."""
    graph.freeze()
    if machine is None:
        machine = MachineModel(1)
    n = graph.num_tasks
    bl = bottom_levels(graph)

    cluster_of = list(range(n))  # singleton clusters

    def find(c: int) -> int:
        while cluster_of[c] != c:
            cluster_of[c] = cluster_of[cluster_of[c]]
            c = cluster_of[c]
        return c

    labels = list(range(n))
    current = [find(t) for t in labels]
    best_time, _ = estimate_parallel_time(graph, current, machine, bl)

    edges = sorted(graph.edges(), key=lambda e: (-e[2], e[0], e[1]))
    for src, dst, comm in edges:
        a, b = find(src), find(dst)
        if a == b:
            continue
        # Tentatively merge and re-estimate.
        cluster_of[b] = a
        merged = [find(t) for t in range(n)]
        time, _ = estimate_parallel_time(graph, merged, machine, bl)
        if time <= best_time + 1e-12:
            best_time = time
        else:
            cluster_of[b] = b  # revert

    final = [find(t) for t in range(n)]
    # Compact cluster ids and order members by their estimated start times.
    _, start = estimate_parallel_time(graph, final, machine, bl)
    ids: Dict[int, int] = {}
    members: List[List[int]] = []
    compact = [0] * n
    for t in range(n):
        c = final[t]
        if c not in ids:
            ids[c] = len(members)
            members.append([])
        compact[t] = ids[c]
        members[ids[c]].append(t)
    for m in members:
        m.sort(key=lambda t: (start[t], -bl[t], t))
    return Clustering(
        clusters=tuple(tuple(m) for m in members),
        cluster_of=tuple(compact),
        tlevel=tuple(start),
        makespan=best_time,
    )


def sarkar_llb(
    graph: TaskGraph,
    machine: MachineModel,
    priority: str = "largest",
) -> Schedule:
    """Multi-step scheduling: Sarkar clustering + LLB mapping."""
    graph.freeze()
    clustering = sarkar(graph, machine)
    return llb(graph, clustering, machine=machine, priority=priority)
