"""Batch dispatch payload and throughput: inline pickle vs the graph plane.

Two questions about one repeated-graph sweep of :data:`SWEEP`:

* **bytes/job** — how many bytes cross the supervisor->worker pipe per job
  when the graph rides inline in every ``BatchJob``, vs when jobs carry a
  short segment key and the graph crosses once through shared memory
  (segment bytes amortised over the sweep).
* **jobs/s** — end-to-end ``schedule_many`` throughput for the inline
  path, the keyed path, and the keyed path fronted by the
  content-addressed result cache (every pass after the first is hits).

The ``batch_payload`` registry entry records both;
``benchmarks/bench_batch_payload.py`` times the same sweep.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import replace
from typing import Callable, Dict, List, Tuple

from repro.batch import BatchJob, BatchScheduler, schedule_many
from repro.graph.taskgraph import TaskGraph
from repro.graphstore import GraphStore
from repro.machine.model import MachineModel

__all__ = ["PASSES", "SWEEP", "payload_bytes", "sweep_jobs", "throughput"]

SWEEP: List[Tuple[int, str]] = [
    (p, a) for p in (2, 3, 4, 6, 8, 12, 16, 24, 32, 48) for a in ("flb", "fcp")
]

#: Passes over the sweep per throughput sample.
PASSES = 3


def sweep_jobs(graph: TaskGraph) -> List[BatchJob]:
    machines = {p: MachineModel(p) for p, _a in SWEEP}
    return [
        BatchJob(graph=graph, machine=machines[p], algo=a, tag=f"{p}/{a}")
        for p, a in SWEEP
    ]


def payload_bytes(graph: TaskGraph) -> Tuple[float, float, int]:
    """(inline bytes/job, keyed bytes/job incl. amortised segment, segment bytes)."""
    jobs = sweep_jobs(graph)
    inline = sum(len(pickle.dumps((job, False))) for job in jobs) / len(jobs)
    with GraphStore() as store:
        key = store.register(graph)
        keyed_wire = sum(
            len(pickle.dumps((replace(job, graph=None, graph_key=key), False)))
            for job in jobs
        ) / len(jobs)
        segment = store.total_bytes()
    return inline, keyed_wire + segment / len(jobs), segment


def _best(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def throughput(
    graph: TaskGraph, workers: int = 2, passes: int = PASSES, repeats: int = 2
) -> Dict[str, float]:
    """jobs/s for inline, keyed, and keyed+cache serving of the sweep."""
    jobs = sweep_jobs(graph)
    n = passes * len(jobs)

    def inline() -> None:
        for _ in range(passes):
            schedule_many(jobs, workers=workers, share_graphs=False)

    def keyed() -> None:
        for _ in range(passes):
            schedule_many(jobs, workers=workers, share_graphs=True)

    def cached() -> None:
        with BatchScheduler(workers=workers) as bs:
            for _ in range(passes):
                bs.run(jobs)

    return {
        "inline": n / _best(inline, repeats),
        "keyed": n / _best(keyed, repeats),
        "keyed+cache": n / _best(cached, repeats),
    }
