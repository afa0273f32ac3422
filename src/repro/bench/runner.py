"""Sweep runner: algorithms x instances x processor counts.

Produces flat :class:`RunRecord` rows that the experiment reproductions
(:mod:`repro.bench.experiments`) aggregate into the paper's figures and
tables.  Timing uses :func:`repro.metrics.time_scheduler` (median of
repeats, warm cache), quality comes straight from the schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.bench.suite import Instance
from repro.machine.model import MachineModel
from repro.metrics.metrics import speedup, time_scheduler
from repro.resultcache import ResultCache
from repro.schedulers import SCHEDULERS

__all__ = ["RunRecord", "run_sweep", "group_mean"]

R = TypeVar("R")


@dataclass(frozen=True)
class RunRecord:
    """One (instance, algorithm, P) measurement."""

    problem: str
    ccr: float
    seed_index: int
    algorithm: str
    procs: int
    makespan: float
    speedup: float
    seconds: Optional[float]  # None when timing was not requested


def run_sweep(
    instances: Iterable[Instance],
    algorithms: Sequence[str],
    procs_list: Sequence[int],
    measure_time: bool = False,
    time_repeats: int = 3,
    validate: bool = False,
    workers: int = 1,
    timeout: Optional[float] = None,
    result_cache: Optional["ResultCache"] = None,
) -> List[RunRecord]:
    """Run every algorithm on every instance at every processor count.

    With ``workers > 1`` the (instance, algorithm, P) jobs fan out across
    supervised worker processes via :func:`repro.batch.schedule_many` —
    except when ``measure_time`` is set: timing must stay serial in this
    process, or the measurements would contend for cores and each other's
    caches.  ``timeout`` is a per-job execution budget (seconds, measured
    from execution start); a hung scheduler is killed rather than stalling
    the sweep.  A job failure (any ``BatchResult.error``) raises with the
    failure's ``error_kind``, matching the serial path where scheduler
    exceptions propagate.  ``timeout`` is ignored on the serial path.

    ``result_cache`` (a :class:`repro.resultcache.ResultCache`) is consulted
    on the parallel path before any job is dispatched: sweeps over
    overlapping (graph, algorithm, P) grids — re-runs, refinement passes —
    answer repeated cells in O(1) from the cache, with bit-identical
    quality numbers (schedulers are deterministic).  Inspect the cache's
    ``hits``/``misses``/``evictions`` counters (or ``.stats()``) afterwards
    for the serving accounting.
    """
    unknown = [a for a in algorithms if a not in SCHEDULERS]
    if unknown:
        raise ValueError(f"unknown algorithms: {unknown}")
    instances = list(instances)

    if workers > 1 and not measure_time:
        from repro.api import SchedulingOptions
        from repro.batch import BatchJob, schedule_many

        machines = [MachineModel(procs) for procs in procs_list]
        jobs = []
        meta = []
        for inst in instances:
            for machine in machines:
                for algo in algorithms:
                    jobs.append(
                        BatchJob(graph=inst.graph, machine=machine, algo=algo,
                                 tag=inst.problem)
                    )
                    meta.append(inst)
        results = schedule_many(
            jobs, workers=workers,
            options=SchedulingOptions(timeout=timeout, validate=validate),
            cache=result_cache,
        )
        records = []
        for inst, res in zip(meta, results):
            if not res.ok:
                raise RuntimeError(
                    f"{res.algo} on {inst.problem} (P={res.procs}) failed "
                    f"({res.error_kind}):\n{res.error}"
                )
            records.append(
                RunRecord(
                    problem=inst.problem,
                    ccr=inst.ccr,
                    seed_index=inst.seed_index,
                    algorithm=res.algo,
                    procs=res.procs,
                    makespan=res.makespan,
                    speedup=res.speedup,
                    seconds=None,
                )
            )
        return records

    records: List[RunRecord] = []
    for inst in instances:
        for procs in procs_list:
            machine = MachineModel(procs)
            for algo in algorithms:
                scheduler = SCHEDULERS[algo]
                schedule = scheduler(inst.graph, machine=machine)
                if validate:
                    schedule.validate()
                seconds = (
                    time_scheduler(scheduler, inst.graph, machine=machine,
                                   repeats=time_repeats)
                    if measure_time
                    else None
                )
                records.append(
                    RunRecord(
                        problem=inst.problem,
                        ccr=inst.ccr,
                        seed_index=inst.seed_index,
                        algorithm=algo,
                        procs=procs,
                        makespan=schedule.makespan,
                        speedup=speedup(schedule),
                        seconds=seconds,
                    )
                )
    return records


def group_mean(
    records: Iterable[R],
    key: Callable[[R], Tuple[object, ...]],
    value: Callable[[R], float],
) -> Dict[Tuple[object, ...], float]:
    """Group records by ``key`` and average ``value`` within each group."""
    sums: Dict[Tuple[object, ...], float] = {}
    counts: Dict[Tuple[object, ...], int] = {}
    for rec in records:
        k = key(rec)
        sums[k] = sums.get(k, 0.0) + value(rec)
        counts[k] = counts.get(k, 0) + 1
    return {k: sums[k] / counts[k] for k in sums}
