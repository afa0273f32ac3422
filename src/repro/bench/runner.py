"""Sweep runner: algorithms x instances x processor counts.

Produces flat :class:`RunRecord` rows that the experiment reproductions
(:mod:`repro.bench.experiments`) aggregate into the paper's figures and
tables.  Timing uses :func:`repro.metrics.time_scheduler` (median of
repeats, warm cache), quality comes straight from the schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.api import SchedulingOptions
from repro.bench.suite import Instance
from repro.machine.model import MachineModel
from repro.metrics.metrics import time_scheduler
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
    validate: bool = False,
    workers: int = 1,
) -> List[RunRecord]:
    """Run every algorithm on every instance at every processor count.

    The (instance, algorithm, P) jobs go through
    :func:`repro.batch.schedule_many`, across ``workers`` supervised
    processes — except when ``measure_time`` is set: timing must stay
    serial in this process, or the measurements would contend for cores
    and each other's caches, so the jobs run inline and each cell is then
    timed with :func:`repro.metrics.time_scheduler`.  A job failure (any
    ``BatchResult.error``) raises with the failure's ``error_kind``.
    """
    # The batch plane loads on first use, not with the CLI.
    from repro.batch import BatchJob, schedule_many

    unknown = [a for a in algorithms if a not in SCHEDULERS]
    if unknown:
        raise ValueError(f"unknown algorithms: {unknown}")
    machines = [MachineModel(procs) for procs in procs_list]
    cells = [
        (inst, BatchJob(graph=inst.graph, machine=machine, algo=algo, tag=inst.problem))
        for inst in instances for machine in machines for algo in algorithms
    ]
    results = schedule_many(
        [job for _inst, job in cells], workers=1 if measure_time else workers,
        options=SchedulingOptions(validate=validate),
    )
    records: List[RunRecord] = []
    for (inst, job), res in zip(cells, results):
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
                seconds=(
                    time_scheduler(SCHEDULERS[job.algo], inst.graph, job.machine)
                    if measure_time else None
                ),
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
