"""Unified scheduling API: one options object and one job body for every
entry point.

The three serving entry points — :func:`repro.schedule_graph` (one graph,
in-process), :func:`repro.batch.schedule_many` (a batch across worker
processes) and :meth:`repro.batch.BatchScheduler.run` (the long-lived
serving front-end) — take their scheduling semantics from a single frozen
dataclass, :class:`SchedulingOptions`::

    import dataclasses

    from repro import MachineModel, SchedulingOptions, schedule_graph, schedule_many

    opts = SchedulingOptions(machine=MachineModel(8), validate=True)
    schedule = schedule_graph(graph, opts)
    results = schedule_many(
        jobs, workers=4, options=dataclasses.replace(opts, timeout=5.0)
    )

Pool-shape parameters that are not scheduling semantics (``workers``,
``grace``, ``backoff``, ``share_graphs``, ``cache``, ``store``) stay
ordinary keywords of the batch entry points.

Every entry point computes and checks a schedule through the same two
steps, in order: :func:`compute_schedule` (the kernel, with the warm-start
base cache) and :func:`check_schedule` (a non-finite makespan is refused,
then the independent checker runs).  ``schedule_graph``, the batch worker,
:func:`repro.bench.runner.run_sweep` (through ``schedule_many``) and
``repro-sched schedule`` all call them, so they cannot disagree on what
they return or refuse.

Fields (see each entry point for which ones it consumes):

* ``machine`` / ``algorithm`` — the scheduling request itself; used by
  :func:`schedule_graph`.  ``machine`` is a full
  :class:`~repro.machine.MachineModel` (processor count plus the
  heterogeneous hooks: ``speeds``, ``latency``, ``comm_scale``; see
  ``docs/machine-model.md``).  Batch entry points take the request per
  :class:`~repro.batch.BatchJob`; a batch ``options.machine`` supplies the
  default machine for jobs that carry none.
* ``validate`` — re-check every schedule's structural invariants with the
  independent checker.
* ``certify`` — run the independent checker (:mod:`repro.verify`) with the
  greedy certificate the algorithm owes.  It subsumes ``validate`` on
  every entry point: with both set, the structural pass runs once.
* ``timeout`` / ``retries`` — per-job execution budget and worker-death
  retries; batch-only (an in-process call cannot be contained).
* ``metrics`` — a :class:`repro.obs.MetricsRegistry` to record into;
  ``None`` (default) disables all instrumentation.
* ``warm_start`` — reuse the clean prefix of a previously computed base
  schedule and replay FLB only over the dirty suffix
  (:mod:`repro.incremental`).  Bit-identical to a cold run, with a silent
  cold fallback (counted under ``incr_fallback_total``) whenever no
  usable base exists.  FLB only; other algorithms ignore the flag.

The calls are synchronous; an asyncio caller runs one in a thread
(``asyncio.to_thread``), as the :mod:`repro.serve` front-end does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.exceptions import InvalidScheduleError, SchedulerError
from repro.obs.metrics import MetricsRegistry, span

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.graph.taskgraph import TaskGraph
    from repro.machine.model import MachineModel
    from repro.schedule.schedule import Schedule

__all__ = [
    "SchedulingOptions",
    "schedule_graph",
    "compute_schedule",
    "check_schedule",
]


@dataclass(frozen=True)
class SchedulingOptions:
    """The one scheduling-options record shared by every entry point.

    Frozen: derive a variant with :func:`dataclasses.replace`.
    """

    algorithm: str = "flb"
    validate: bool = False
    certify: bool = False
    timeout: Optional[float] = None
    retries: int = 2
    metrics: Optional[MetricsRegistry] = None
    warm_start: bool = False
    machine: Optional["MachineModel"] = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")


def compute_schedule(
    graph: "TaskGraph",
    machine: "MachineModel",
    algorithm: str,
    *,
    warm_start: bool = False,
    base: Optional["Schedule"] = None,
    base_key: Optional[str] = None,
    warm_stats: Optional[Dict[str, object]] = None,
    metrics: Optional[MetricsRegistry] = None,
    **kwargs: Any,
) -> "Schedule":
    """The kernel step: ``algorithm``'s schedule of ``graph`` on ``machine``.

    FLB runs through :func:`~repro.core.flb_array.flb_array`, which replays
    ``base`` when it can (filling ``warm_stats``) and records its kernel
    counters into ``metrics``.  With ``warm_start``, a missing ``base`` is
    read from :func:`repro.incremental.base_cache` under ``base_key``
    (``None``: the newest base), and the result is stored there under the
    graph's fingerprint.  Every other algorithm comes from
    :func:`repro.schedulers.get_scheduler` and ignores the warm-start and
    metrics arguments.  Both are looked up at call time, so a wrapper
    installed on either module is the one that runs.  Extra keywords pass
    through to the algorithm.
    """
    if algorithm != "flb":
        from repro.schedulers import get_scheduler

        return get_scheduler(algorithm)(graph, machine, **kwargs)
    from repro.core.flb_array import flb_array

    cache = None
    if warm_start:
        from repro.incremental import base_cache

        cache = base_cache()
        if base is None:
            base = cache.get(base_key)
    schedule = flb_array(
        graph, machine, metrics=metrics, base=base, warm_stats=warm_stats, **kwargs
    )
    if cache is not None:
        cache.put(graph.fingerprint(), schedule)
    return schedule


def check_schedule(
    schedule: "Schedule",
    algorithm: str,
    *,
    validate: bool = False,
    certify: bool = False,
) -> None:
    """The check step: raise :class:`~repro.exceptions.InvalidScheduleError`
    for a schedule no entry point may return.

    A non-finite makespan is always refused: finite weights can still
    overflow (comps near 1e308).  ``validate`` checks the structural
    invariants with :func:`repro.verify.certify`; ``certify`` adds the
    greedy certificate ``algorithm`` owes (:func:`repro.verify.greedy_flavor`),
    so it subsumes ``validate`` and the structural pass runs once either
    way.  A failure names its first five violations.
    """
    if not math.isfinite(schedule.makespan):
        raise InvalidScheduleError(f"makespan {schedule.makespan} is not finite")
    if validate or certify:
        from repro.verify.certify import certify as certify_schedule
        from repro.verify.certify import greedy_flavor

        flavor = greedy_flavor(algorithm) if certify else None
        certify_schedule(schedule, flavor=flavor).raise_if_invalid()


def schedule_graph(
    graph: "TaskGraph",
    options: Optional[SchedulingOptions] = None,
    *,
    machine: Optional["MachineModel"] = None,
    base: Optional["Schedule"] = None,
    **kwargs: Any,
) -> "Schedule":
    """Schedule ``graph`` in-process with the configured algorithm::

        schedule_graph(graph, SchedulingOptions(machine=MachineModel(8),
                                                algorithm="etf"))
        schedule_graph(graph, opts, machine=hetero_machine)

    ``options.machine`` carries the target machine (heterogeneous models
    included); the ``machine=`` keyword, when given, overrides it for this
    call.  With neither, the call raises
    :class:`~repro.exceptions.SchedulerError`.

    The schedule comes from :func:`compute_schedule` and passes
    :func:`check_schedule` before it is returned: a non-finite makespan,
    and with ``options.validate`` or ``options.certify`` a failed check or
    certificate, raises :class:`~repro.exceptions.InvalidScheduleError`.
    ``options.metrics`` records a ``sched.kernel`` span with the kernel
    wall time, the FLB kernel counters and, with ``certify``, a
    ``verify.certify`` span (``timeout``/``retries`` do not apply
    in-process and are ignored).  Extra keywords
    (``prefer_non_ep_on_tie=...``) pass through to the algorithm.

    ``base`` passes an explicit warm-start base schedule;
    ``options.warm_start`` alone consults the process-global
    :func:`repro.incremental.base_cache` under the graph's fingerprint
    instead and stores this run's result there for future deltas.  Either
    way FLB replays the base's clean prefix when it can and silently runs
    cold when it cannot (see :mod:`repro.incremental`); other algorithms
    ignore warm-start entirely.
    """
    opts = options if options is not None else SchedulingOptions()
    eff_machine = machine if machine is not None else opts.machine
    if eff_machine is None:
        raise SchedulerError(
            "schedule_graph needs a machine: pass "
            "SchedulingOptions(machine=MachineModel(P)) or machine="
        )
    metrics = opts.metrics
    with span("sched.kernel", metrics, algo=opts.algorithm) as s:
        schedule = compute_schedule(
            graph, eff_machine, opts.algorithm, warm_start=opts.warm_start,
            base=base, base_key=graph.fingerprint() if opts.warm_start else None,
            metrics=metrics, **kwargs,
        )
        s.annotate(
            procs=schedule.num_procs,
            tasks=graph.num_tasks,
            makespan=schedule.makespan,
        )
    with span("verify.certify", metrics if opts.certify else None,
              algo=opts.algorithm):
        check_schedule(
            schedule, opts.algorithm, validate=opts.validate, certify=opts.certify
        )
    return schedule
