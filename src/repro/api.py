"""Unified scheduling API: one options object for every entry point.

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

Fields (see each entry point for which ones it consumes):

* ``machine`` / ``algorithm`` — the scheduling request itself; used by
  :func:`schedule_graph`.  ``machine`` is a full
  :class:`~repro.machine.MachineModel` (processor count plus the
  heterogeneous hooks: ``speeds``, ``latency``, ``comm_scale``; see
  ``docs/machine-model.md``).  Batch entry points take the request per
  :class:`~repro.batch.BatchJob`; a batch ``options.machine`` supplies the
  default machine for jobs that carry neither a machine nor ``procs``.
* ``validate`` — re-check every schedule from first principles.
* ``certify`` — run the independent checker (:mod:`repro.verify`).
* ``timeout`` / ``retries`` — per-job execution budget and worker-death
  retries; batch-only (an in-process call cannot be contained).
* ``metrics`` — a :class:`repro.obs.MetricsRegistry` to record into;
  ``None`` (default) disables all instrumentation.
* ``warm_start`` — reuse the clean prefix of a previously computed base
  schedule and replay FLB only over the dirty suffix
  (:mod:`repro.incremental`).  Bit-identical to a cold run, with a silent
  cold fallback (counted under ``incr_fallback_total``) whenever no
  usable base exists.  FLB only; other algorithms ignore the flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.graph.taskgraph import TaskGraph
    from repro.machine.model import MachineModel
    from repro.schedule.schedule import Schedule

__all__ = [
    "SchedulingOptions",
    "schedule_graph",
    "schedule_graph_async",
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


async def schedule_graph_async(
    graph: "TaskGraph",
    options: Optional[SchedulingOptions] = None,
    *,
    machine: Optional["MachineModel"] = None,
    **kwargs: Any,
) -> "Schedule":
    """Async-friendly :func:`schedule_graph`: runs the (CPU-bound,
    GIL-holding-in-bursts) kernel in the default thread executor so an
    asyncio event loop — e.g. the :mod:`repro.serve` front-end — stays
    responsive while a schedule is computed.

    Semantics are exactly :func:`schedule_graph`'s.
    """
    import asyncio
    import functools

    return await asyncio.get_running_loop().run_in_executor(
        None,
        functools.partial(
            schedule_graph, graph, options=options, machine=machine, **kwargs
        ),
    )


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

    ``options.validate`` re-checks the result from first principles;
    ``options.certify`` additionally runs the independent checker
    (:func:`repro.verify.certify`, including the FLB/ETF greedy
    certificate) and raises
    :class:`~repro.exceptions.InvalidScheduleError` on a failed
    certificate.  ``options.metrics`` records a ``sched.kernel`` span with
    the kernel wall time (``timeout``/``retries`` do not apply in-process
    and are ignored).  Extra keywords (``prefer_non_ep_on_tie=...``) pass
    through to the algorithm.

    ``base`` passes an explicit warm-start base schedule;
    ``options.warm_start`` alone consults the process-global
    :func:`repro.incremental.base_cache` instead and stores this run's
    result there for future deltas.  Either way FLB replays the base's
    clean prefix when it can and silently runs cold when it cannot (see
    :mod:`repro.incremental`); other algorithms ignore warm-start
    entirely.
    """
    from repro.exceptions import SchedulerError
    from repro.schedulers import get_scheduler

    opts = options if options is not None else SchedulingOptions()
    eff_machine = machine if machine is not None else opts.machine
    if eff_machine is None:
        raise SchedulerError(
            "schedule_graph needs a machine: pass "
            "SchedulingOptions(machine=MachineModel(P)) or machine="
        )
    metrics = opts.metrics
    if opts.algorithm == "flb":
        from repro.core.flb_array import flb_array

        warm_base = base
        if warm_base is None and opts.warm_start:
            from repro.incremental import base_cache

            warm_base = base_cache().get(graph.fingerprint())

        def _run() -> "Schedule":
            result = flb_array(
                graph, eff_machine, metrics=metrics, base=warm_base, **kwargs
            )
            if opts.warm_start:
                from repro.incremental import base_cache

                base_cache().put(graph.fingerprint(), result)
            return result

    else:
        scheduler = get_scheduler(opts.algorithm)

        def _run() -> "Schedule":
            return scheduler(graph, eff_machine, **kwargs)

    if metrics is not None:
        with metrics.span("sched.kernel", algo=opts.algorithm) as s:
            schedule = _run()
            s.annotate(
                procs=schedule.num_procs,
                tasks=graph.num_tasks,
                makespan=schedule.makespan,
            )
    else:
        schedule = _run()
    if opts.validate and not opts.certify:
        schedule.validate()
    if opts.certify:
        # The certificate subsumes validation: it checks the structural
        # invariants plus the greedy certificate where the algorithm owes one.
        from repro.exceptions import InvalidScheduleError
        from repro.verify import certify as certify_schedule
        from repro.verify import greedy_flavor

        if metrics is not None:
            with metrics.span("verify.certify", algo=opts.algorithm):
                cert = certify_schedule(schedule, flavor=greedy_flavor(opts.algorithm))
        else:
            cert = certify_schedule(schedule, flavor=greedy_flavor(opts.algorithm))
        if not cert.ok:
            detail = "; ".join(f"{v.code} {v.message}" for v in cert.violations[:5])
            raise InvalidScheduleError(f"certification failed: {detail}")
    return schedule
