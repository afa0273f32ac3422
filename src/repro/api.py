"""Unified scheduling API: one options object for every entry point.

The three serving entry points — :func:`repro.schedule_graph` (one graph,
in-process), :func:`repro.batch.schedule_many` (a batch across worker
processes) and :meth:`repro.batch.BatchScheduler.run` (the long-lived
serving front-end) — grew drifting per-function keyword sets (``validate``
here, ``certify`` there, ``timeout``/``retries`` only on the batch side).
:class:`SchedulingOptions` replaces that drift with a single frozen
dataclass accepted by all three::

    from repro import SchedulingOptions, schedule_graph, schedule_many

    opts = SchedulingOptions(machine=MachineModel(8), validate=True)
    schedule = schedule_graph(graph, opts)
    results = schedule_many(jobs, workers=4, options=opts.replace(timeout=5.0))

The legacy keywords keep working through shims that emit a single
:class:`DeprecationWarning` per call and produce **bit-identical**
schedules (enforced by ``tests/test_api_options.py``).  Pool-shape
parameters that are not scheduling semantics (``workers``, ``grace``,
``backoff``, ``share_graphs``, ``cache``, ``store``) stay ordinary
keywords and never warn.

Fields (see each entry point for which ones it consumes):

* ``machine`` / ``algorithm`` — the scheduling request itself; used by
  :func:`schedule_graph`.  ``machine`` is a full
  :class:`~repro.machine.MachineModel` (processor count plus the
  heterogeneous hooks: ``speeds``, ``latency``, ``comm_scale``); the
  legacy ``procs`` field still works as a warn-once shim that resolves
  to the homogeneous default ``MachineModel(procs)`` (mixing both is a
  :class:`TypeError`; see ``docs/machine-model.md``).  Batch entry
  points take the request per :class:`~repro.batch.BatchJob`; a batch
  ``options.machine`` supplies the default machine for jobs that carry
  only an integer ``procs``.
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

import dataclasses
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.graph.taskgraph import TaskGraph
    from repro.machine.model import MachineModel
    from repro.schedule.schedule import Schedule

__all__ = [
    "SchedulingOptions",
    "schedule_graph",
    "schedule_graph_async",
    "UNSET",
    "resolve_options",
    "reset_options_deprecations",
]


class _Unset:
    """Sentinel distinguishing 'not passed' from an explicit default."""

    _instance: Optional["_Unset"] = None

    def __new__(cls) -> "_Unset":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<unset>"

    def __bool__(self) -> bool:
        return False


#: Default value for deprecated keyword shims: any other value means the
#: caller really passed the keyword, which triggers the deprecation path.
UNSET = _Unset()

#: Warn-once latch for the legacy ``procs=`` options field.
_procs_field_warned = False


def reset_options_deprecations() -> None:
    """Re-arm the one-per-process ``procs=`` deprecation warning (tests)."""
    global _procs_field_warned
    _procs_field_warned = False


@dataclass(frozen=True)
class SchedulingOptions:
    """The one scheduling-options record shared by every entry point.

    ``machine`` is the canonical spelling of the scheduling target; the
    legacy ``procs`` integer still works as a warn-once shim resolving to
    the homogeneous ``MachineModel(procs)``.  After construction both
    fields are populated (``procs`` mirrors ``machine.num_procs``), so
    existing readers of ``options.procs`` keep working; passing *both* at
    construction is a :class:`TypeError`, exactly like mixing ``options``
    with legacy keywords at an entry point.
    """

    procs: Optional[int] = None
    algorithm: str = "flb"
    validate: bool = False
    certify: bool = False
    timeout: Optional[float] = None
    retries: int = 2
    metrics: Optional[MetricsRegistry] = None
    warm_start: bool = False
    machine: Optional["MachineModel"] = None

    def __post_init__(self) -> None:
        global _procs_field_warned
        if self.procs is not None and self.machine is not None:
            # Only a caller can hand us both: the mirror backfill below
            # runs after this check, and replace() strips the mirror.
            raise TypeError(
                "SchedulingOptions: pass machine=MachineModel(...) or the "
                "legacy procs=, not both"
            )
        if self.procs is not None:
            if self.procs < 1:
                raise ValueError(f"procs must be >= 1, got {self.procs}")
            if not _procs_field_warned:
                _procs_field_warned = True
                warnings.warn(
                    "SchedulingOptions(procs=...) is deprecated; pass "
                    "machine=MachineModel(procs) instead (see "
                    "docs/machine-model.md). This warning is emitted once "
                    "per process.",
                    DeprecationWarning,
                    stacklevel=3,
                )
            from repro.machine.model import MachineModel

            object.__setattr__(self, "machine", MachineModel(self.procs))
        elif self.machine is not None:
            object.__setattr__(self, "procs", self.machine.num_procs)
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")

    def replace(self, **changes: Any) -> "SchedulingOptions":
        """A copy with ``changes`` applied (frozen dataclasses are immutable).

        ``procs`` is derived state (the mirror of ``machine.num_procs``),
        so unless ``changes`` re-specifies it the copy is rebuilt from
        ``machine`` alone — replacing an unrelated field can never trip
        the procs/machine mixing check and never re-warns.
        """
        base = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        if "procs" in changes and "machine" not in changes:
            base["machine"] = None
        else:
            base["procs"] = None
        base.update(changes)
        return SchedulingOptions(**base)


def resolve_options(
    entry_point: str,
    options: Optional[SchedulingOptions],
    legacy: Dict[str, Any],
    stacklevel: int = 3,
) -> SchedulingOptions:
    """Fold an entry point's deprecated keywords into a ``SchedulingOptions``.

    ``legacy`` maps field name to the received value, with :data:`UNSET`
    standing for "not passed".  Exactly one :class:`DeprecationWarning` is
    emitted per call that used any legacy keyword; mixing ``options`` with
    legacy keywords is a :class:`TypeError` (the ambiguity has no right
    answer).
    """
    supplied = {k: v for k, v in legacy.items() if v is not UNSET}
    supplied_names = sorted(supplied)
    if options is not None:
        if supplied:
            raise TypeError(
                f"{entry_point}: pass either options=SchedulingOptions(...) or "
                f"the legacy keyword(s) {supplied_names}, not both"
            )
        return options
    if supplied.get("procs") is not None:
        # Resolve the legacy integer here so the options constructor's own
        # procs-field shim does not fire a second warning for this call.
        from repro.machine.model import MachineModel

        supplied["machine"] = MachineModel(supplied.pop("procs"))
    opts = SchedulingOptions(**supplied)
    if supplied_names:
        warnings.warn(
            f"{entry_point}: the {supplied_names} keyword(s) are deprecated; "
            f"pass options=SchedulingOptions(...) instead "
            f"(see docs/performance.md, 'Unified scheduling options')",
            DeprecationWarning,
            stacklevel=stacklevel,
        )
    return opts


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

    Semantics are exactly :func:`schedule_graph` with the canonical
    ``options`` spelling; legacy keywords are not accepted here (this
    entry point is newer than the deprecation).
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
    num_procs: Any = None,
    algorithm: Any = UNSET,
    *,
    options: Optional[SchedulingOptions] = None,
    machine: Optional["MachineModel"] = None,
    base: Optional["Schedule"] = None,
    **kwargs: Any,
) -> "Schedule":
    """Schedule ``graph`` in-process with the configured algorithm.

    The canonical form takes a :class:`SchedulingOptions` (keyword or as
    the second positional argument)::

        schedule_graph(graph, SchedulingOptions(machine=MachineModel(8),
                                                algorithm="etf"))
        schedule_graph(graph, options=opts, machine=hetero_machine)

    ``options.machine`` carries the target machine (heterogeneous models
    included); the ``machine=`` keyword, when given, overrides it for this
    call.  The legacy ``options.procs`` integer resolves to the
    homogeneous ``MachineModel(procs)`` and yields a bit-identical
    schedule.

    ``options.validate`` re-checks the result from first principles;
    ``options.certify`` additionally runs the independent checker
    (:func:`repro.verify.certify`, including the FLB/ETF greedy
    certificate) and raises
    :class:`~repro.exceptions.InvalidScheduleError` on a failed
    certificate.  ``options.metrics`` records a ``sched.kernel`` span with
    the kernel wall time (``timeout``/``retries`` do not apply in-process
    and are ignored).  Extra keywords (``observer=...``,
    ``prefer_non_ep_on_tie=...``) pass through to the algorithm.

    The legacy form ``schedule_graph(graph, num_procs, algorithm="flb")``
    keeps working, emits one :class:`DeprecationWarning`, and returns a
    bit-identical schedule.

    ``base`` passes an explicit warm-start base schedule;
    ``options.warm_start`` alone consults the process-global
    :func:`repro.incremental.base_cache` instead and stores this run's
    result there for future deltas.  Either way FLB replays the base's
    clean prefix when it can and silently runs cold when it cannot (see
    :mod:`repro.incremental`); other algorithms and observed FLB runs
    ignore warm-start entirely.
    """
    from repro.schedulers import get_scheduler

    if isinstance(num_procs, SchedulingOptions):
        if options is not None:
            raise TypeError("schedule_graph: options passed twice")
        options = num_procs
        num_procs = None
    opts = resolve_options(
        "schedule_graph",
        options,
        {
            "procs": num_procs if num_procs is not None else UNSET,
            "algorithm": algorithm,
        },
    )
    # The machine= keyword wins over options.machine for this call; the
    # options mirror guarantees opts.machine is set whenever opts.procs is.
    eff_machine = machine if machine is not None else opts.machine
    metrics = opts.metrics
    if opts.algorithm == "flb" and "observer" not in kwargs:
        # Observers need the observed FLB path (via the registry); every
        # other FLB request runs the array kernel directly.
        from repro.core.flb_array import flb_array

        warm_base = base
        if warm_base is None and opts.warm_start:
            from repro.incremental import base_cache

            warm_base = base_cache().get(graph.fingerprint())

        def _run() -> "Schedule":
            result = flb_array(
                graph,
                opts.procs,
                machine=eff_machine,
                metrics=metrics,
                base=warm_base,
                **kwargs,
            )
            if opts.warm_start:
                from repro.incremental import base_cache

                base_cache().put(graph.fingerprint(), result)
            return result

    else:
        scheduler = get_scheduler(opts.algorithm)

        def _run() -> "Schedule":
            return scheduler(graph, opts.procs, machine=eff_machine, **kwargs)

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
