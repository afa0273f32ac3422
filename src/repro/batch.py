"""Parallel batch scheduling: fan many (graph, machine, algo) jobs across
supervised worker processes.

The north-star for this reproduction is serving scheduling requests at
scale: one request is a task graph plus a machine size plus an algorithm
choice, and the answer is a schedule summary.  :func:`schedule_many` is that
front-end — it fans a list of :class:`BatchJob` across supervised worker
processes (:mod:`repro.workerpool`; scheduling is pure CPU-bound Python, so
processes, not threads) with per-job error capture: one malformed graph or
crashed worker produces a :class:`BatchResult` with ``error`` set instead of
poisoning the whole batch.

The failure contract is the point (and what a plain
``ProcessPoolExecutor`` cannot deliver):

* **deadlines hold** — a job that exceeds ``timeout`` has its worker killed
  and its slot replaced, so a scheduler hung in an infinite loop delays the
  batch by at most ``timeout + grace``, never forever;
* **timeouts measure execution, not queueing** — the budget clock starts
  when the worker begins the job, so jobs queued behind a slow one are
  never falsely expired; :attr:`BatchResult.queue_seconds` and
  :attr:`BatchResult.seconds` report the two phases separately;
* **worker deaths are retried** — a job whose worker is OOM-killed or
  segfaults is re-run up to ``retries`` times with exponential backoff
  before being reported as ``worker-died``;
* **failures are typed** — :attr:`BatchResult.error_kind` is one of
  :data:`ERROR_KINDS` (``timeout`` / ``worker-died`` / ``scheduler-error``
  / ``invalid-schedule``), so callers branch on the kind instead of
  parsing tracebacks.

Results deliberately carry scalar summaries (makespan, speedup, processors
used, timing) rather than full :class:`~repro.schedule.Schedule` objects:
a schedule is ``O(V)`` to pickle and batches are large; callers that need
placements re-run the single job in-process — schedulers are deterministic,
so the re-run reproduces the batch answer exactly.

Graphs themselves do not ride the pipe either, when they can avoid it: the
**graph plane** (:mod:`repro.graphstore`) registers each distinct graph
once into POSIX shared memory, keyed by its content fingerprint, and jobs
carry the small segment key instead of an ``O(V + E)`` pickle.  One-shot
graphs below :data:`INLINE_ONESHOT_MAX` tasks+edges still travel inline
(a tiny pickle beats a segment round-trip).  On top of that, an optional
content-addressed :class:`~repro.resultcache.ResultCache` answers repeated
``(graph, machine, algo)`` requests in ``O(1)`` without dispatching a worker
at all — schedulers are deterministic, so cache hits are exact.
:class:`BatchScheduler` bundles both into a long-lived serving front-end.

``repro-sched batch`` exposes this on the command line, and
:func:`repro.bench.runner.run_sweep` uses it to parallelize the quality
figures (Figs. 3/4) when asked for ``workers > 1``.
"""

from __future__ import annotations

import math
import os
import time
import traceback
from dataclasses import dataclass, replace
from typing import (
    Any, Dict, Iterable, List, Optional, Sequence, Tuple, cast,
)

from repro.api import SchedulingOptions
from repro.exceptions import SchedulerError
from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.obs.instruments import record_warm_start
from repro.obs.metrics import MetricsRegistry
from repro.resultcache import DEFAULT_CACHE_SIZE, CacheKey, ResultCache
from repro.resultcache import make_key as make_cache_key
from repro import graphstore, workerpool

__all__ = [
    "BatchJob",
    "BatchResult",
    "BatchScheduler",
    "schedule_many",
    "batch_throughput",
    "batch_stats",
    "ERROR_KINDS",
    "TIMEOUT",
    "WORKER_DIED",
    "SCHEDULER_ERROR",
    "INVALID_SCHEDULE",
    "INLINE_ONESHOT_MAX",
]

#: One-shot graphs with fewer than this many tasks+edges are pickled inline
#: instead of going through shared memory: for tiny graphs the pickle is a
#: few KiB and a segment create/attach round-trip costs more than it saves.
#: Any graph referenced by two or more jobs in a batch is always shared.
INLINE_ONESHOT_MAX = 512

# The batch error taxonomy (BatchResult.error_kind for failed jobs):
TIMEOUT = "timeout"                    # exceeded the per-job execution budget
WORKER_DIED = "worker-died"            # worker killed/crashed; retries exhausted
SCHEDULER_ERROR = "scheduler-error"    # the scheduling algorithm raised
INVALID_SCHEDULE = "invalid-schedule"  # schedule failed validation / degenerate
ERROR_KINDS = (TIMEOUT, WORKER_DIED, SCHEDULER_ERROR, INVALID_SCHEDULE)


@dataclass(frozen=True)
class BatchJob:
    """One scheduling request.

    ``tag`` is an opaque caller identifier echoed into the result (problem
    name, request id, ...).  ``machine`` is the target
    :class:`~repro.machine.MachineModel` (heterogeneous models included).
    A job without one inherits the batch default
    (``SchedulingOptions.machine``) at dispatch time; with no default
    either, it fails as a ``scheduler-error``.  Jobs that share one
    ``MachineModel`` instance share its memoized fingerprint.

    ``graph_key`` is the graph-plane alternative to ``graph``: the name of
    a shared-memory segment registered via :class:`repro.graphstore.GraphStore`
    (typically :meth:`BatchScheduler.register`).  Submit either a ``graph``
    (the dispatcher decides whether to share it) or ``graph=None`` plus a
    ``graph_key`` for a pre-registered graph; workers resolve keys through
    their per-process decoded-graph LRU.

    ``base_fingerprint`` names the preferred warm-start base for a delta
    request: when the batch runs with warm-start enabled
    (``SchedulingOptions.warm_start``), the FLB array path looks this
    fingerprint up in the process-global
    :func:`repro.incremental.base_cache` and replays only the dirty
    suffix of the graph against that base's schedule.  ``None`` falls
    back to the most recently stored base; a miss or an unusable base
    runs cold — the answer is bit-identical either way.
    """

    graph: Optional[TaskGraph]
    algo: str = "flb"
    tag: str = ""
    machine: Optional[MachineModel] = None
    graph_key: Optional[str] = None
    base_fingerprint: Optional[str] = None


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one :class:`BatchJob`; ``error`` is ``None`` on success.

    ``seconds`` is execution time only; ``queue_seconds`` is the wait
    between submission and execution start (always 0 when running inline).
    ``error_kind`` is one of :data:`ERROR_KINDS` whenever ``error`` is set.
    ``attempts`` counts runs including the final one (> 1 only after
    worker-death retries).  ``cached`` marks a result-cache hit: no worker
    ran, ``seconds``/``queue_seconds`` are 0, and the summary numbers are
    bit-identical to the original computation (schedulers are
    deterministic).  ``certified`` marks a schedule that passed the
    independent checker (:func:`repro.verify.certify`), including the
    FLB/ETF greedy certificate where the algorithm owes one; it is only
    ever ``True`` when the batch ran with ``certify=True``.  ``phases`` is
    the worker-measured phase breakdown in seconds (``attach`` /
    ``schedule`` / ``certify``), populated only when the batch ran with
    metrics enabled; the observability plane adds ``queue`` and the
    dispatch/reply residual (``other``) supervisor-side (see
    docs/observability.md).  ``warm`` is
    the warm-start outcome when the batch ran with warm-start enabled and
    a base schedule was available: either the replay accounting
    (``reused`` / ``replayed`` / ``total`` / ``dirty`` / ``fraction``) or
    ``{"fallback": reason}`` when the base could not be reused; ``None``
    when warm-start was off or no base existed yet.
    """

    tag: str
    algo: str
    procs: int
    num_tasks: int
    makespan: float
    speedup: float
    procs_used: int
    seconds: float
    error: Optional[str] = None
    error_kind: Optional[str] = None
    queue_seconds: float = 0.0
    attempts: int = 1
    cached: bool = False
    certified: bool = False
    phases: Optional[Dict[str, float]] = None
    warm: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _failed_result(
    job: BatchJob,
    seconds: float,
    error: str,
    error_kind: str,
    queue_seconds: float = 0.0,
    attempts: int = 1,
    phases: Optional[Dict[str, float]] = None,
) -> BatchResult:
    return BatchResult(
        tag=job.tag,
        algo=job.algo,
        procs=job.machine.num_procs if job.machine is not None else 0,
        num_tasks=job.graph.num_tasks if job.graph is not None else 0,
        makespan=float("nan"),
        speedup=float("nan"),
        procs_used=0,
        seconds=seconds,
        error=error,
        error_kind=error_kind,
        queue_seconds=queue_seconds,
        attempts=attempts,
        phases=phases,
    )


def _cached_answer(stored: BatchResult, tag: str) -> BatchResult:
    """A stored result answering another request: ``tag`` echoed, no time
    spent (``seconds``/``queue_seconds`` 0.0, one attempt), ``cached``.

    ``warm`` is dropped: the replica did not replay anything itself, so it
    must not re-count the original's warm-start accounting.
    """
    return replace(
        stored, tag=tag, seconds=0.0, queue_seconds=0.0, attempts=1,
        cached=True, warm=None,
    )


def _run_job(
    job: BatchJob,
    validate: bool,
    certify: bool = False,
    measure: bool = False,
    warm_start: bool = False,
    machine: Optional[MachineModel] = None,
) -> BatchResult:
    """Worker body: schedule one job, mapping any failure to ``error``.

    ``machine`` is the batch-level default model; the job's own
    ``machine`` wins over it.

    Top-level so worker processes can import it; exceptions are rendered to
    strings here because traceback objects do not cross process boundaries.
    A raising scheduler is a ``scheduler-error``; a schedule whose makespan
    is not finite, or that fails validation or certification (or is too
    degenerate to summarize), is ``invalid-schedule``.  With ``measure``
    (metrics enabled), per-phase durations are captured into
    :attr:`BatchResult.phases` — two extra clock reads per phase, nothing
    more.

    With ``warm_start``, FLB jobs consult the process-global
    :func:`repro.incremental.base_cache` (preferring
    ``job.base_fingerprint``) for a base schedule to replay, and publish
    their own result there afterwards.  On the pool path each worker
    process keeps its own base cache, warming up as it serves; the inline
    path (single jobs, the serving front-end) shares the supervisor's.
    """
    from repro.metrics.metrics import speedup as speedup_of
    from repro.schedulers import get_scheduler

    phases: Optional[Dict[str, float]] = {} if measure else None
    t0 = time.perf_counter()
    try:
        if job.graph is None and job.graph_key is not None:
            # Graph-plane dispatch: resolve the key through this process's
            # decoded-graph LRU (decodes from shared memory at most once
            # per worker per graph).
            job = replace(job, graph=graphstore.attach(job.graph_key))
            if phases is not None:
                phases["attach"] = time.perf_counter() - t0
        eff_machine = job.machine if job.machine is not None else machine
        if eff_machine is None:
            raise SchedulerError(
                "job has no machine: set BatchJob.machine, or "
                "SchedulingOptions(machine=...) for the batch"
            )
        t_sched = time.perf_counter()
        warm: Optional[Dict[str, Any]] = None
        if job.algo == "flb":
            from repro.core.flb_array import flb_array

            base = None
            if warm_start:
                from repro.incremental import base_cache

                base = base_cache().get(job.base_fingerprint)
                warm = {}
            schedule = flb_array(
                job.graph, eff_machine, base=base, warm_stats=warm,
            )
            if warm_start:
                from repro.incremental import base_cache

                base_cache().put(job.graph.fingerprint(), schedule)
        else:
            scheduler = get_scheduler(job.algo)
            schedule = scheduler(job.graph, machine=eff_machine)
        if phases is not None:
            phases["schedule"] = time.perf_counter() - t_sched
    except Exception:
        return _failed_result(
            job, time.perf_counter() - t0, traceback.format_exc(limit=8),
            SCHEDULER_ERROR, phases=phases,
        )
    try:
        if not math.isfinite(schedule.makespan):
            # Finite weights can still overflow (comps near 1e308): such a
            # schedule is refused whatever validate and certify would say,
            # so no reply carries an infinite makespan and no cache holds one.
            return _failed_result(
                job, time.perf_counter() - t0,
                f"makespan {schedule.makespan} is not finite", INVALID_SCHEDULE,
                phases=phases,
            )
        if validate:
            schedule.validate()
        certified = False
        if certify:
            from repro.verify.certify import certify as certify_schedule
            from repro.verify.certify import greedy_flavor

            t_cert = time.perf_counter()
            cert = certify_schedule(schedule, flavor=greedy_flavor(job.algo))
            if phases is not None:
                phases["certify"] = time.perf_counter() - t_cert
            if not cert.ok:
                detail = "; ".join(
                    f"{v.code} {v.message}" for v in cert.violations[:5]
                )
                more = (
                    f" (+{len(cert.violations) - 5} more)"
                    if len(cert.violations) > 5 else ""
                )
                return _failed_result(
                    job, time.perf_counter() - t0,
                    f"certification failed: {detail}{more}",
                    INVALID_SCHEDULE, phases=phases,
                )
            certified = True
        return BatchResult(
            tag=job.tag,
            algo=job.algo,
            procs=schedule.num_procs,
            num_tasks=job.graph.num_tasks,
            makespan=schedule.makespan,
            speedup=speedup_of(schedule),
            procs_used=schedule.num_procs_used(),
            seconds=time.perf_counter() - t0,
            error=None,
            certified=certified,
            phases=phases,
            warm=warm or None,
        )
    except Exception:
        return _failed_result(
            job, time.perf_counter() - t0, traceback.format_exc(limit=8),
            INVALID_SCHEDULE, phases=phases,
        )


def _run_packed(
    packed: Tuple[BatchJob, bool, bool, bool, bool, Optional[MachineModel]]
) -> BatchResult:
    """Module-level runner for the worker pool (must be picklable)."""
    return _run_job(*packed)


def _cache_key(
    job: BatchJob,
    validate: bool,
    certify: bool,
    fingerprints: Dict[int, str],
    store: Optional["graphstore.GraphStore"],
    machine: Optional[MachineModel] = None,
) -> Optional[CacheKey]:
    """Result-cache key for a job, or ``None`` when the job is uncacheable.

    The effective machine (the job's own, else the batch default
    ``machine``) is folded into the key via its
    :meth:`~repro.machine.MachineModel.fingerprint`, so two machines with
    equal ``num_procs`` but different speeds/latency/scale can never share
    an entry, while equal models do.  ``fingerprints`` memoises per graph
    object so a batch of N jobs over one graph hashes it once.
    ``certify`` is part of the key: a certified result answers strictly
    more than an uncertified one, and the cache never serves the weaker
    answer for the stronger request.
    """
    eff_machine = job.machine if job.machine is not None else machine
    if eff_machine is None:
        # Un-servable request: let dispatch surface the error uncached.
        return None
    if job.graph is not None:
        fp = fingerprints.get(id(job.graph))
        if fp is None:
            fp = job.graph.fingerprint()
            fingerprints[id(job.graph)] = fp
    elif job.graph_key is not None and store is not None:
        fp = store.fingerprint_of(job.graph_key)
        if fp is None:
            return None
    else:
        return None
    return make_cache_key(fp, eff_machine, job.algo, validate, certify)


def schedule_many(
    jobs: Iterable[BatchJob],
    workers: Optional[int] = None,
    *,
    options: Optional[SchedulingOptions] = None,
    grace: float = 1.0,
    backoff: float = 0.1,
    share_graphs: Optional[bool] = None,
    cache: Optional[ResultCache] = None,
    store: Optional["graphstore.GraphStore"] = None,
    stats_out: Optional[Dict[str, int]] = None,
) -> List[BatchResult]:
    """Schedule every job, in parallel when ``workers > 1``.

    Parameters
    ----------
    jobs:
        The scheduling requests; results come back in the same order.
    workers:
        Worker process count; ``None`` means ``os.cpu_count()``.  With one
        worker (or one job) everything runs inline in this process.
    options:
        A :class:`repro.api.SchedulingOptions` carrying the scheduling
        semantics; the batch reads these fields:

        * ``timeout`` — per-job execution budget in seconds, measured from
          the moment a worker starts the job (queue wait never counts).
          An overrunning job's worker is **killed** and the pool slot
          replaced, so a hung scheduler delays the batch by at most
          ``timeout + grace``; the job gets a ``timeout``
          :class:`BatchResult` and every other job still completes.
          Ignored when running inline (a hung job would hang the caller's
          own process either way — use ``workers >= 2`` for containment).
        * ``validate`` — re-check every produced schedule from first
          principles (:meth:`~repro.schedule.Schedule.validate`) inside
          the worker; a violation is reported as ``invalid-schedule``.
        * ``certify`` — run the full independent checker
          (:func:`repro.verify.certify`) on every produced schedule inside
          the worker, including the FLB/ETF greedy certificate where the
          algorithm owes one.  A failed certificate is reported as
          ``invalid-schedule`` with the violation codes in ``error``;
          passing results carry ``certified=True``.  The result cache
          refuses to store uncertified entries when this is on (and
          ``certify`` is part of the cache key, so certified and
          uncertified answers never mix).
        * ``retries`` — how many times a job whose worker *died*
          (OOM-kill, segfault) is re-run before reporting
          ``worker-died``; timeouts are never retried (schedulers are
          deterministic — an overrun would simply repeat).
        * ``warm_start`` — FLB jobs replay the clean prefix of a
          previously stored base schedule (:mod:`repro.incremental`) and
          report the outcome in :attr:`BatchResult.warm`.
        * ``machine`` — the default machine for jobs that carry none.
        * ``metrics`` — a :class:`repro.obs.MetricsRegistry` to record
          into.  Enables per-job phase measurement in the workers,
          supervisor-side batch / worker-pool counters and histograms, and
          one ``batch.job`` trace event per job.  ``None`` (default)
          records nothing and skips all instrumentation work.
    grace:
        Slack for detecting and killing an overrunning worker past
        ``timeout``, and the force-kill budget at shutdown.
    backoff:
        Base delay in seconds before a death retry; doubles per attempt.
    share_graphs:
        Graph-plane dispatch policy for the parallel path.  ``None``
        (default) shares a graph through shared memory when it is
        referenced by two or more dispatched jobs or is at least
        :data:`INLINE_ONESHOT_MAX` tasks+edges; small one-shot graphs stay
        inline-pickled.  ``True`` shares every graph, ``False`` none
        (always inline pickle — the pre-graph-plane behaviour).
    cache:
        A :class:`~repro.resultcache.ResultCache`.  Jobs whose
        ``(fingerprint, machine fingerprint, algo, validate, certify)``
        key hits return
        immediately with ``cached=True`` and are never dispatched;
        successful new results are inserted afterwards.  Applies on both
        the inline and the parallel path.
    store:
        A caller-owned :class:`~repro.graphstore.GraphStore` whose
        registered segments outlive this call (used by
        :class:`BatchScheduler` to amortise registration across batches,
        and required to resolve ``BatchJob.graph_key``-only jobs' cache
        keys).  When ``None``, an ephemeral store is created and every
        segment is unlinked before returning — including when a worker was
        SIGKILL-ed on timeout or the batch raised.
    stats_out:
        Optional dict filled with dispatch accounting: ``jobs``,
        ``cache_hits``, ``dispatched``, ``keyed_jobs``,
        ``inline_graph_jobs``, ``shared_graphs``, ``shared_bytes``.

    Returns
    -------
    list[BatchResult]
        One result per job, ``error``/``error_kind`` set for failures —
        never raises for a job-level problem.
    """
    opts = options if options is not None else SchedulingOptions()
    timeout, validate, certify, retries = (
        opts.timeout, opts.validate, opts.certify, opts.retries,
    )
    reg = opts.metrics
    warm_start = opts.warm_start
    default_machine = opts.machine
    measure = reg is not None
    t_run0 = time.perf_counter()

    jobs = list(jobs)
    if workers is None:
        workers = os.cpu_count() or 1
    # Parameter validation applies on every path so callers get consistent
    # errors regardless of batch size (SchedulingOptions checks its own).
    if grace <= 0:
        raise ValueError(f"grace must be positive, got {grace}")
    if backoff < 0:
        raise ValueError(f"backoff must be >= 0, got {backoff}")

    results: List[Optional[BatchResult]] = [None] * len(jobs)
    fingerprints: Dict[int, str] = {}
    keys: List[Optional[CacheKey]] = [None] * len(jobs)
    use_cache = cache is not None and cache.enabled

    # Result-cache pass (exact hits answer without dispatching anything),
    # then within-batch coalescing: duplicate (graph, machine, algo, validate)
    # jobs are dispatched once — schedulers are deterministic, so the
    # duplicates share the one outcome verbatim.  Coalescing is part of the
    # caching plane (it closes the window where within-batch duplicates all
    # miss an empty cache), so it only applies when a cache is in play;
    # without one, every job dispatches individually as before, keeping
    # per-job timing/queue accounting intact.
    dispatch: List[int] = []
    coalesced: Dict[CacheKey, List[int]] = {}
    for i, job in enumerate(jobs):
        if use_cache:
            # Keys are built only here: without a cache nothing reads them,
            # and each distinct graph would be fingerprinted for nothing.
            key = keys[i] = _cache_key(
                job, validate, certify, fingerprints, store, default_machine,
            )
            hit = cache.get(key)
            if hit is not None:
                results[i] = _cached_answer(cast(BatchResult, hit), job.tag)
                continue
            if key is not None:
                group = coalesced.get(key)
                if group is not None:
                    group.append(i)
                    continue
                coalesced[key] = [i]
        dispatch.append(i)

    n_hits = len(jobs) - len(dispatch) - sum(len(g) - 1 for g in coalesced.values())
    stats = {
        "jobs": len(jobs),
        "cache_hits": n_hits,
        "coalesced": sum(len(g) - 1 for g in coalesced.values()),
        "dispatched": len(dispatch),
        "keyed_jobs": 0,
        "inline_graph_jobs": 0,
        "shared_graphs": 0,
        "shared_bytes": 0,
    }

    if dispatch and (workers <= 1 or len(dispatch) <= 1):
        for i in dispatch:
            results[i] = _run_job(
                jobs[i], validate, certify, measure, warm_start,
                default_machine,
            )
        stats["inline_graph_jobs"] = len(dispatch)
    elif dispatch:
        outcomes = _dispatch_pool(
            [jobs[i] for i in dispatch], workers, timeout, validate, certify,
            grace=grace, retries=retries, backoff=backoff,
            share_graphs=share_graphs, store=store,
            fingerprints=fingerprints, stats=stats, metrics=reg,
            warm_start=warm_start, machine=default_machine,
        )
        for i, res in zip(dispatch, outcomes):
            results[i] = res

    # Fan each coalesced outcome out to its duplicates.  Failures propagate
    # too: every kind is deterministic given the same budget (worker deaths
    # were already retried inside the pool).
    for key, group in coalesced.items():
        canonical = results[group[0]]
        for i in group[1:]:
            if canonical.ok:
                results[i] = _cached_answer(canonical, jobs[i].tag)
            else:
                results[i] = replace(canonical, tag=jobs[i].tag)

    if use_cache:
        for i in dispatch:
            res = results[i]
            # When certification is on, only certified results may enter
            # the cache: an uncertified entry would later be served as if
            # it had passed the checker.
            if res is not None and res.ok and (not certify or res.certified):
                cache.put(keys[i], res)

    if stats_out is not None:
        stats_out.update(stats)
    final = [res for res in results if res is not None]
    if reg is not None:
        _record_batch_metrics(
            reg, final, stats, time.perf_counter() - t_run0, cache, store,
        )
    return final


def _record_batch_metrics(
    reg: MetricsRegistry,
    results: Sequence[BatchResult],
    stats: Dict[str, int],
    wall_seconds: float,
    cache: Optional[ResultCache],
    store: Optional["graphstore.GraphStore"],
) -> None:
    """Fold one batch's outcomes into the registry (supervisor side).

    Emits the per-job ``batch.job`` trace events (phase breakdown summing
    to the job's wall time), the ``batch_*`` counters/histograms, and the
    graph-plane / result-cache gauges.  Called once per
    :func:`schedule_many` invocation — never on the per-job hot path.
    """
    reg.counter("batch_runs_total").inc()
    reg.histogram("batch_run_seconds").observe(wall_seconds)
    if stats.get("keyed_jobs"):
        reg.counter("batch_dispatch_total", mode="keyed").inc(stats["keyed_jobs"])
    if stats.get("inline_graph_jobs"):
        reg.counter("batch_dispatch_total", mode="inline").inc(
            stats["inline_graph_jobs"]
        )
    queue_h = reg.histogram("batch_queue_seconds")
    exec_h = reg.histogram("batch_exec_seconds")
    for res in results:
        status = "ok" if res.ok else (res.error_kind or "error")
        reg.counter("batch_jobs_total", status=status).inc()
        if res.cached:
            reg.counter("batch_jobs_cached_total").inc()
        queue_h.observe(res.queue_seconds)
        exec_h.observe(res.seconds)
        worker_phases = res.phases or {}
        phases: Dict[str, float] = {"queue": res.queue_seconds}
        phases.update(worker_phases)
        phases["other"] = max(0.0, res.seconds - sum(worker_phases.values()))
        for phase, secs in phases.items():
            reg.histogram("batch_phase_seconds", phase=phase).observe(secs)
        if res.warm:
            # Recorded supervisor-side from the result: workers carry no
            # registry.
            record_warm_start(reg, res.warm)
        wall = res.queue_seconds + res.seconds
        reg.event(
            "batch.job", wall,
            tag=res.tag, algo=res.algo, procs=res.procs, ok=res.ok,
            error_kind=res.error_kind, cached=res.cached,
            attempts=res.attempts, wall=wall, phases=phases,
            warm=res.warm,
        )
    cache_stats = cache.stats() if cache is not None else {}
    reg.event(
        "batch.run", wall_seconds,
        jobs=stats.get("jobs", len(results)),
        dispatched=stats.get("dispatched", 0),
        cache_hits=stats.get("cache_hits", 0),
        coalesced=stats.get("coalesced", 0),
        cache=cache_stats or None,
    )
    if cache is not None:
        _record_cache_gauges(reg, cache)
    if store is not None and not store.closed:
        for key, value in store.stats().items():
            reg.gauge(f"graphstore_{key}").set(float(value))
    elif stats.get("shared_graphs") or stats.get("shared_bytes"):
        # Ephemeral store (already unlinked): report what it held.
        reg.gauge("graphstore_graphs").set(float(stats.get("shared_graphs", 0)))
        reg.gauge("graphstore_bytes").set(float(stats.get("shared_bytes", 0)))


def _record_cache_gauges(reg: MetricsRegistry, cache: ResultCache) -> None:
    """Set the ``resultcache_*`` gauges from the live cache."""
    for key, value in cache.stats().items():
        reg.gauge(f"resultcache_{key}").set(float(value))


def _dispatch_pool(
    jobs: List[BatchJob],
    workers: int,
    timeout: Optional[float],
    validate: bool,
    certify: bool,
    *,
    grace: float,
    retries: int,
    backoff: float,
    share_graphs: Optional[bool],
    store: Optional["graphstore.GraphStore"],
    fingerprints: Dict[int, str],
    stats: Dict[str, int],
    metrics: Optional[MetricsRegistry] = None,
    warm_start: bool = False,
    machine: Optional[MachineModel] = None,
) -> List[BatchResult]:
    """Fan ``jobs`` across the supervised pool, sharing graphs through the
    graph plane where the policy says so.  Owns (and always unlinks) the
    ephemeral store when the caller did not provide one."""
    owned_store = store is None
    wire: List[BatchJob] = list(jobs)
    try:
        if share_graphs is not False:
            # Count how many dispatched jobs reference each graph content.
            counts: Dict[str, int] = {}
            for job in jobs:
                if job.graph is None:
                    continue
                fp = fingerprints.get(id(job.graph))
                if fp is None:
                    fp = job.graph.fingerprint()
                    fingerprints[id(job.graph)] = fp
                counts[fp] = counts.get(fp, 0) + 1
            for n, job in enumerate(jobs):
                if job.graph is None:
                    continue
                fp = fingerprints[id(job.graph)]
                size = job.graph.num_tasks + job.graph.num_edges
                if not (share_graphs is True or counts[fp] >= 2
                        or size >= INLINE_ONESHOT_MAX):
                    continue
                if store is None:
                    store = graphstore.GraphStore()
                try:
                    key = store.register(job.graph.freeze(), fingerprint=fp)
                except Exception:
                    # Unfreezable (e.g. cyclic) or unregistrable graph:
                    # fall back to inline pickling so the failure surfaces
                    # as that job's error, exactly as before.
                    continue
                wire[n] = replace(job, graph=None, graph_key=key)
        stats["keyed_jobs"] = sum(1 for j in wire if j.graph is None and j.graph_key)
        stats["inline_graph_jobs"] = len(wire) - stats["keyed_jobs"]
        if store is not None:
            stats["shared_graphs"] = len(store)
            stats["shared_bytes"] = store.total_bytes()

        measure = metrics is not None
        outcomes = workerpool.run_supervised(
            [(job, validate, certify, measure, warm_start, machine)
             for job in wire],
            _run_packed,
            workers=min(workers, len(wire)),
            timeout=timeout,
            grace=grace,
            retries=retries,
            backoff=backoff,
            metrics=metrics,
        )
    finally:
        # Ephemeral registry: guaranteed unlink, even when a worker was
        # SIGKILL-ed on timeout or run_supervised raised.
        if owned_store and store is not None:
            store.close()

    results: List[BatchResult] = []
    for job, outcome in zip(jobs, outcomes):
        if outcome.kind == workerpool.COMPLETED:
            results.append(replace(
                outcome.value,
                queue_seconds=outcome.queue_seconds,
                attempts=outcome.attempts,
            ))
        elif outcome.kind == workerpool.TIMEOUT:
            results.append(_failed_result(
                job, outcome.seconds,
                f"timeout: job exceeded its {timeout:g}s budget "
                f"({outcome.error})",
                TIMEOUT,
                queue_seconds=outcome.queue_seconds,
                attempts=outcome.attempts,
            ))
        elif outcome.kind == workerpool.DIED:
            results.append(_failed_result(
                job, outcome.seconds,
                f"worker-died: {outcome.error}",
                WORKER_DIED,
                queue_seconds=outcome.queue_seconds,
                attempts=outcome.attempts,
            ))
        else:  # RAISED: _run_job catches everything, so this is exotic
            results.append(_failed_result(
                job, outcome.seconds, outcome.error or "worker raised",
                SCHEDULER_ERROR,
                queue_seconds=outcome.queue_seconds,
                attempts=outcome.attempts,
            ))
    return results


def batch_throughput(results: Sequence[BatchResult], wall_seconds: float) -> float:
    """Aggregate scheduling throughput: total tasks scheduled per second of
    batch wall-clock time (failed jobs contribute no tasks)."""
    if wall_seconds <= 0:
        raise ValueError(f"wall_seconds must be positive, got {wall_seconds}")
    return sum(r.num_tasks for r in results if r.ok) / wall_seconds


def batch_stats(
    results: Sequence[BatchResult],
    wall_seconds: float,
    cache: Optional[ResultCache] = None,
) -> Dict[str, float]:
    """Throughput plus serving counters for one batch.

    Extends :func:`batch_throughput` with job counts, jobs/s, the number of
    results answered from the cache (``cached``), and — when a
    :class:`~repro.resultcache.ResultCache` is supplied — its cumulative
    hit/miss/eviction counters (prefixed ``cache_``).
    """
    stats: Dict[str, float] = {
        "jobs": len(results),
        "ok": sum(1 for r in results if r.ok),
        "failed": sum(1 for r in results if not r.ok),
        "cached": sum(1 for r in results if r.cached),
        "tasks_per_s": batch_throughput(results, wall_seconds),
        "jobs_per_s": len(results) / wall_seconds,
        "wall_seconds": wall_seconds,
    }
    if cache is not None:
        for key, value in cache.stats().items():
            stats[f"cache_{key}"] = value
    return stats


class BatchScheduler:
    """Long-lived batch-serving front-end: one graph registry + one result
    cache, amortised across many :meth:`run` calls.

    :func:`schedule_many` is one-shot — its ephemeral graph store is
    unlinked when it returns, so the next batch over the same graph
    registers (and each worker decodes) it again.  A serving loop holds a
    ``BatchScheduler`` instead::

        with BatchScheduler(workers=8,
                            options=SchedulingOptions(timeout=5.0)) as bs:
            key = bs.register(graph)            # publish once
            for request in requests:            # many batches
                results = bs.run([
                    BatchJob(graph=None, graph_key=key,
                             machine=request.machine, algo=request.algo),
                ])

    Graphs registered (explicitly via :meth:`register` or implicitly by the
    dispatch policy during :meth:`run`) stay in shared memory until
    :meth:`close`/``__exit__`` — guaranteed unlink, same as
    ``schedule_many``.  The result cache persists across batches, so a
    repeated ``(graph, machine, algo)`` request is answered in ``O(1)``
    without dispatching a worker.  :meth:`stats` reports cumulative
    dispatch, cache, and registry counters.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        options: Optional[SchedulingOptions] = None,
        grace: float = 1.0,
        backoff: float = 0.1,
        share_graphs: Optional[bool] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        self.options = options if options is not None else SchedulingOptions()
        self.workers = workers
        self.grace = grace
        self.backoff = backoff
        self.share_graphs = share_graphs
        self.store = graphstore.GraphStore()
        self.cache = ResultCache(cache_size)
        self._dispatch_totals: Dict[str, int] = {}
        self._results_seen = 0
        self._failed_seen = 0

    def register(self, graph: TaskGraph) -> str:
        """Publish a graph into the registry; returns the ``graph_key`` for
        :class:`BatchJob` submissions.  Idempotent per graph content."""
        return self.store.register(graph.freeze())

    def metrics(self) -> MetricsRegistry:
        """The scheduler's :class:`~repro.obs.MetricsRegistry`.

        Returns the registry configured at construction
        (``options.metrics``).  When none was configured, the first call
        creates one and **enables** instrumentation for every subsequent
        :meth:`run` — turn-on-by-asking, so a serving loop can start
        observing without restarting.
        """
        if self.options.metrics is None:
            self.options = replace(self.options, metrics=MetricsRegistry())
        return self.options.metrics

    def run(
        self,
        jobs: Iterable[BatchJob],
        options: Optional[SchedulingOptions] = None,
    ) -> List[BatchResult]:
        """Schedule one batch through the shared registry and cache.

        ``options`` overrides this scheduler's defaults for one call (e.g.
        ``dataclasses.replace(bs.options, certify=True)``); when it
        carries no registry, the scheduler's own registry (if any) still
        records the batch.
        """
        if self.store.closed:
            raise graphstore.GraphStoreError("BatchScheduler is closed")
        opts = options if options is not None else self.options
        if opts.metrics is None and self.options.metrics is not None:
            opts = replace(opts, metrics=self.options.metrics)
        per_run: Dict[str, int] = {}
        results = schedule_many(
            jobs,
            workers=self.workers,
            options=opts,
            grace=self.grace,
            backoff=self.backoff,
            share_graphs=self.share_graphs,
            cache=self.cache,
            store=self.store,
            stats_out=per_run,
        )
        for key, value in per_run.items():
            if key in ("shared_graphs", "shared_bytes"):
                self._dispatch_totals[key] = value  # registry-wide, not additive
            else:
                self._dispatch_totals[key] = self._dispatch_totals.get(key, 0) + value
        self._results_seen += len(results)
        self._failed_seen += sum(1 for r in results if not r.ok)
        return results

    def run_one(
        self,
        job: BatchJob,
        options: Optional[SchedulingOptions] = None,
    ) -> BatchResult:
        """Schedule a single job through the shared registry and cache.

        The submission hook for request-at-a-time front-ends — notably the
        :mod:`repro.serve` asyncio service, which calls it through
        ``asyncio.to_thread`` so one blocking call serves one request
        without stalling the event loop.  Single-job batches always run on
        the inline path (no pool round-trip), and cache/coalescing
        semantics are exactly :meth:`run`'s.
        """
        return self.run([job], options=options)[0]

    def lookup(self, key: CacheKey, tag: str) -> Optional[BatchResult]:
        """The result cache's answer to a job with ``key``, or ``None``.

        ``key`` is the key :func:`schedule_many` builds for the job.  A hit
        comes back as :meth:`run`'s cache pass would return it, with
        ``tag`` echoed, and counts as a cache hit; a miss is not counted,
        because the :meth:`run` that computes the job counts it.  It
        touches only the cache, which has its own lock, and records no
        ``batch_*`` metric, so a front-end may call it from another thread
        than :meth:`run`'s.
        """
        stored = self.cache.lookup(key)
        if stored is None:
            return None
        return _cached_answer(cast(BatchResult, stored), tag)

    def stats(self) -> Dict[str, int]:
        """Cumulative serving counters: dispatch accounting (``jobs``,
        ``cache_hits``, ``dispatched``, ``keyed_jobs``, ...), registry size
        (``store_graphs``, ``store_bytes``), result-cache counters
        (``cache_hit``/``cache_miss``/``cache_evictions``/...) and — when
        this scheduler runs with ``options.warm_start`` — the warm-start
        base-cache counters (``warm_size``/``warm_hits``/``warm_misses``/
        ``warm_evictions``/...)."""
        stats = dict(self._dispatch_totals)
        stats.setdefault("jobs", 0)
        stats["results"] = self._results_seen
        stats["failed"] = self._failed_seen
        for key, value in self.store.stats().items():
            stats[f"store_{key}"] = value
        for key, value in self.cache.stats().items():
            stats[f"cache_{key}"] = value
        if self.options.warm_start:
            from repro.incremental import base_cache

            for key, value in base_cache().stats().items():
                stats[f"warm_{key}"] = value
        return stats

    def close(self) -> None:
        """Unlink every registered shared-memory segment.  Idempotent."""
        self.store.close()

    @property
    def closed(self) -> bool:
        return self.store.closed

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"{len(self.store)} graph(s)"
        return f"<BatchScheduler {state}, cache {len(self.cache)}/{self.cache.capacity}>"
