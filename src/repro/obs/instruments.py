"""Ready-made instruments binding the library's outcomes to a registry.

:func:`record_warm_start` is the one writer of the ``incr_*`` warm-start
family: the FLB array kernel calls it in-process
(:func:`repro.api.schedule_graph`) and the batch plane calls it
supervisor-side from each :attr:`repro.batch.BatchResult.warm`, so both
record the same instruments the same way.

:class:`ServeInstruments` is the serving front-end's (:mod:`repro.serve`)
instrument set — the ``serve_*`` request/queue/admission metrics layered on
top of the ``batch_*`` family the wrapped :class:`repro.batch.BatchScheduler`
already records into the same registry, so one ``GET /metrics`` scrape
exposes the whole stack.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.obs.metrics import MetricsRegistry

__all__ = ["ServeInstruments", "record_warm_start"]


def record_warm_start(registry: MetricsRegistry, warm: Mapping[str, Any]) -> None:
    """Record one warm-start outcome: ``warm`` is either the replay
    accounting (``reused`` / ``replayed`` / ``dirty`` / ``fraction``) or
    ``{"fallback": reason}``."""
    registry.counter("incr_attempts_total").inc()
    fallback = warm.get("fallback")
    if fallback is not None:
        registry.counter("incr_fallback_total", reason=str(fallback)).inc()
        return
    registry.counter("incr_warm_total").inc()
    registry.counter("incr_reused_tasks_total").inc(float(warm["reused"]))
    registry.counter("incr_replayed_tasks_total").inc(float(warm["replayed"]))
    registry.counter("incr_dirty_tasks_total").inc(float(warm["dirty"]))
    registry.gauge("incr_reuse_fraction").set(float(warm["fraction"]))


#: Queue-depth style small-integer buckets for the serving queue/backlog.
_DEPTH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)


class ServeInstruments:
    """The ``serve_*`` metric family for the HTTP scheduling front-end.

    One instance per :class:`repro.serve.SchedulingService`, bound to the
    service's registry (shared with its :class:`~repro.batch.BatchScheduler`,
    so ``serve_*`` and ``batch_*`` metrics land in one scrape):

    * ``serve_requests_total{endpoint,status}`` — every HTTP response;
    * ``serve_request_seconds{endpoint}`` — request wall time (histogram);
    * ``serve_shed_total`` — admission-control rejections (HTTP 429);
    * ``serve_coalesced_total`` — requests answered by an identical
      in-flight computation instead of a new dispatch;
    * ``serve_cached_total`` — requests answered from the result cache at
      admission, on the event loop (never queued or dispatched);
    * ``serve_queue_wait_seconds`` / ``serve_service_seconds`` — fair-queue
      wait vs dispatch service time per computed (queued) job;
    * ``serve_queue_depth`` / ``serve_inflight`` / ``serve_draining`` —
      gauges of the admission queue, active dispatches, and drain state;
    * ``serve_graphs_registered_total`` — ``POST /v1/graphs`` admissions;
    * ``serve_tenant_requests_total{tenant}`` — per-tenant fair-queue
      submissions (the fairness plane's accounting); the service labels
      every tenant it has no configured weight for ``other``.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._shed = registry.counter("serve_shed_total")
        self._coalesced = registry.counter("serve_coalesced_total")
        self._cached = registry.counter("serve_cached_total")
        self._graphs = registry.counter("serve_graphs_registered_total")
        self._queue_depth = registry.gauge("serve_queue_depth")
        self._inflight = registry.gauge("serve_inflight")
        self._draining = registry.gauge("serve_draining")
        self._queue_wait = registry.histogram("serve_queue_wait_seconds")
        self._service = registry.histogram("serve_service_seconds")
        self._backlog = registry.histogram(
            "serve_admitted_backlog", _DEPTH_BUCKETS
        )

    def request(self, endpoint: str, status: int, seconds: float) -> None:
        """Record one completed HTTP exchange."""
        self.registry.counter(
            "serve_requests_total", endpoint=endpoint, status=str(status)
        ).inc()
        self.registry.histogram(
            "serve_request_seconds", endpoint=endpoint
        ).observe(seconds)

    def tenant_request(self, tenant: str) -> None:
        self.registry.counter(
            "serve_tenant_requests_total", tenant=tenant
        ).inc()

    def shed(self) -> None:
        self._shed.inc()

    def coalesced(self) -> None:
        self._coalesced.inc()

    def cached(self) -> None:
        self._cached.inc()

    def graph_registered(self) -> None:
        self._graphs.inc()

    def admitted(self, backlog: int) -> None:
        """Record the backlog (queued + active) seen by an admitted job."""
        self._backlog.observe(float(backlog))

    def queue_depth(self, depth: int) -> None:
        self._queue_depth.set(float(depth))

    def inflight(self, count: int) -> None:
        self._inflight.set(float(count))

    def draining(self, on: bool) -> None:
        self._draining.set(1.0 if on else 0.0)

    def observe_queue_wait(self, seconds: float) -> None:
        self._queue_wait.observe(seconds)

    def observe_service(self, seconds: float) -> None:
        self._service.observe(seconds)
