"""Ready-made instruments binding the library's hooks to a registry.

:class:`KernelMetricsObserver` implements the existing
:class:`repro.core.flb.FlbObserver` protocol, so deep kernel metrics ride
the hook that already exists for the trace recorder and the Theorem-3
oracle — no new kernel surface.  Attaching any observer selects FLB's
*observed* path (structured ``FlbLists`` instead of the array kernel),
which is the price of per-iteration visibility; kernel **wall time**
(``sched_kernel_seconds``) is always recorded from outside the call and
never forces the slow path.  See docs/observability.md for the tradeoff.

:class:`ServeInstruments` is the serving front-end's (:mod:`repro.serve`)
instrument set — the ``serve_*`` request/queue/admission metrics layered on
top of the ``batch_*`` family the wrapped :class:`repro.batch.BatchScheduler`
already records into the same registry, so one ``GET /metrics`` scrape
exposes the whole stack.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.flb import FlbIteration

__all__ = ["KernelMetricsObserver", "ServeInstruments"]

#: Ready-set sizes are small integers; give them integer-ish buckets
#: instead of the latency defaults.
_READY_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)


class KernelMetricsObserver:
    """An :class:`~repro.core.flb.FlbObserver` that records per-iteration
    kernel metrics into a :class:`~repro.obs.MetricsRegistry`:

    * ``flb_kernel_iterations_total`` — scheduling iterations (one per task);
    * ``flb_kernel_ready_tasks`` — histogram of the ready-set size ``W`` at
      each iteration (the ``log W`` factor in the paper's bound);
    * ``flb_kernel_heap_ops_total`` — ``O(log n)`` priority-list mutations,
      read from :attr:`repro.core.lists.FlbLists.heap_ops`;
    * ``flb_kernel_ep_choices_total{kind=...}`` — how often the EP vs the
      non-EP Theorem-3 candidate won.

    Usage::

        reg = MetricsRegistry()
        flb(graph, MachineModel(procs), observer=KernelMetricsObserver(reg))
        print(reg.total("flb_kernel_iterations_total"))
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._iterations = registry.counter("flb_kernel_iterations_total")
        self._ready = registry.histogram("flb_kernel_ready_tasks", _READY_BUCKETS)
        self._heap_ops = registry.counter("flb_kernel_heap_ops_total")
        self._ep = registry.counter("flb_kernel_choices_total", kind="ep")
        self._non_ep = registry.counter("flb_kernel_choices_total", kind="non-ep")
        self._last_heap_ops = 0

    def on_iteration(self, snapshot: "FlbIteration") -> None:
        self._iterations.inc()
        self._ready.observe(float(snapshot.lists.num_ready))
        ops = snapshot.lists.heap_ops
        if ops < self._last_heap_ops:
            # A new kernel run began with fresh lists; restart the delta.
            self._last_heap_ops = 0
        self._heap_ops.inc(ops - self._last_heap_ops)
        self._last_heap_ops = ops
        if snapshot.chosen_is_ep:
            self._ep.inc()
        else:
            self._non_ep.inc()


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
    * ``serve_queue_wait_seconds`` / ``serve_service_seconds`` — fair-queue
      wait vs dispatch service time per scheduled job;
    * ``serve_queue_depth`` / ``serve_inflight`` / ``serve_draining`` —
      gauges of the admission queue, active dispatches, and drain state;
    * ``serve_graphs_registered_total`` — ``POST /v1/graphs`` admissions;
    * ``serve_tenant_requests_total{tenant}`` — per-tenant fair-queue
      submissions (the fairness plane's accounting).
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._shed = registry.counter("serve_shed_total")
        self._coalesced = registry.counter("serve_coalesced_total")
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
