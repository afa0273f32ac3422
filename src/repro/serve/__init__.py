"""Scheduling-as-a-service: a stdlib-only asyncio HTTP front-end.

``repro-sched serve`` (or :func:`repro.serve.serve`) turns a
:class:`~repro.batch.BatchScheduler` into a long-running service:

* ``POST /v1/graphs`` registers a task graph (content-addressed,
  idempotent) and returns its fingerprint;
* ``POST /v1/schedule`` schedules a registered fingerprint or an inline
  graph, with per-tenant weighted-fair queuing, bounded-backlog admission
  control (429 + ``Retry-After`` from the observed service-time EWMA),
  in-flight coalescing of identical requests, and result-cache hits
  answered at admission without queuing;
* ``GET /metrics`` exposes the ``serve_*`` + ``batch_*`` metric families
  as Prometheus text; ``GET /healthz`` reports drain state and depths;
* SIGTERM/SIGINT triggers a graceful drain: stop admitting, finish every
  queued job, exit.

See docs/serving.md for the full endpoint reference and tuning guide.
"""

from __future__ import annotations

from repro.serve.admission import AdmissionController, ShedError
from repro.serve.handlers import (
    BadRequestError,
    Response,
    UnknownGraphError,
    route,
)
from repro.serve.queues import QueueFull, WeightedFairQueue
from repro.serve.server import (
    BackgroundServer,
    SchedulingService,
    ServeConfig,
    UnenforceableTimeoutError,
    serve,
    serve_async,
)

__all__ = [
    "serve",
    "serve_async",
    "ServeConfig",
    "SchedulingService",
    "BackgroundServer",
    "UnenforceableTimeoutError",
    "AdmissionController",
    "ShedError",
    "WeightedFairQueue",
    "QueueFull",
    "Response",
    "route",
    "BadRequestError",
    "UnknownGraphError",
]
