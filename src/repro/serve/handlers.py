"""HTTP route table and status mapping for the scheduling service.

This module is the translation layer between HTTP and the
:class:`repro.serve.SchedulingService`: it owns the endpoint table, the
request/response JSON shapes, and the mapping from service-level failures
to status codes.  It knows nothing about sockets — the server
(:mod:`repro.serve.server`) parses the wire format and calls
:func:`route`.

Endpoints
---------

``GET /healthz``
    Liveness/readiness JSON: ``status`` (``ok`` or ``draining``), queue
    depth, in-flight count, uptime.
``GET /metrics``
    Prometheus text exposition (version 0.0.4) of the shared registry —
    the ``serve_*`` family plus everything the wrapped
    :class:`~repro.batch.BatchScheduler` records.
``POST /v1/graphs``
    Register a task graph (the ``repro-taskgraph`` JSON document, or
    ``{"graph": <document>}``).  Idempotent per content; returns the
    ``fingerprint`` to schedule by.
``POST /v1/schedule``
    Schedule a graph: ``{"fingerprint": ..., "procs": N, ...}`` for a
    registered graph or ``{"graph": <document>, "procs": N, ...}`` inline.
    Optional: ``algo``, ``validate``, ``certify``, ``machine``, ``tenant``,
    ``tag``, ``base_fingerprint``.  The last marks a delta request: FLB
    warm-starts from the named base schedule when it can
    (bit-identical answer, ``warm`` accounting in the reply) and runs
    cold when it cannot.

Failure mapping
---------------

* malformed JSON / bad field → **400**;
* unknown fingerprint or path → **404**;
* wrong method on a known path → **405**;
* admission shed or draining → **429** with ``Retry-After`` derived from
  the observed service-time EWMA;
* scheduling failed: ``worker-died`` → **500**, ``scheduler-error`` /
  ``invalid-schedule`` → **422** (the graph or options are at fault,
  retrying will not help).  ``timeout`` maps to **504**, but on the
  default runner no request can time out: every request runs inline, so
  the service refuses a configured ``timeout`` at startup
  (:class:`~repro.serve.server.UnenforceableTimeoutError`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Tuple

from repro.serve.admission import ShedError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.serve.server import SchedulingService

__all__ = [
    "Response",
    "BadRequestError",
    "UnknownGraphError",
    "route",
    "json_response",
]


class BadRequestError(Exception):
    """The request body or fields are malformed (HTTP 400)."""


class UnknownGraphError(Exception):
    """The requested fingerprint has not been registered (HTTP 404)."""


_REASONS: Dict[int, str] = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: BatchResult.error_kind -> HTTP status for a failed scheduling job.
_ERROR_STATUS: Dict[str, int] = {
    "timeout": 504,
    "worker-died": 500,
    "scheduler-error": 422,
    "invalid-schedule": 422,
}

#: Paths used as the ``endpoint`` label on ``serve_requests_total`` —
#: anything else is folded into ``other`` to keep label cardinality bounded.
ENDPOINTS = ("/healthz", "/metrics", "/v1/graphs", "/v1/schedule")


@dataclass(frozen=True)
class Response:
    """One HTTP response: status, body, and any extra headers."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: Tuple[Tuple[str, str], ...] = field(default=())

    @property
    def reason(self) -> str:
        return _REASONS.get(self.status, "OK")


def json_response(
    status: int,
    payload: Dict[str, Any],
    headers: Tuple[Tuple[str, str], ...] = (),
) -> Response:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return Response(status=status, body=body, headers=headers)


def _error(status: int, message: str, **extra: Any) -> Response:
    payload: Dict[str, Any] = {"error": message}
    payload.update(extra)
    return json_response(status, payload)


def _parse_body(body: bytes) -> Dict[str, Any]:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequestError(f"request body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise BadRequestError("request body must be a JSON object")
    return payload


def _schedule_response(payload: Dict[str, Any]) -> Response:
    """Map a completed schedule's summary to its HTTP status."""
    if payload.get("ok", False):
        return json_response(200, payload)
    kind = payload.get("error_kind") or ""
    return json_response(_ERROR_STATUS.get(kind, 500), payload)


async def route(
    service: "SchedulingService",
    method: str,
    path: str,
    body: bytes,
) -> Response:
    """Dispatch one parsed HTTP request against the service."""
    path = path.split("?", 1)[0]
    try:
        if path == "/healthz":
            if method != "GET":
                return _error(405, "healthz supports GET only")
            return json_response(200, service.health())
        if path == "/metrics":
            if method != "GET":
                return _error(405, "metrics supports GET only")
            return Response(
                status=200,
                body=service.metrics_text().encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/v1/graphs":
            if method != "POST":
                return _error(405, "graphs supports POST only")
            return json_response(200, service.register_graph(_parse_body(body)))
        if path == "/v1/schedule":
            if method != "POST":
                return _error(405, "schedule supports POST only")
            return _schedule_response(await service.submit(_parse_body(body)))
        return _error(404, f"no such endpoint: {path}")
    except ShedError as exc:
        return json_response(
            429,
            {"error": exc.reason, "retry_after": exc.retry_after},
            headers=(("Retry-After", str(exc.retry_after)),),
        )
    except UnknownGraphError as exc:
        return _error(404, str(exc))
    except BadRequestError as exc:
        return _error(400, str(exc))
    except Exception as exc:  # unexpected: keep the connection answerable
        return _error(500, f"internal error: {type(exc).__name__}: {exc}")


def endpoint_label(path: str) -> str:
    """The bounded-cardinality ``endpoint`` metric label for ``path``."""
    path = path.split("?", 1)[0]
    return path if path in ENDPOINTS else "other"
