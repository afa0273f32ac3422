"""The asyncio scheduling service: HTTP front-end over a BatchScheduler.

Scheduling a graph is a few milliseconds of CPU; the expensive parts of a
*serving* deployment are everything around that call — graph decode,
shared-memory registration, cache lookups, fairness between tenants, and
staying up under overload.  This module packages those concerns into one
long-running process (stdlib only — ``asyncio`` + the library itself):

* **one event loop** accepts HTTP/1.1 connections and parses requests
  (:func:`_read_request` — no web framework);
* **admission control** (:class:`repro.serve.admission.AdmissionController`)
  bounds the backlog and sheds with ``429`` + ``Retry-After`` when full;
* **weighted-fair queuing** (:class:`repro.serve.queues.WeightedFairQueue`)
  orders admitted jobs so no tenant starves another;
* **coalescing**: concurrent requests for the same
  ``(fingerprint, machine, algo, validate, certify)`` share
  a single computation — the same machine-fingerprinted key the result
  cache uses, so a coalesced answer is exactly the answer a cache hit
  would give and two requests that differ only in processor speeds never
  share one;
* **result-cache hits at admission**: a request whose answer the
  scheduler's result cache holds is answered on the event loop, right
  after the coalescing check — it never waits in the fair queue or for a
  dispatcher (schedulers are deterministic, so the stored answer is
  exact); only misses are admitted, queued and dispatched;
* **one dispatcher** pulls from the fair queue and runs
  :meth:`repro.batch.BatchScheduler.run_one` via ``asyncio.to_thread``,
  awaiting each call before it takes the next job — so scheduler calls
  never overlap, and the scheduler (which is not thread-safe) needs no
  lock.  The result cache is the one structure the loop and the
  dispatcher thread share, under its own lock; ``serve_*`` metrics are
  recorded on the loop and ``batch_*`` on the dispatcher thread;
* **graceful drain**: SIGTERM/SIGINT stop accepting work (new schedules
  shed with 429), close idle keep-alive connections, complete every
  queued job and in-flight response, then exit.

Entry points: :func:`serve` (blocking; ``repro-sched serve`` calls it) and
:class:`BackgroundServer` (thread-hosted, for tests and benchmarks).
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.api import SchedulingOptions
from repro.batch import (
    BatchJob,
    BatchResult,
    BatchScheduler,
    _record_cache_gauges,
)
from repro.exceptions import GraphError
from repro.graph.io import from_json
from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.obs import ServeInstruments, render_prometheus
from repro.resultcache import CacheKey, make_key as make_cache_key
from repro.serve.admission import AdmissionController, ShedError
from repro.serve.handlers import (
    BadRequestError,
    Response,
    UnknownGraphError,
    endpoint_label,
    route,
)
from repro.serve.queues import QueueFull, WeightedFairQueue

__all__ = [
    "ServeConfig",
    "SchedulingService",
    "UnenforceableTimeoutError",
    "BackgroundServer",
    "serve",
    "serve_async",
]

#: A runner takes one job + options and returns the result, synchronously.
Runner = Callable[[BatchJob, SchedulingOptions], BatchResult]

#: The newest trace events a service keeps in its registry.  Nothing
#: exports a service's trace, and every computed request adds two events
#: (``batch.job`` and ``batch.run``), so an unbounded trace would grow for
#: the life of the process.
TRACE_EVENTS = 1024

#: The ``tenant`` label that ``serve_tenant_requests_total`` gives every
#: tenant ``ServeConfig.tenant_weights`` does not name.  Tenant names come
#: from request bodies, so a label per name would add one series per name
#: for the life of the process; the label set stays the configured names
#: plus this one.
OTHER_TENANT = "other"


@dataclass(frozen=True)
class ServeConfig:
    """Static configuration for one service instance.

    ``max_backlog`` bounds queued + in-flight jobs (the admission limit);
    ``tenant_weights`` sets fair-queue weights (unknown tenants get
    :data:`~repro.serve.queues.DEFAULT_WEIGHT`) and names the tenants that
    get their own metric label (the rest share :data:`OTHER_TENANT`).
    ``workers`` is handed to the wrapped :class:`~repro.batch.BatchScheduler`,
    but has no effect yet: every request runs as a one-job batch, inline.  ``options``
    seeds the wrapped scheduler's defaults (validate/certify/algorithm);
    per-request fields override it.  A
    ``timeout`` is refused (:class:`UnenforceableTimeoutError`): the
    default runner cannot enforce it.  ``options.machine`` is the default
    target :class:`~repro.machine.MachineModel` for requests that carry no
    ``machine`` object of their own (their ``procs``, if any, must match
    it); without it, such a request needs ``procs`` and runs on the
    homogeneous clique.  ``port`` 0 binds an ephemeral port
    (the chosen one is printed as ``serving on host:port`` and exposed by
    :attr:`BackgroundServer.port`).
    """

    host: str = "127.0.0.1"
    port: int = 8423
    workers: Optional[int] = None
    max_backlog: int = 64
    tenant_weights: Mapping[str, float] = field(default_factory=dict)
    max_body_bytes: int = 32 * 1024 * 1024
    drain_grace: float = 10.0
    options: Optional[SchedulingOptions] = None

    def __post_init__(self) -> None:
        if self.max_backlog < 1:
            raise ValueError(f"max_backlog must be >= 1, got {self.max_backlog}")
        if self.max_body_bytes < 1:
            raise ValueError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}"
            )


class UnenforceableTimeoutError(ValueError):
    """A per-job ``timeout`` was configured for a service that cannot
    enforce it.

    The default runner executes every request as a one-job
    :meth:`~repro.batch.BatchScheduler.run_one` batch, and a one-job batch
    always runs inline, in the server process, where no deadline can stop
    the kernel.  Refusing the option is the honest answer; silently
    ignoring it would leave a dead knob.
    """


@dataclass(frozen=True)
class _Request:
    """One validated schedule request."""

    key: CacheKey
    job: BatchJob
    options: SchedulingOptions
    tenant: str
    machine: MachineModel


@dataclass
class _Work:
    """One admitted request (a cache miss) waiting in the fair queue."""

    request: _Request
    future: "asyncio.Future[BatchResult]"
    enqueued_at: float


class SchedulingService:
    """The service core: admission, fairness, coalescing, dispatch.

    Wraps a :class:`~repro.batch.BatchScheduler` (created and owned when
    not supplied) and shares its metrics registry, so one scrape exposes
    ``serve_*`` and ``batch_*`` together; the service keeps only the
    newest :data:`TRACE_EVENTS` events of that registry's trace.
    ``runner`` injects the blocking per-job computation (default:
    ``scheduler.run_one``) — tests substitute a
    counting/delaying stub to pin down coalescing and drain semantics
    deterministically.  Whatever the runner, a request that the
    scheduler's result cache can answer is answered at admission, so a
    runner that never fills that cache sees every request.  The default
    runner runs every job inline, so a ``timeout`` in the scheduling
    options (the supplied scheduler's, else ``config.options``) raises
    :class:`UnenforceableTimeoutError` instead of being ignored.
    """

    def __init__(
        self,
        scheduler: Optional[BatchScheduler] = None,
        config: Optional[ServeConfig] = None,
        runner: Optional[Runner] = None,
    ) -> None:
        self.config = config or ServeConfig()
        options = scheduler.options if scheduler is not None else self.config.options
        if runner is None and options is not None and options.timeout is not None:
            raise UnenforceableTimeoutError(
                f"timeout={options.timeout} cannot be enforced: the service "
                f"runs each request inline, where no deadline can stop the "
                f"kernel; drop the timeout"
            )
        self._owns_scheduler = scheduler is None
        if scheduler is None:
            scheduler = BatchScheduler(
                workers=self.config.workers,
                options=self.config.options,
            )
        self.scheduler = scheduler
        self.registry = scheduler.metrics()
        self.registry.keep_recent_events(TRACE_EVENTS)
        self.instruments = ServeInstruments(self.registry)
        self.admission = AdmissionController(max_backlog=self.config.max_backlog)
        self.queue: WeightedFairQueue[_Work] = WeightedFairQueue(
            maxsize=self.config.max_backlog,
            weights=self.config.tenant_weights,
        )
        self._runner: Runner = runner if runner is not None else scheduler.run_one
        self._inflight: Dict[CacheKey, "asyncio.Future[BatchResult]"] = {}
        self._graphs: Dict[str, str] = {}  # fingerprint -> graph_key
        self._active = 0
        self._draining = False
        self._started_at = time.monotonic()
        self._dispatcher: Optional["asyncio.Task[None]"] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the dispatcher task (requires a running event loop)."""
        if self._dispatcher is None:
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop(), name="repro-serve-dispatch"
            )

    @property
    def draining(self) -> bool:
        return self._draining

    async def drain(self) -> None:
        """Stop admitting, finish every queued job, stop the dispatcher.

        Idempotent; new ``/v1/schedule`` requests shed with 429 the moment
        this is called, while queued and in-flight jobs run to completion.
        """
        self._draining = True
        self.instruments.draining(True)
        await self.queue.join()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            await asyncio.gather(self._dispatcher, return_exceptions=True)
            self._dispatcher = None

    def close(self) -> None:
        """Release the scheduler (and its shared-memory registry) if owned."""
        if self._owns_scheduler and not self.scheduler.closed:
            self.scheduler.close()

    # -- endpoints -----------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "queued": self.queue.qsize(),
            "inflight": self._active,
            "tenants": self.queue.depths(),
            "graphs": len(self._graphs),
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "service_estimate_seconds": round(
                self.admission.service_estimate, 6
            ),
        }

    def metrics_text(self) -> str:
        # A hit answered at admission moves the cache's counters outside any
        # batch, so the resultcache_* gauges are refreshed at scrape too.
        _record_cache_gauges(self.registry, self.scheduler.cache)
        return render_prometheus(self.registry)

    def register_graph(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /v1/graphs``: publish a graph, return its fingerprint.

        Accepts either the ``repro-taskgraph`` document itself or
        ``{"graph": <document>}``.  Idempotent per content fingerprint.
        """
        return self._ingest(payload.get("graph", payload))[1]

    def _ingest(self, doc: Any) -> Tuple[TaskGraph, Dict[str, Any]]:
        """Build, fingerprint and register a graph document; return the
        graph and the ``/v1/graphs`` reply."""
        if not isinstance(doc, dict):
            raise BadRequestError("'graph' must be a JSON object")
        try:
            graph = from_json(doc)
        except GraphError as exc:
            raise BadRequestError(f"invalid task graph: {exc}") from None
        fingerprint = graph.fingerprint()
        known = fingerprint in self._graphs
        if not known:
            key = self.scheduler.store.register(graph, fingerprint=fingerprint)
            self._graphs[fingerprint] = key
            self.instruments.graph_registered()
        return graph, {
            "fingerprint": fingerprint,
            "graph_key": self._graphs[fingerprint],
            "tasks": graph.num_tasks,
            "registered": not known,
        }

    async def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /v1/schedule``: coalesce, answer from the result cache,
        or admit, enqueue and await.

        Raises :class:`ShedError` when admission refuses (a cache hit too,
        while draining), :class:`UnknownGraphError` for an unregistered
        fingerprint, and :class:`BadRequestError` for malformed fields.
        """
        request = self._prepare(payload)
        tenant = request.tenant
        self.instruments.tenant_request(
            tenant if tenant in self.config.tenant_weights else OTHER_TENANT
        )
        existing = self._inflight.get(request.key)
        if existing is not None:
            # Identical request already computing: share its outcome.  The
            # shield keeps one waiter's cancellation (client disconnect)
            # from killing the shared computation.
            self.instruments.coalesced()
            result = await asyncio.shield(existing)
            return _result_payload(
                result, coalesced=True, machine=request.machine
            )
        if not self._draining:
            # request.key is the key schedule_many builds for this job, so a
            # hit here is the answer the queued path would give; it adds no
            # backlog and touches neither the fair queue nor the dispatcher.
            hit = self.scheduler.lookup(request.key, request.job.tag)
            if hit is not None:
                self.instruments.cached()
                return _result_payload(
                    hit, coalesced=False, machine=request.machine
                )
        backlog = self.queue.qsize() + self._active
        future: "asyncio.Future[BatchResult]" = (
            asyncio.get_running_loop().create_future()
        )
        # Retrieve late exceptions so an abandoned computation does not log
        # an "exception was never retrieved" warning at GC time.
        future.add_done_callback(_consume_exception)
        try:
            self.admission.admit(backlog, draining=self._draining)
            self.queue.put_nowait(
                tenant, _Work(request, future, time.monotonic())
            )
        except (ShedError, QueueFull) as exc:
            self.instruments.shed()
            if isinstance(exc, ShedError):
                raise
            raise ShedError(
                self.admission.retry_after(backlog), str(exc)
            ) from None
        self._inflight[request.key] = future
        self.instruments.admitted(backlog)
        self.instruments.queue_depth(self.queue.qsize())
        result = await asyncio.shield(future)
        return _result_payload(result, coalesced=False, machine=request.machine)

    # -- internals -----------------------------------------------------------

    def _prepare(self, payload: Dict[str, Any]) -> _Request:
        """Validate a schedule payload into a request."""
        fingerprint = payload.get("fingerprint")
        graph_doc = payload.get("graph")
        if (fingerprint is None) == (graph_doc is None):
            raise BadRequestError(
                "provide exactly one of 'fingerprint' (a registered graph) "
                "or 'graph' (an inline repro-taskgraph document)"
            )
        graph: Optional[TaskGraph] = None
        graph_key: Optional[str] = None
        if graph_doc is not None:
            # The inline graph is registered like a POSTed one (so later
            # requests can name it by fingerprint) but runs from the object
            # just built, not from its shared-memory copy.
            graph, registered = self._ingest(graph_doc)
            fingerprint = registered["fingerprint"]
        elif not isinstance(fingerprint, str):
            raise BadRequestError("'fingerprint' must be a string")
        else:
            graph_key = self._graphs.get(fingerprint)
            if graph_key is None:
                raise UnknownGraphError(
                    f"no graph registered with fingerprint {fingerprint!r}; "
                    f"POST it to /v1/graphs first"
                )
        procs = payload.get("procs")
        if procs is not None and (
            not isinstance(procs, int) or isinstance(procs, bool) or procs < 1
        ):
            raise BadRequestError("'procs' must be an integer >= 1")
        machine_doc = payload.get("machine")
        machine: Optional[MachineModel] = None
        if machine_doc is not None:
            if not isinstance(machine_doc, dict):
                raise BadRequestError("'machine' must be a JSON object")
            try:
                machine = MachineModel.from_dict(machine_doc)
            except (TypeError, ValueError) as exc:
                raise BadRequestError(f"invalid 'machine': {exc}") from None
        base = self.scheduler.options
        if machine is None:
            machine = base.machine
        if machine is None:
            if procs is None:
                raise BadRequestError("'procs' must be an integer >= 1")
            machine = MachineModel(procs)
        elif procs is not None and procs != machine.num_procs:
            raise BadRequestError(
                f"'procs' ({procs}) conflicts with machine.num_procs "
                f"({machine.num_procs})"
            )
        algo = payload.get("algo", base.algorithm)
        if not isinstance(algo, str):
            raise BadRequestError("'algo' must be a string")
        overrides: Dict[str, Any] = {"algorithm": algo}
        for key in ("validate", "certify"):
            if key in payload:
                if not isinstance(payload[key], bool):
                    raise BadRequestError(f"'{key}' must be a boolean")
                overrides[key] = payload[key]
        base_fingerprint = payload.get("base_fingerprint")
        if base_fingerprint is not None:
            # Delta request: warm-start against the named base schedule.
            # Purely an execution hint — the reply is bit-identical to a
            # cold run, so the coalescing/cache key is unaffected and an
            # unknown or unusable base silently runs cold.
            if not isinstance(base_fingerprint, str):
                raise BadRequestError("'base_fingerprint' must be a string")
            overrides["warm_start"] = True
        tenant = payload.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise BadRequestError("'tenant' must be a non-empty string")
        tag = payload.get("tag", "")
        if not isinstance(tag, str):
            raise BadRequestError("'tag' must be a string")
        options = replace(base, **overrides)
        key = make_cache_key(
            fingerprint, machine, algo, options.validate, options.certify
        )
        job = BatchJob(
            graph=graph, algo=algo, tag=tag, machine=machine,
            graph_key=graph_key, base_fingerprint=base_fingerprint,
        )
        return _Request(
            key=key, job=job, options=options, tenant=tenant, machine=machine,
        )

    async def _dispatch_loop(self) -> None:
        while True:
            tenant, work = await self.queue.get()
            del tenant  # fairness already applied by the queue order
            self._active += 1
            self.instruments.inflight(self._active)
            self.instruments.queue_depth(self.queue.qsize())
            self.instruments.observe_queue_wait(
                time.monotonic() - work.enqueued_at
            )
            started = time.monotonic()
            try:
                result = await asyncio.to_thread(
                    self._runner, work.request.job, work.request.options
                )
            except asyncio.CancelledError:
                if not work.future.done():
                    work.future.cancel()
                raise
            except Exception as exc:
                if not work.future.done():
                    work.future.set_exception(exc)
            else:
                if not work.future.done():
                    work.future.set_result(result)
            finally:
                elapsed = time.monotonic() - started
                self.admission.observe_service(elapsed)
                self.instruments.observe_service(elapsed)
                self._inflight.pop(work.request.key, None)
                self._active -= 1
                self.instruments.inflight(self._active)
                self.queue.task_done()
            # Drop the finished job now: an inline job holds its graph, and
            # freeing that on the next get() would count as queue wait.
            del work


def _consume_exception(future: "asyncio.Future[BatchResult]") -> None:
    if not future.cancelled():
        future.exception()


def _result_payload(
    result: BatchResult,
    coalesced: bool,
    machine: Optional[MachineModel] = None,
) -> Dict[str, Any]:
    """The JSON summary for one completed schedule."""
    payload: Dict[str, Any] = {
        "ok": result.ok,
        "tag": result.tag,
        "algo": result.algo,
        "procs": result.procs,
        "num_tasks": result.num_tasks,
        "makespan": result.makespan,
        "speedup": result.speedup,
        "procs_used": result.procs_used,
        "seconds": result.seconds,
        "cached": result.cached,
        "coalesced": coalesced,
        "attempts": result.attempts,
        "certified": result.certified,
    }
    if machine is not None:
        payload["machine"] = machine.to_dict()
    if result.phases is not None:
        payload["phases"] = dict(result.phases)
    if result.warm is not None:
        payload["warm"] = dict(result.warm)
    if result.error is not None:
        payload["error"] = result.error
        payload["error_kind"] = result.error_kind
    return payload


# ---------------------------------------------------------------------------
# The HTTP layer: hand-rolled HTTP/1.1 over asyncio streams.
# ---------------------------------------------------------------------------


async def _read_request(
    line: bytes, reader: asyncio.StreamReader, max_body: int
) -> Tuple[str, str, Dict[str, str], bytes, bool]:
    """Parse the rest of the request whose request line is ``line``.

    Returns ``(method, path, headers, body, keep_alive)``.  Raises
    :class:`BadRequestError` on malformed framing and :class:`ShedError`
    never — overload is an application decision, not a parsing one.
    """
    try:
        method, target, version = line.decode("latin-1").split()
    except ValueError:
        raise BadRequestError("malformed request line") from None
    headers: Dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise BadRequestError(f"malformed header line: {raw!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0") or "0"
    try:
        length = int(length_text)
    except ValueError:
        raise BadRequestError(
            f"bad Content-Length: {length_text!r}"
        ) from None
    if length < 0 or length > max_body:
        raise _PayloadTooLarge(length)
    body = await reader.readexactly(length) if length else b""
    connection = headers.get("connection", "").lower()
    keep_alive = version.upper() != "HTTP/1.0" and connection != "close"
    return method.upper(), target, headers, body, keep_alive


class _PayloadTooLarge(Exception):
    def __init__(self, length: int) -> None:
        super().__init__(f"request body of {length} bytes exceeds the limit")
        self.length = length


def _render_response(response: Response, keep_alive: bool) -> bytes:
    head = [
        f"HTTP/1.1 {response.status} {response.reason}",
        f"Content-Type: {response.content_type}",
        f"Content-Length: {len(response.body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    head.extend(f"{name}: {value}" for name, value in response.headers)
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + response.body


class _HttpFrontend:
    """Connection handling + per-request instrumentation for a service."""

    def __init__(self, service: SchedulingService) -> None:
        self.service = service
        self._conn_tasks: Set["asyncio.Task[None]"] = set()
        # Connections waiting for their next request line: no response owed.
        self._idle: Set[asyncio.StreamWriter] = set()
        self._closing = False

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            await self._serve_connection(reader, writer)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while not self._closing:
            self._idle.add(writer)
            try:
                line = await reader.readline()
            except ConnectionError:
                return
            finally:
                self._idle.discard(writer)
            if not line:
                return
            try:
                parsed = await _read_request(
                    line, reader, self.service.config.max_body_bytes
                )
            except _PayloadTooLarge as exc:
                writer.write(
                    _render_response(
                        _plain_error(413, str(exc)), keep_alive=False
                    )
                )
                await writer.drain()
                return
            except BadRequestError as exc:
                writer.write(
                    _render_response(
                        _plain_error(400, str(exc)), keep_alive=False
                    )
                )
                await writer.drain()
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            method, path, _headers, body, keep_alive = parsed
            started = time.monotonic()
            response = await route(self.service, method, path, body)
            self.service.instruments.request(
                endpoint_label(path),
                response.status,
                time.monotonic() - started,
            )
            keep_alive = keep_alive and not self._closing
            writer.write(_render_response(response, keep_alive))
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                return
            if not keep_alive:
                return

    def close_idle(self) -> None:
        """Start the drain: close every connection with no request in
        flight (it has no response left to read).  A connection that is
        mid-request gets its response, with ``Connection: close``."""
        self._closing = True
        for writer in list(self._idle):
            writer.close()

    async def wait_idle(self, grace: float) -> None:
        """Give open connections up to ``grace`` seconds to finish."""
        pending = {t for t in self._conn_tasks if not t.done()}
        if pending:
            await asyncio.wait(pending, timeout=grace)


def _plain_error(status: int, message: str) -> Response:
    body = (json.dumps({"error": message}) + "\n").encode("utf-8")
    return Response(status=status, body=body)


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


async def serve_async(
    config: Optional[ServeConfig] = None,
    scheduler: Optional[BatchScheduler] = None,
    shutdown: Optional[asyncio.Event] = None,
    ready: Optional[Callable[[SchedulingService, str, int], None]] = None,
) -> None:
    """Run the service until ``shutdown`` is set (or SIGTERM/SIGINT).

    ``ready`` is called once with ``(service, host, port)`` after the
    socket is bound — :class:`BackgroundServer` uses it to learn an
    ephemeral port.
    """
    cfg = config or ServeConfig()
    service = SchedulingService(scheduler=scheduler, config=cfg)
    frontend = _HttpFrontend(service)
    stop = shutdown if shutdown is not None else asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: List[signal.Signals] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-main thread or unsupported platform
    server = await asyncio.start_server(frontend.handle, cfg.host, cfg.port)
    try:
        sockname = server.sockets[0].getsockname()
        host, port = str(sockname[0]), int(sockname[1])
        service.start()
        print(f"serving on {host}:{port}", flush=True)
        if ready is not None:
            ready(service, host, port)
        await stop.wait()
        print("draining: completing in-flight jobs...", flush=True)
        server.close()
        frontend.close_idle()
        await service.drain()
        await frontend.wait_idle(cfg.drain_grace)
        print("drained; bye", flush=True)
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
        server.close()
        service.close()


def serve(
    config: Optional[ServeConfig] = None,
    scheduler: Optional[BatchScheduler] = None,
) -> None:
    """Blocking entry point: run until SIGTERM/SIGINT, then drain."""
    asyncio.run(serve_async(config=config, scheduler=scheduler))


class BackgroundServer:
    """A service running on a dedicated thread — for tests and benchmarks.

    ::

        with BackgroundServer(ServeConfig(port=0)) as srv:
            url = f"http://{srv.host}:{srv.port}"
            ...                         # urllib / raw sockets against url
        # __exit__ triggers the drain and joins the thread

    The signal handlers are skipped automatically (not the main thread);
    :meth:`stop` is the SIGTERM equivalent.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        scheduler: Optional[BatchScheduler] = None,
    ) -> None:
        self.config = config or ServeConfig(port=0)
        self._scheduler = scheduler
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self.service: Optional[SchedulingService] = None
        self.host: str = self.config.host
        self.port: int = 0

    def _on_ready(
        self, service: SchedulingService, host: str, port: int
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._ready.set()

    def _main(self) -> None:
        async def body() -> None:
            self._loop = asyncio.get_running_loop()
            self._shutdown = asyncio.Event()
            await serve_async(
                config=self.config,
                scheduler=self._scheduler,
                shutdown=self._shutdown,
                ready=self._on_ready,
            )

        try:
            asyncio.run(body())
        except Exception as exc:  # pragma: no cover - surfaced in start()/stop()
            self._error = exc
        finally:
            self._ready.set()

    def start(self) -> "BackgroundServer":
        if self._thread is not None:
            raise RuntimeError("BackgroundServer already started")
        self._thread = threading.Thread(
            target=self._main, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        if self.port == 0:
            raise RuntimeError("server did not come up within 30s")
        return self

    def stop(self) -> None:
        """Trigger the drain (SIGTERM equivalent) and join the thread."""
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None and loop.is_running():
            loop.call_soon_threadsafe(shutdown.set)
        if self._thread is not None:
            self._thread.join(timeout=60.0)
        if self._error is not None:
            raise RuntimeError("server crashed") from self._error

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
