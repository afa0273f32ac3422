"""Serving front-end under offered load: goodput vs shed rate.

Drives a real :class:`repro.serve.BackgroundServer` (localhost HTTP, the
wrapped scheduler running inline) with an open-loop request generator at
increasing offered rates.  Every request schedules the same registered
graph at a *distinct* processor count, so each admitted request is real
scheduling work (no result-cache hits) and the admission controller's
bounded backlog actually fills.

The interesting shape: goodput climbs with offered load until the service
saturates at roughly ``1 / service_time``, then flattens while the shed
rate (429 + ``Retry-After``) absorbs the excess — the fast-failure
behaviour the bounded queue buys over unbounded buffering.  The
``serving`` registry entry records the curve.
"""

from __future__ import annotations

import concurrent.futures
import json
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Sequence, Tuple

from repro.api import SchedulingOptions
from repro.graph.io import to_json
from repro.serve import BackgroundServer, ServeConfig
from repro.util.rng import make_rng
from repro.workloads import lu, lu_size_for_tasks

__all__ = ["LoadStep", "offered_load"]

#: Offered request rates (requests/second) for the sweep.  The top rates
#: sit well past the single-dispatcher capacity (~1/service_time) so the
#: shed-rate column actually engages.
OFFERED_RATES = (10, 50, 100, 200, 400)

#: Seconds of offered load per rate step.
WINDOW_SECONDS = 2.0

#: Admission bound — small, so the saturation knee shows at bench scale.
MAX_BACKLOG = 8


def _post(
    base: str, path: str, payload: Dict[str, Any]
) -> Tuple[int, Any, Dict[str, Any]]:
    req = urllib.request.Request(
        base + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), dict(err.headers)


class LoadStep:
    """One offered-rate step's tallies."""

    def __init__(self, offered: int) -> None:
        self.offered = offered
        self.sent = 0
        self.ok = 0
        self.shed = 0
        self.other = 0
        self.window = 0.0
        self.latencies: List[float] = []
        self.retry_hints: List[int] = []
        self._lock = threading.Lock()

    def record(self, status: int, seconds: float, headers: Dict[str, Any]) -> None:
        with self._lock:
            if status == 200:
                self.ok += 1
                self.latencies.append(seconds)
            elif status == 429:
                self.shed += 1
                hint = headers.get("Retry-After")
                if hint is not None:
                    self.retry_hints.append(int(hint))
            else:
                self.other += 1


def _drive(base: str, fingerprint: str, offered: int, window: float,
           first_procs: int) -> LoadStep:
    """Open-loop load: one request every ``1/offered`` seconds, request
    ``i`` at ``first_procs + i`` processors."""
    step = LoadStep(offered)
    n_requests = max(1, int(offered * window))

    def fire(i: int) -> None:
        payload = {
            "fingerprint": fingerprint,
            "procs": first_procs + i,  # distinct => no cache hits
            "tenant": f"tenant-{i % 4}",
            "tag": f"load-{offered}-{i}",
        }
        t0 = time.perf_counter()
        status, _body, headers = _post(base, "/v1/schedule", payload)
        step.record(status, time.perf_counter() - t0, headers)

    start = time.perf_counter()
    with concurrent.futures.ThreadPoolExecutor(max_workers=64) as pool:
        futures: List["concurrent.futures.Future[None]"] = []
        for i in range(n_requests):
            due = start + i / offered
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            futures.append(pool.submit(fire, i))
            step.sent += 1
        for fut in futures:
            fut.result()
    step.window = time.perf_counter() - start
    return step


def offered_load(
    rates: Sequence[int] = OFFERED_RATES,
    window: float = WINDOW_SECONDS,
    max_backlog: int = MAX_BACKLOG,
    tasks: int = 2000,
) -> Tuple[List[LoadStep], Dict[str, Any]]:
    """Run the offered-load sweep; returns (steps, metadata dict)."""
    graph = lu(lu_size_for_tasks(tasks), make_rng(0))
    doc = json.loads(to_json(graph))
    config = ServeConfig(
        port=0, max_backlog=max_backlog,
        options=SchedulingOptions(),
    )
    steps: List[LoadStep] = []
    with BackgroundServer(config) as srv:
        base = f"http://{srv.host}:{srv.port}"
        status, reg, _ = _post(base, "/v1/graphs", {"graph": doc})
        if status != 200:
            raise RuntimeError(f"graph registration failed: {reg}")
        fingerprint = reg["fingerprint"]
        first_procs = 3
        for offered in rates:
            steps.append(_drive(base, fingerprint, offered, window, first_procs))
            first_procs += steps[-1].sent
        with urllib.request.urlopen(base + "/metrics", timeout=30) as resp:
            metrics_text = resp.read().decode()
    meta: Dict[str, Any] = {
        "graph_tasks": graph.num_tasks,
        "max_backlog": max_backlog,
        "window_seconds": window,
        "metrics_text": metrics_text,
    }
    return steps, meta
