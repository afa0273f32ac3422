"""Result-cache hits answered at admission, and the state the service's
event loop shares with its dispatcher thread.

A request whose answer the scheduler's result cache holds is answered on
the event loop, right after the in-flight coalescing check: it never waits
in the weighted-fair queue or for the dispatcher.  These tests hold the
dispatcher on a gated computation to show that hits do not wait, compare a
hit's reply with the queued path's answer field for field, count what one
server reports over rounds of keyed traffic, and stress the two structures
both threads touch (the result cache and the metrics registry).
"""

import asyncio
import concurrent.futures
import json
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.batch import BatchResult, BatchScheduler
from repro.graph.io import to_json
from repro.obs import MetricsRegistry, parse_prometheus
from repro.resultcache import ResultCache
from repro.serve import (
    BackgroundServer,
    SchedulingService,
    ServeConfig,
    ShedError,
    route,
)
from repro.serve.server import TRACE_EVENTS, _result_payload
from repro.util.rng import make_rng
from repro.workloads import lu

#: The procs of the request whose computation the gated runner holds.
GATED_PROCS = 3


def _graph_doc(seed=0):
    return json.loads(to_json(lu(5, make_rng(seed))))


class _Gated:
    """A service whose runner is ``scheduler.run_one``, held on a gate for
    requests with ``GATED_PROCS`` processors."""

    def __init__(self, max_backlog=8):
        self.scheduler = BatchScheduler(workers=1)
        self.gate = threading.Event()
        self.held = threading.Event()
        self.service = SchedulingService(
            scheduler=self.scheduler,
            config=ServeConfig(max_backlog=max_backlog),
            runner=self._run,
        )
        reg = self.service.register_graph({"graph": _graph_doc()})
        self.fp = reg["fingerprint"]

    def _run(self, job, options):
        if job.machine.num_procs == GATED_PROCS:
            self.held.set()
            self.gate.wait(timeout=30.0)
        return self.scheduler.run_one(job, options=options)

    def body(self, procs):
        return json.dumps({"fingerprint": self.fp, "procs": procs}).encode()

    async def hold_dispatcher(self):
        """Submit the gated request; return once the runner holds it."""
        blocked = asyncio.ensure_future(
            self.service.submit({"fingerprint": self.fp, "procs": GATED_PROCS})
        )
        assert await asyncio.to_thread(self.held.wait, 10.0)
        return blocked

    def close(self):
        self.gate.set()
        self.service.close()
        self.scheduler.close()


class TestHitsAtAdmission:
    def test_hit_is_answered_while_the_dispatcher_is_held(self):
        gated = _Gated()
        try:
            async def body():
                gated.service.start()
                first = await gated.service.submit(
                    {"fingerprint": gated.fp, "procs": 2})
                blocked = await gated.hold_dispatcher()
                hit = await asyncio.wait_for(
                    route(gated.service, "POST", "/v1/schedule",
                          gated.body(2)),
                    timeout=5.0,
                )
                answered_before_gate = not gated.gate.is_set()
                gated.gate.set()
                await blocked
                await gated.service.drain()
                return first, hit, answered_before_gate

            first, hit, answered_before_gate = asyncio.run(body())
            assert answered_before_gate
            assert hit.status == 200
            reply = json.loads(hit.body)
            assert reply["cached"] and not reply["coalesced"]
            assert reply["makespan"] == first["makespan"]
            assert gated.service.registry.total("serve_cached_total") == 1.0
        finally:
            gated.close()

    def test_hit_is_answered_at_full_backlog(self):
        gated = _Gated(max_backlog=1)
        try:
            async def body():
                gated.service.start()
                await gated.service.submit({"fingerprint": gated.fp, "procs": 2})
                blocked = await gated.hold_dispatcher()  # the one slot
                hit = await asyncio.wait_for(
                    route(gated.service, "POST", "/v1/schedule",
                          gated.body(2)),
                    timeout=5.0,
                )
                miss = await route(gated.service, "POST", "/v1/schedule",
                                   gated.body(4))
                answered_before_gate = not gated.gate.is_set()
                gated.gate.set()
                await blocked
                await gated.service.drain()
                return hit, miss, answered_before_gate

            hit, miss, answered_before_gate = asyncio.run(body())
            assert answered_before_gate
            assert hit.status == 200 and json.loads(hit.body)["cached"]
            assert miss.status == 429  # the backlog really was full
            registry = gated.service.registry
            assert registry.total("serve_shed_total") == 1.0
            # Two computed requests were admitted; the hit added no backlog.
            backlog = next(h for h in registry.histograms()
                           if h.name == "serve_admitted_backlog")
            assert backlog.count == 2
        finally:
            gated.close()

    def test_hit_is_refused_while_draining(self):
        gated = _Gated()
        try:
            async def body():
                gated.service.start()
                await gated.service.submit({"fingerprint": gated.fp, "procs": 2})
                blocked = await gated.hold_dispatcher()
                drainer = asyncio.ensure_future(gated.service.drain())
                await asyncio.sleep(0.05)
                assert gated.service.draining
                with pytest.raises(ShedError) as exc:
                    await gated.service.submit(
                        {"fingerprint": gated.fp, "procs": 2})
                refused = await route(gated.service, "POST", "/v1/schedule",
                                      gated.body(2))
                gated.gate.set()
                await blocked
                await asyncio.wait_for(drainer, timeout=10.0)
                return exc.value, refused

            shed, refused = asyncio.run(body())
            assert "draining" in shed.reason
            assert refused.status == 429
            assert gated.service.registry.total("serve_cached_total") == 0.0
        finally:
            gated.close()

    @pytest.mark.parametrize("kind", ["inline", "keyed", "machine"])
    def test_hit_reply_equals_the_queued_paths_answer(self, kind):
        doc = _graph_doc()
        payloads = {
            "inline": {"graph": doc, "procs": 3, "certify": True, "tag": "i"},
            "keyed": {"procs": 2, "algo": "mcp", "tag": "k"},
            "machine": {"machine": {"num_procs": 2, "latency": 0.5,
                                    "comm_scale": 2.0},
                        "validate": True, "tag": "m"},
        }
        service = SchedulingService(config=ServeConfig(max_backlog=8))
        try:
            payload = payloads[kind]
            if kind != "inline":
                reg = service.register_graph({"graph": doc})
                payload = dict(payload, fingerprint=reg["fingerprint"])

            async def body():
                service.start()
                computed = await service.submit(dict(payload))
                hit = await service.submit(dict(payload))
                await service.drain()
                return computed, hit

            computed, hit = asyncio.run(body())
            assert not computed["cached"] and hit["cached"]
            # What the queued path returns for the same request: the reply
            # built from schedule_many's cache-pass result.
            request = service._prepare(dict(payload))
            queued = service.scheduler.run_one(
                request.job, options=request.options)
            assert queued.cached
            expected = _result_payload(
                queued, coalesced=False, machine=request.machine)
            assert hit == expected
        finally:
            service.close()

    def test_runner_that_never_fills_the_cache_sees_every_request(self):
        calls = []

        def runner(job, options):
            calls.append(job.machine.num_procs)
            return BatchResult(
                tag=job.tag, algo=job.algo, procs=job.machine.num_procs,
                num_tasks=15, makespan=10.0, speedup=1.5,
                procs_used=job.machine.num_procs,
                seconds=0.001,
            )

        service = SchedulingService(
            config=ServeConfig(max_backlog=8), runner=runner)
        try:
            fp = service.register_graph({"graph": _graph_doc()})["fingerprint"]

            async def body():
                service.start()
                replies = [await service.submit({"fingerprint": fp,
                                                 "procs": 2})
                           for _ in range(3)]
                await service.drain()
                return replies

            replies = asyncio.run(body())
            assert len(calls) == 3
            assert not any(r["cached"] for r in replies)
        finally:
            service.close()


class TestKeyedTrafficCounts:
    """Rounds of the keyed sequence (a registration, then six waves of
    four tenants asking for six (P, algorithm) results) over one server."""

    KEYS = tuple((procs, algo) for procs in (2, 3, 4) for algo in ("flb", "mcp"))
    WAVES = ((0, 0, 1, 2), (3, 3, 4, 5), (1, 2, 0, 3), (2, 1, 3, 0),
             (4, 5, 2, 1), (5, 4, 5, 4))
    ROUNDS = 3

    def _post(self, base, path, payload):
        req = urllib.request.Request(
            base + path, data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"}, method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def test_counts_match_the_replies(self):
        replies = []
        with BackgroundServer(ServeConfig(port=0)) as srv:
            base = f"http://{srv.host}:{srv.port}"
            with concurrent.futures.ThreadPoolExecutor(4) as pool:
                for n in range(self.ROUNDS):
                    status, reg = self._post(
                        base, "/v1/graphs", {"graph": _graph_doc(seed=n)})
                    assert status == 200
                    for wave in self.WAVES:
                        payloads = [
                            {"fingerprint": reg["fingerprint"],
                             "procs": self.KEYS[k][0],
                             "algo": self.KEYS[k][1], "certify": True,
                             "tenant": f"tenant-{tenant}"}
                            for tenant, k in enumerate(wave)
                        ]
                        answers = list(pool.map(
                            lambda p: self._post(base, "/v1/schedule", p),
                            payloads))
                        replies += [(n, p, status, body) for p, (status, body)
                                    in zip(payloads, answers)]
            with urllib.request.urlopen(base + "/metrics", timeout=30) as r:
                samples = parse_prometheus(r.read().decode())
            stats = srv.service.scheduler.cache.stats()

        assert all(status == 200 for _n, _p, status, _b in replies)
        makespans = {}
        for n, payload, _status, body in replies:
            key = (n, payload["procs"], payload["algo"])
            assert makespans.setdefault(key, body["makespan"]) == body["makespan"]
        bodies = [body for _n, _p, _s, body in replies]
        cached = sum(body["cached"] for body in bodies)
        coalesced = sum(body["coalesced"] for body in bodies)
        computed = len(bodies) - cached - coalesced
        # One computation per key: a twin is either coalesced onto the
        # running one or answered from the cache once it finished.
        assert computed == self.ROUNDS * len(self.KEYS)
        assert samples["repro_serve_queue_wait_seconds_count"] == computed
        assert samples["repro_serve_service_seconds_count"] == computed
        assert samples["repro_serve_cached_total"] == cached
        assert samples["repro_serve_coalesced_total"] == coalesced
        # Each non-coalesced request counted one hit or one miss, and the
        # gauges read at scrape match the live cache.
        assert stats["hits"] + stats["misses"] == len(bodies) - coalesced
        assert samples["repro_resultcache_hits"] == stats["hits"]
        assert samples["repro_resultcache_misses"] == stats["misses"]


class TestServiceTrace:
    def test_trace_keeps_only_the_newest_events(self):
        service = SchedulingService(config=ServeConfig(max_backlog=8))
        try:
            fp = service.register_graph({"graph": _graph_doc()})["fingerprint"]
            requests = TRACE_EVENTS  # two events each: twice the bound

            async def body():
                service.start()
                for procs in range(1, requests + 1):
                    reply = await service.submit(
                        {"fingerprint": fp, "procs": procs})
                    assert reply["ok"] and not reply["cached"]
                await service.drain()

            asyncio.run(body())
            events = list(service.registry.events)
            assert len(events) == TRACE_EVENTS
            assert [e["name"] for e in events[-2:]] == ["batch.job", "batch.run"]
            assert events[-2]["attrs"]["procs"] == requests
        finally:
            service.close()
        # Batch and CLI registries still keep every event.
        registry = MetricsRegistry()
        for n in range(TRACE_EVENTS + 10):
            registry.event("x", n=n)
        assert len(registry.events) == TRACE_EVENTS + 10


class _SlowHashKey:
    """A cache key whose hash and equality run Python code, so a thread
    switch can fall inside a dictionary operation of the cache."""

    def __init__(self, n):
        self.n = n

    def __hash__(self):
        return hash(self.n)

    def __eq__(self, other):
        return isinstance(other, _SlowHashKey) and other.n == self.n


class TestSharedBetweenThreads:
    """The loop reads the result cache and creates metrics while the
    dispatcher thread does the same; a short switch interval makes any
    unguarded check-then-act lose."""

    def _race(self, *bodies):
        errors = []

        def guarded(fn):
            def run():
                try:
                    fn()
                except Exception as exc:  # surfaced by the assertion below
                    errors.append(exc)
            return run

        threads = [threading.Thread(target=guarded(fn)) for fn in bodies]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_result_cache_get_while_put_evicts(self):
        cache = ResultCache(capacity=2)
        keys = [_SlowHashKey(i) for i in range(5)]
        gets = 50000
        stop = threading.Event()
        oversize = []

        def writer():
            i = 0
            while not stop.is_set():
                cache.put(keys[i % len(keys)], i)
                i += 1

        def reader():
            try:
                for i in range(gets):
                    cache.get(keys[i % len(keys)])
                    size = len(cache)
                    if size > cache.capacity:
                        oversize.append(size)
            finally:
                stop.set()

        self._race(writer, reader)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == gets
        assert stats["hits"] > 0 and stats["evictions"] > 0
        assert oversize == [] and stats["size"] <= cache.capacity

    def test_registry_get_or_create_yields_one_instrument(self):
        registry = MetricsRegistry()
        names = [f"race_{i}" for i in range(20000)]
        seen = {0: [], 1: []}

        def creator(side):
            def run():
                seen[side] = [registry.gauge(name) for name in names]
            return run

        self._race(creator(0), creator(1))
        assert all(a is b for a, b in zip(seen[0], seen[1], strict=True))
        assert all(registry.gauge(name) is g
                   for name, g in zip(names, seen[0], strict=True))
