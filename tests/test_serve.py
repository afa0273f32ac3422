"""The scheduling service: fairness, admission, coalescing, drain, HTTP.

Deterministic parts run against :class:`repro.serve.SchedulingService`
with an injected runner (counting/gated stubs) driven inside
``asyncio.run`` — no sockets, no timing races.  One end-to-end class runs
the real thing over localhost via :class:`repro.serve.BackgroundServer`:
register a graph, schedule by fingerprint, hit the cache, scrape
``/metrics`` through :func:`repro.obs.parse_prometheus`, drain.
"""

import asyncio
import heapq
import json
import logging
import random
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import SchedulingOptions
from repro.batch import BatchResult, BatchScheduler
from repro.cli import main
from repro.graph.io import to_json
from repro.obs import parse_prometheus
from repro.serve import (
    AdmissionController,
    BackgroundServer,
    QueueFull,
    SchedulingService,
    ServeConfig,
    ShedError,
    UnenforceableTimeoutError,
    WeightedFairQueue,
    route,
)
from repro.serve.admission import DEFAULT_SERVICE_ESTIMATE, EWMA_ALPHA
from repro.serve.handlers import json_response
from repro.util.rng import make_rng
from repro.workloads import lu, paper_example


def _graph():
    return lu(5, make_rng(0))


def _graph_doc():
    return json.loads(to_json(_graph()))


def _stub_result(job, options):
    """A canned BatchResult shaped like a successful inline run."""
    return BatchResult(
        tag=job.tag, algo=job.algo, procs=job.machine.num_procs,
        num_tasks=15, makespan=10.0, speedup=1.5,
        procs_used=job.machine.num_procs, seconds=0.001,
    )


# -- the weighted-fair queue -------------------------------------------------

class TestWeightedFairQueue:
    def _drain(self, q, n):
        async def body():
            out = []
            for _ in range(n):
                tenant, _item = await q.get()
                q.task_done()
                out.append(tenant)
            return out
        return asyncio.run(body())

    def test_weighted_share_under_contention(self):
        q = WeightedFairQueue(weights={"a": 3.0, "b": 1.0})
        for i in range(8):
            q.put_nowait("a", f"a{i}")
            q.put_nowait("b", f"b{i}")
        order = self._drain(q, 8)
        # Over a backlogged window, tenant shares follow the 3:1 weights.
        assert order.count("a") == 6 and order.count("b") == 2

    def test_equal_weights_alternate(self):
        q = WeightedFairQueue()
        for i in range(4):
            q.put_nowait("x", i)
            q.put_nowait("y", i)
        order = self._drain(q, 8)
        assert order.count("x") == 4 and order.count("y") == 4

    def test_fifo_within_tenant(self):
        q = WeightedFairQueue()
        for i in range(5):
            q.put_nowait("t", i)

        async def body():
            items = []
            for _ in range(5):
                _tenant, item = await q.get()
                q.task_done()
                items.append(item)
            return items

        assert asyncio.run(body()) == [0, 1, 2, 3, 4]

    def test_late_tenant_is_not_starved(self):
        q = WeightedFairQueue()
        for i in range(10):
            q.put_nowait("busy", i)
        self._drain(q, 5)
        q.put_nowait("late", "first")
        # The newcomer is stamped at the current virtual clock, not behind
        # the incumbent's whole backlog.
        order = self._drain(q, 3)
        assert "late" in order

    def test_bounded_and_raises_queue_full(self):
        q = WeightedFairQueue(maxsize=2)
        q.put_nowait("t", 1)
        q.put_nowait("t", 2)
        assert q.full()
        with pytest.raises(QueueFull):
            q.put_nowait("t", 3)

    def test_join_waits_for_task_done(self):
        q = WeightedFairQueue()
        q.put_nowait("t", 1)

        async def body():
            joined = asyncio.ensure_future(q.join())
            await asyncio.sleep(0)
            assert not joined.done()
            await q.get()
            await asyncio.sleep(0)
            assert not joined.done()  # gotten but not yet processed
            q.task_done()
            await asyncio.wait_for(joined, timeout=1.0)

        asyncio.run(body())

    def test_idle_tenant_stamps_are_dropped(self):
        """2,000 distinct tenants, each dequeued before the next arrives:
        the stamp map stays within twice the backlog plus one."""
        q = WeightedFairQueue()

        async def body():
            peak = 0
            for i in range(2000):
                q.put_nowait(f"tenant-{i}", i)
                peak = max(peak, len(q._tenant_vf))
                await q.get()
                q.task_done()
            return peak

        assert asyncio.run(body()) <= 3

    def test_interleaved_order_matches_stamps_kept_forever(self):
        """A fixed interleaving of puts and gets over weighted, unweighted
        and one-off tenants dequeues in the order of the stamp rule with
        every tenant's last stamp kept, while the sweeps do shrink the map."""
        weights = {"a": 3.0, "b": 0.5}
        rng = random.Random(7)
        ops = []  # (tenant, item) puts; None is a get when anything is queued
        for i in range(3000):
            if rng.random() < 0.45:
                ops.append(None)
            else:
                tenant = rng.choice(["a", "b", f"t{rng.randrange(40)}", f"once-{i}"])
                ops.append((tenant, i))

        vtime, last, heap, want = 0.0, {}, [], []
        for op in ops:
            if op is None:
                if heap:
                    vtime, item = heapq.heappop(heap)
                    want.append(item)
            else:
                tenant, item = op
                vf = max(vtime, last.get(tenant, 0.0)) + 1.0 / weights.get(tenant, 1.0)
                last[tenant] = vf
                heapq.heappush(heap, (vf, item))  # items rise with put order

        q = WeightedFairQueue(weights=weights)

        async def body():
            got, seen, dropped = [], set(), False
            for op in ops:
                if op is None:
                    if q.qsize():
                        got.append((await q.get())[1])
                        q.task_done()
                else:
                    q.put_nowait(*op)
                    seen.add(op[0])
                    dropped = dropped or len(q._tenant_vf) < len(seen)
            return got, dropped

        got, dropped = asyncio.run(body())
        assert got == want
        assert dropped

    def test_depths_and_weight_validation(self):
        q = WeightedFairQueue(weights={"a": 2.0})
        q.put_nowait("a", 1)
        q.put_nowait("b", 2)
        assert q.depths() == {"a": 1, "b": 1}
        assert q.weight_of("a") == 2.0 and q.weight_of("b") == 1.0
        with pytest.raises(ValueError):
            WeightedFairQueue(weights={"bad": 0.0})


# -- admission control -------------------------------------------------------

class TestAdmissionController:
    def test_sheds_at_the_backlog_bound(self):
        adm = AdmissionController(max_backlog=2)
        adm.admit(0)
        adm.admit(1)
        with pytest.raises(ShedError) as exc:
            adm.admit(2)
        assert exc.value.retry_after >= 1
        assert "backlog full" in exc.value.reason

    def test_draining_sheds_unconditionally(self):
        adm = AdmissionController(max_backlog=100)
        with pytest.raises(ShedError) as exc:
            adm.admit(0, draining=True)
        assert "draining" in exc.value.reason

    def test_retry_after_tracks_observed_service_time(self):
        adm = AdmissionController(max_backlog=10)
        adm.observe_service(2.0)  # first sample replaces the prior
        assert adm.service_estimate == 2.0
        # 5 queued jobs at ~2s each through one dispatcher: ~12s hint.
        assert adm.retry_after(5) == 12

    def test_retry_after_is_clamped_and_integral(self):
        adm = AdmissionController(max_backlog=10)
        adm.observe_service(1e-6)
        assert adm.retry_after(0) == 1  # never 0: the header must back off
        adm.observe_service(1e9)
        assert adm.retry_after(1000) == 120

    def test_ewma_converges(self):
        adm = AdmissionController(max_backlog=10)
        assert adm.service_estimate == DEFAULT_SERVICE_ESTIMATE
        adm.observe_service(1.0)
        adm.observe_service(3.0)
        assert adm.service_estimate == pytest.approx(1.0 + EWMA_ALPHA * 2.0)
        assert adm.observations == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_backlog=0)


# -- the service core (injected runner, no sockets) --------------------------

class TestCoalescing:
    def test_identical_concurrent_requests_compute_once(self):
        calls = []

        def runner(job, options):
            calls.append(job)
            time.sleep(0.05)  # hold the computation open across submits
            return _stub_result(job, options)

        service = SchedulingService(
            config=ServeConfig(max_backlog=16), runner=runner
        )
        try:
            reg = service.register_graph({"graph": _graph_doc()})
            payload = {"fingerprint": reg["fingerprint"], "procs": 4}

            async def body():
                service.start()
                results = await asyncio.gather(
                    *(service.submit(dict(payload)) for _ in range(5))
                )
                await service.drain()
                return results

            results = asyncio.run(body())
            assert len(calls) == 1  # one dispatch served all five requests
            assert sum(r["coalesced"] for r in results) == 4
            assert all(r["ok"] and r["makespan"] == 10.0 for r in results)
            assert service.registry.total("serve_coalesced_total") == 4.0
        finally:
            service.close()

    def test_different_options_do_not_coalesce(self):
        calls = []

        def runner(job, options):
            calls.append((job.machine.num_procs, options.certify))
            time.sleep(0.02)
            return _stub_result(job, options)

        service = SchedulingService(
            config=ServeConfig(max_backlog=16), runner=runner
        )
        try:
            reg = service.register_graph({"graph": _graph_doc()})
            fp = reg["fingerprint"]

            async def body():
                service.start()
                results = await asyncio.gather(
                    service.submit({"fingerprint": fp, "procs": 2}),
                    service.submit({"fingerprint": fp, "procs": 3}),
                    service.submit({"fingerprint": fp, "procs": 2,
                                    "certify": True}),
                )
                await service.drain()
                return results

            results = asyncio.run(body())
            assert len(calls) == 3
            assert not any(r["coalesced"] for r in results)
        finally:
            service.close()


class TestSheddingAndDrain:
    def test_backlog_bound_sheds_with_retry_after(self):
        gate = threading.Event()

        def runner(job, options):
            gate.wait(timeout=10.0)
            return _stub_result(job, options)

        service = SchedulingService(
            config=ServeConfig(max_backlog=1), runner=runner
        )
        try:
            reg = service.register_graph({"graph": _graph_doc()})
            fp = reg["fingerprint"]

            async def body():
                service.start()
                first = asyncio.ensure_future(
                    service.submit({"fingerprint": fp, "procs": 2})
                )
                await asyncio.sleep(0.05)  # let it occupy the one slot
                with pytest.raises(ShedError) as exc:
                    await service.submit({"fingerprint": fp, "procs": 3})
                assert exc.value.retry_after >= 1
                gate.set()
                result = await first
                await service.drain()
                return result

            result = asyncio.run(body())
            assert result["ok"] and not result["coalesced"]
            assert service.registry.total("serve_shed_total") == 1.0
        finally:
            service.close()

    def test_drain_completes_inflight_and_sheds_new_work(self):
        gate = threading.Event()
        done = []

        def runner(job, options):
            gate.wait(timeout=10.0)
            done.append(job.machine.num_procs)
            return _stub_result(job, options)

        service = SchedulingService(
            config=ServeConfig(max_backlog=8), runner=runner
        )
        try:
            reg = service.register_graph({"graph": _graph_doc()})
            fp = reg["fingerprint"]

            async def body():
                service.start()
                jobs = [
                    asyncio.ensure_future(
                        service.submit({"fingerprint": fp, "procs": p})
                    )
                    for p in (2, 3, 4)
                ]
                await asyncio.sleep(0.05)
                drainer = asyncio.ensure_future(service.drain())
                await asyncio.sleep(0.05)
                assert service.draining
                # New work is refused the moment draining begins...
                with pytest.raises(ShedError) as exc:
                    await service.submit({"fingerprint": fp, "procs": 5})
                assert "draining" in exc.value.reason
                # ...but everything already admitted runs to completion.
                gate.set()
                results = await asyncio.gather(*jobs)
                await asyncio.wait_for(drainer, timeout=10.0)
                return results

            results = asyncio.run(body())
            assert sorted(done) == [2, 3, 4]
            assert all(r["ok"] for r in results)
            assert service.registry.value("serve_draining") == 1.0
        finally:
            service.close()


class TestRouteLayer:
    """The HTTP surface without sockets: route() against a stub service."""

    def _service(self):
        return SchedulingService(
            config=ServeConfig(max_backlog=8), runner=_stub_result
        )

    def _route(self, service, method, path, payload=None):
        body = b"" if payload is None else json.dumps(payload).encode()
        return asyncio.run(route(service, method, path, body))

    def test_schedule_roundtrip_and_error_codes(self):
        service = self._service()
        try:
            doc = _graph_doc()
            resp = self._route(service, "POST", "/v1/graphs", {"graph": doc})
            assert resp.status == 200
            fp = json.loads(resp.body)["fingerprint"]

            async def body():
                service.start()
                ok = await route(
                    service, "POST", "/v1/schedule",
                    json.dumps({"fingerprint": fp, "procs": 4}).encode(),
                )
                await service.drain()
                return ok

            ok = asyncio.run(body())
            assert ok.status == 200
            assert json.loads(ok.body)["makespan"] == 10.0  # the stub's answer
        finally:
            service.close()

    def test_shed_response_carries_retry_after_header(self):
        service = self._service()
        try:
            doc = _graph_doc()
            self._route(service, "POST", "/v1/graphs", {"graph": doc})
            fp = json.loads(
                self._route(
                    service, "POST", "/v1/graphs", {"graph": doc}
                ).body
            )["fingerprint"]

            async def body():
                await service.drain()  # no dispatcher started: immediate
                return await route(
                    service, "POST", "/v1/schedule",
                    json.dumps({"fingerprint": fp, "procs": 4}).encode(),
                )

            resp = asyncio.run(body())
            assert resp.status == 429
            headers = dict(resp.headers)
            assert int(headers["Retry-After"]) >= 1
            assert json.loads(resp.body)["retry_after"] >= 1
        finally:
            service.close()

    def test_unknown_fingerprint_404_bad_json_400_wrong_method_405(self):
        service = self._service()
        try:
            resp = asyncio.run(route(
                service, "POST", "/v1/schedule",
                json.dumps({"fingerprint": "nope", "procs": 2}).encode(),
            ))
            assert resp.status == 404
            assert self._route(service, "POST", "/v1/schedule").status == 400
            assert self._route(service, "GET", "/v1/schedule").status == 405
            assert self._route(service, "GET", "/no/such").status == 404
            bad = asyncio.run(route(service, "POST", "/v1/graphs", b"{oops"))
            assert bad.status == 400
        finally:
            service.close()

    def test_field_validation(self):
        service = self._service()
        try:
            fp = json.loads(self._route(
                service, "POST", "/v1/graphs", {"graph": _graph_doc()}
            ).body)["fingerprint"]
            for payload in (
                {"fingerprint": fp},                       # no procs
                {"fingerprint": fp, "procs": 0},
                {"fingerprint": fp, "procs": True},
                {"fingerprint": fp, "procs": 2, "tenant": ""},
                {"fingerprint": fp, "graph": _graph_doc(), "procs": 2},
                {"fingerprint": fp,
                 "machine": {"num_procs": 2, "latency": float("nan")}},
                {"fingerprint": fp,
                 "machine": {"num_procs": 2, "comm_scale": float("inf")}},
                {"fingerprint": fp,
                 "machine": {"num_procs": 2, "speeds": [1.0, float("nan")]}},
            ):
                resp = self._route(service, "POST", "/v1/schedule", payload)
                assert resp.status == 400, payload
        finally:
            service.close()

    def test_non_finite_graph_weights_are_400(self):
        # json.loads accepts NaN/Infinity literals (json.dumps writes them),
        # so they reach ingest; the graph constructor refuses them.
        service = self._service()
        try:
            bad_comm = _graph_doc()
            bad_comm["edges"][0]["comm"] = float("nan")
            bad_comp = _graph_doc()
            bad_comp["tasks"][0]["comp"] = float("inf")
            for doc in (bad_comm, bad_comp):
                resp = self._route(service, "POST", "/v1/graphs", {"graph": doc})
                assert resp.status == 400 and b"finite" in resp.body
                resp = self._route(service, "POST", "/v1/schedule",
                                   {"graph": doc, "procs": 2})
                assert resp.status == 400 and b"finite" in resp.body
        finally:
            service.close()

    def test_lone_surrogate_task_name_is_400(self):
        # "\ud800" is valid JSON and reaches ingest, but it has no UTF-8
        # form, so the fingerprint could not hash it (both routes
        # answered 500 UnicodeEncodeError); ingest now refuses the name.
        doc = _graph_doc()
        doc["tasks"][1]["name"] = "\ud800"
        service = self._service()
        try:
            resp = self._route(service, "POST", "/v1/graphs", {"graph": doc})
            assert resp.status == 400 and b"UTF-8" in resp.body, resp.body
            resp = self._route(service, "POST", "/v1/schedule",
                               {"graph": doc, "procs": 2})
            assert resp.status == 400 and b"UTF-8" in resp.body, resp.body
            assert service.health()["graphs"] == 0
        finally:
            service.close()

    def test_malformed_graph_documents_are_400(self):
        # Wrong field types and missing fields used to escape ingest as
        # KeyError/TypeError (a 500 at best) or be coerced into a different
        # graph ("src": 0.5 scheduled task 0 and answered 200).
        def broken(mutate):
            doc = _graph_doc()
            mutate(doc)
            return doc

        docs = [
            broken(lambda d: d["edges"][0].update(src=0.5)),
            broken(lambda d: d["tasks"][1].update(id=1.7)),
            broken(lambda d: d["tasks"][0].update(comp="2")),
            broken(lambda d: d["tasks"][0].update(comp=True)),
            broken(lambda d: d["tasks"][2].update(name=5)),
            broken(lambda d: d["tasks"][3].pop("comp")),
            broken(lambda d: d["edges"][0].pop("comm")),
            broken(lambda d: d.update(tasks={"id": 0})),
            broken(lambda d: d["tasks"].__setitem__(0, [0, 1.0])),
        ]
        service = self._service()
        try:
            for doc in docs:
                resp = self._route(service, "POST", "/v1/graphs", {"graph": doc})
                assert resp.status == 400, doc
                assert b"invalid task graph" in resp.body
                resp = self._route(service, "POST", "/v1/schedule",
                                   {"graph": doc, "procs": 2})
                assert resp.status == 400, doc
                assert b"invalid task graph" in resp.body
            assert service.health()["graphs"] == 0
        finally:
            service.close()

    def test_metrics_parse_roundtrip(self):
        service = self._service()
        try:
            self._route(service, "POST", "/v1/graphs", {"graph": _graph_doc()})
            resp = self._route(service, "GET", "/metrics")
            assert resp.status == 200
            assert resp.content_type.startswith("text/plain")
            families = parse_prometheus(resp.body.decode())
            assert any(name.startswith("repro_serve") for name in families)
        finally:
            service.close()

    def test_healthz_reports_drain_state(self):
        service = self._service()
        try:
            resp = self._route(service, "GET", "/healthz")
            assert json.loads(resp.body)["status"] == "ok"
            asyncio.run(service.drain())
            resp = self._route(service, "GET", "/healthz")
            assert json.loads(resp.body)["status"] == "draining"
        finally:
            service.close()


class TestInlineGraphs:
    """An inline graph runs from the object ingest just built (no decode
    from shared memory) and is still registered for later requests."""

    def test_inline_runs_without_attach_and_registers(self, monkeypatch):
        from repro import graphstore

        attached = []
        real_attach = graphstore.attach

        def counting_attach(name, *args, **kwargs):
            attached.append(name)
            return real_attach(name, *args, **kwargs)

        monkeypatch.setattr(graphstore, "attach", counting_attach)
        graphstore.clear_worker_cache()
        service = SchedulingService(config=ServeConfig(max_backlog=8, workers=1))
        try:
            doc = _graph_doc()

            async def body():
                service.start()
                inline = await service.submit(
                    {"graph": doc, "procs": 3, "certify": True})
                reg = service.register_graph({"graph": doc})
                assert not reg["registered"]  # the inline request did it
                fp = reg["fingerprint"]
                again = await service.submit(
                    {"fingerprint": fp, "procs": 3, "certify": True})
                other = await service.submit({"fingerprint": fp, "procs": 2})
                await service.drain()
                return inline, again, other

            inline, again, other = asyncio.run(body())
            assert inline["ok"] and inline["certified"] and not inline["cached"]
            assert inline["num_tasks"] == len(doc["tasks"])
            assert again["cached"] and again["makespan"] == inline["makespan"]
            assert other["ok"] and not other["cached"]
            # Only the keyed request with new options decoded the segment.
            assert len(attached) == 1
            assert service.health()["graphs"] == 1
        finally:
            service.close()
            graphstore.clear_worker_cache()


class TestTenantLabels:
    def test_label_set_is_the_configured_tenants_plus_other(self):
        """2,000 requests under 1,801 tenant names add two
        ``serve_tenant_requests_total`` series: the configured tenant's and
        ``other``."""
        service = SchedulingService(
            config=ServeConfig(max_backlog=8, tenant_weights={"gold": 2.0}),
            runner=_stub_result,
        )
        try:
            resp = asyncio.run(route(
                service, "POST", "/v1/graphs",
                json.dumps({"graph": _graph_doc()}).encode(),
            ))
            fp = json.loads(resp.body)["fingerprint"]

            async def body():
                service.start()
                for i in range(2000):
                    tenant = "gold" if i % 10 == 0 else f"client-{i}"
                    payload = {"fingerprint": fp, "procs": 4, "tenant": tenant}
                    ok = await route(
                        service, "POST", "/v1/schedule", json.dumps(payload).encode()
                    )
                    assert ok.status == 200
                await service.drain()

            asyncio.run(body())
            text = asyncio.run(route(service, "GET", "/metrics", b"")).body.decode()
            series = {
                name: value for name, value in parse_prometheus(text).items()
                if name.startswith("repro_serve_tenant_requests_total")
            }
            assert series == {
                'repro_serve_tenant_requests_total{tenant="gold"}': 200,
                'repro_serve_tenant_requests_total{tenant="other"}': 1800,
            }
        finally:
            service.close()


# -- timeouts the service cannot enforce -------------------------------------

def _refuse_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


class TestStrictJson:
    """Every reply is RFC 8259 JSON, a failed schedule's included: no NaN,
    no Infinity (``json.loads`` reads both unless told otherwise)."""

    def _post(self, base, payload):
        req = urllib.request.Request(
            base + "/v1/schedule", data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"}, method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as err:
            status, body = err.code, err.read()
        return status, json.loads(body, parse_constant=_refuse_constant)

    def test_a_failed_schedule_has_null_summary_numbers(self):
        doc = json.loads(to_json(paper_example()))
        with BackgroundServer(ServeConfig(port=0)) as srv:
            status, reply = self._post(
                f"http://{srv.host}:{srv.port}", {"graph": doc, "procs": 2, "algo": "bogus"}
            )
        assert status == 422 and reply["error_kind"] == "scheduler-error"
        assert reply["makespan"] is None and reply["speedup"] is None

    @pytest.mark.parametrize("certify", [False, True])
    def test_an_overflowing_schedule_is_refused(self, certify):
        # Every weight is finite, so ingest accepts the graph; the sum of
        # two is not, so the schedule's makespan overflows to infinity.
        doc = json.loads(to_json(paper_example()))
        for task in doc["tasks"]:
            task["comp"] = 1e308
        with BackgroundServer(ServeConfig(port=0)) as srv:
            base = f"http://{srv.host}:{srv.port}"
            replies = [self._post(base, {"graph": doc, "procs": 2, "certify": certify})
                       for _ in range(2)]
        for status, reply in replies:
            assert status == 422 and reply["error_kind"] == "invalid-schedule"
            assert reply["makespan"] is None and reply["speedup"] is None
            assert not reply["cached"]  # a refused schedule is never cached

    def test_a_non_finite_field_cannot_be_encoded(self):
        with pytest.raises(ValueError):
            json_response(200, {"makespan": float("inf")})


class TestTimeoutRefusal:
    """The default runner runs each request inline, where no deadline can
    stop the kernel, so a configured ``timeout`` is refused, not ignored."""

    def test_config_timeout_is_refused(self):
        config = ServeConfig(options=SchedulingOptions(timeout=0.2))
        with pytest.raises(UnenforceableTimeoutError, match="timeout=0.2"):
            SchedulingService(config=config)

    def test_supplied_scheduler_timeout_is_refused(self):
        with BatchScheduler(options=SchedulingOptions(timeout=0.2)) as scheduler:
            with pytest.raises(UnenforceableTimeoutError):
                SchedulingService(scheduler=scheduler)

    def test_custom_runner_may_carry_a_timeout(self):
        config = ServeConfig(options=SchedulingOptions(timeout=0.2))
        SchedulingService(config=config, runner=_stub_result).close()

    def test_no_timeout_is_accepted(self):
        SchedulingService(config=ServeConfig(options=SchedulingOptions())).close()

    def test_cli_serve_timeout_is_a_usage_error(self, capsys):
        assert main(["serve", "--port", "0", "--timeout", "0.2"]) == 2
        out, err = capsys.readouterr()
        assert "cannot be enforced" in err
        assert "serving on" not in out  # refused before the socket binds


# -- end to end over localhost -----------------------------------------------

class TestHttpEndToEnd:
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

    def test_register_schedule_cache_metrics_drain(self):
        doc = _graph_doc()
        with BackgroundServer(ServeConfig(port=0)) as srv:
            base = f"http://{srv.host}:{srv.port}"
            status, reg = self._post(base, "/v1/graphs", {"graph": doc})
            assert status == 200 and reg["registered"]
            status, again = self._post(base, "/v1/graphs", {"graph": doc})
            assert status == 200 and not again["registered"]  # idempotent

            status, res = self._post(
                base, "/v1/schedule",
                {"fingerprint": reg["fingerprint"], "procs": 3},
            )
            assert status == 200 and res["ok"] and not res["cached"]
            assert res["makespan"] > 0
            status, hit = self._post(
                base, "/v1/schedule",
                {"fingerprint": reg["fingerprint"], "procs": 3},
            )
            assert status == 200 and hit["cached"]
            assert hit["makespan"] == res["makespan"]

            with urllib.request.urlopen(base + "/healthz", timeout=30) as r:
                health = json.loads(r.read())
            assert health["status"] == "ok" and health["graphs"] == 1

            with urllib.request.urlopen(base + "/metrics", timeout=30) as r:
                text = r.read().decode()
            families = parse_prometheus(text)
            assert any(n.startswith("repro_serve_requests") for n in families)
        # context exit == drain: reaching here means shutdown completed

    def test_unknown_fingerprint_over_http_is_404(self):
        with BackgroundServer(ServeConfig(port=0)) as srv:
            base = f"http://{srv.host}:{srv.port}"
            status, body = self._post(
                base, "/v1/schedule", {"fingerprint": "feedface", "procs": 2}
            )
            assert status == 404 and "feedface" in body["error"]

    def test_drain_closes_idle_keepalive_and_answers_inflight(self, caplog, capfd):
        """An idle keep-alive connection must not hold up the exit, the
        drain must log nothing, and a request already in flight when the
        drain starts still gets its answer."""
        caplog.set_level(logging.DEBUG)
        srv = BackgroundServer(ServeConfig(port=0)).start()
        idle = socket.create_connection((srv.host, srv.port), timeout=10)
        busy = socket.create_connection((srv.host, srv.port), timeout=10)
        try:
            idle.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert idle.recv(65536).startswith(b"HTTP/1.1 200")
            busy.sendall(b"GET /healthz HTTP/1.1\r\n")  # request line only
            time.sleep(0.5)  # let the server read it: this request is in flight
            started = time.monotonic()
            stopper = threading.Thread(target=srv.stop)
            stopper.start()
            while not srv.service.draining:
                assert time.monotonic() - started < 5, "drain never started"
                time.sleep(0.01)
            assert idle.recv(1) == b""  # closed: no response was owed
            busy.sendall(b"Host: x\r\n\r\n")
            reply = busy.recv(65536)
            assert reply.startswith(b"HTTP/1.1 200")
            assert b"Connection: close" in reply
            stopper.join(timeout=30)
            assert not stopper.is_alive()
            assert time.monotonic() - started < 2.0
        finally:
            idle.close()
            busy.close()
            srv.stop()
        assert "Exception in callback" not in caplog.text
        assert "Exception in callback" not in capfd.readouterr().err
