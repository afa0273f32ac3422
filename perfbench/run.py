"""Benchmark of the FLB scheduler, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload http-inline-certify --seed 1 \\
        --seconds 10 --trace 0

Workloads (inputs are generated from ``--seed``; the program only sees
them):

``http-inline-certify``
    One closed-loop client POSTs ``/v1/schedule`` with an inline stencil
    graph (V=2000, P=8, FLB, ``certify=true``).  Each request's graph is
    distinct, so every request misses the result cache and runs HTTP
    parse, ingest, fingerprint, graph store, kernel, certifier and encode.
``http-keyed-mix``
    Four tenants schedule certified graphs registered by fingerprint (the
    paper's four problems at V=1000, in turn), over four keep-alive
    connections driven by one thread in closed-loop waves of up to four
    concurrent requests.  After each registration, each tenant asks once
    for every (P, algorithm) result of the new graph, in six waves
    (``KEYED_WAVES``): the first two ask for all six results, two tenants
    at once for one of them in each wave, so six asks miss and two find
    their result being computed (coalesced); the last four waves' sixteen
    asks can be answered from the result cache.  That tenants share
    results this way is this workload's assumption, not a measured trait
    of real traffic: it is the side with repeated inputs, the inline
    workload the side without.
``batch-sweep``
    The paper's suite (LU, Laplace, stencil, FFT at CCR 0.2 and 5.0,
    V=120) is ingested from JSON and swept over FLB, FCP and MCP on P in
    {2, 8, 32} with certification, in one process; one operation is a
    batch of four graphs, one per problem, two at each CCR.

Both HTTP workloads are closed loops, so the backlog never exceeds four
requests and the service's admission control never sheds; a shed request
(429) would count as failed, not as a wrong answer.

End-to-end metrics (``--trace 0``) are taken over operations (an HTTP
request, or one batch): ``latency_p50_ms``, ``latency_p90_ms``,
``tasks_per_s`` (tasks in answered schedules per second the service was
busy) and ``setup_s`` (median of ``SETUP_REPEATS`` cold starts: service
launch until it has answered the workload's set-up requests, or a fresh
interpreter's first certified batch).  ``attempted`` is the number of operations, the
sample count of the percentiles.

Every end-to-end time is taken at the host's reference speed: the shared
hosts this runs on change their CPU speed by up to 1.7x for seconds to
minutes at a time, which moves whole-run medians by more than any bound
a benchmark could hold.  So between operations (and cold starts) the
benchmark times a fixed piece of pure-Python work, ``host_tick``, and
scales each operation's time by ``REFERENCE_TICK_S`` over the mean of the
ticks on either side of it (``ReferenceClock``).  A change in the program
is not in the tick, so it moves the scaled figures as it moves the raw
ones.  The benchmark and every
process it starts (the service and its workers, cold starts) run on one
CPU, so that the tick times the CPU the program runs on; on a shared
host the CPUs slow down one at a time.

``--trace 1`` runs the workload with every layer wrapped (see
``spans.py``) and reports per-layer metrics instead: busy milliseconds
per operation, and shares of requests the cache answered.  A layer a
workload does not pass through reads 0 (batch-sweep has no HTTP, so no
store, queue, attach or encode).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import http.client
import itertools
import json
import math
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from host import SPANS_PATH
from spans import Spans, delta

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HOST = os.path.join(HERE, "host.py")

#: Cold starts per run; ``setup_s`` is their median.
SETUP_REPEATS = 9

#: The status of a request the service's admission control shed.
SHED = 429

INLINE_TASKS = 2000
INLINE_PROCS = 8

KEYED_TASKS = 1000
KEYED_TENANTS = 4
#: The (P, algorithm) results each tenant asks for on every graph.
KEYED_KEYS = tuple(
    (procs, algo) for procs in (4, 8, 16) for algo in ("flb", "mcp")
)
#: A graph's scheduling waves: wave ``w`` has tenant ``t`` ask for key
#: ``KEYED_WAVES[w][t]`` of a seeded shuffle of ``KEYED_KEYS``.
KEYED_WAVES = (
    (0, 0, 1, 2), (3, 3, 4, 5),
    (1, 2, 0, 3), (2, 1, 3, 0), (4, 5, 2, 1), (5, 4, 5, 4),
)

#: Small enough that a 30 s run gives well over 100 batches (ten beyond
#: p90) even when the host runs at half speed.
SWEEP_TASKS = 120
SWEEP_INSTANCES = 4
SWEEP_PROCS = (2, 8, 32)
SWEEP_ALGOS = ("flb", "fcp", "mcp")

#: Layers in the order a request meets them; ``kernel`` and ``certify``
#: are reported inclusive of their sub-layers.
LAYERS = (
    "parse", "ingest", "fingerprint", "store", "queue", "attach",
    "kernel", "kernel.init", "kernel.loop", "kernel.build",
    "certify", "certify.structural", "certify.replay", "encode",
)

#: ``host_tick`` on a quiet 2-vCPU x86-64 host under CPython 3.11; end-to-end
#: times are scaled to the host speed at which the tick takes this long.
REFERENCE_TICK_S = 1.8e-3
_TICK_KEYS = [random.Random(0).random() for _ in range(3000)]

#: One measured operation: its latency in seconds and the tasks in its
#: answered schedules (0 when it failed or scheduled nothing).  End-to-end
#: ops are scaled to the reference speed (see ``host_tick``).
Op = Tuple[float, int]


@dataclasses.dataclass
class Outcome:
    """What one run measured and checked."""

    ops: List[Op]
    #: Seconds the service spent answering the ops (a closed loop's
    #: rounds, from the first request sent to the last answer read).
    busy: float
    failed: int
    correct: bool
    setups: List[float]
    layers: Dict[str, Tuple[float, float]]
    requests: int = 0
    cache_hits: int = 0
    coalesced: int = 0


# -- host speed ---------------------------------------------------------------


def host_tick() -> float:
    """Seconds the host takes now for a fixed piece of pure-Python work.

    The work is an arithmetic loop and a dict, sort and str pass: the first
    alone slows less than the scheduler when the host slows, the second
    alone more, and their sum tracked the scheduler's batch latency to
    within a few per cent across a 1.7x swing in host speed.  The fastest
    of three tries is taken, so an interrupt does not count.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i % 7
        table: Dict[float, Tuple[int, float]] = {}
        for i, key in enumerate(_TICK_KEYS):
            table[key] = (i, key)
        sorted(table.items(), key=lambda item: item[1][0])
        [str(key) for key in _TICK_KEYS[:1000]]
        best = min(best, time.perf_counter() - t0)
    return best


class ReferenceClock:
    """Scales the times of a run of operations to reference speed.

    ``tick`` times the host before each operation, and once more after the
    last.  Operation ``k``'s times are scaled by ``REFERENCE_TICK_S`` over
    the mean of the ticks right before and right after it, so a change in
    host speed during the operation is half counted.
    """

    def __init__(self) -> None:
        self._ticks: List[float] = []

    def tick(self) -> int:
        """Time the host now; returns the index of the next operation."""
        self._ticks.append(host_tick())
        return len(self._ticks) - 1

    def scale(self, k: int) -> float:
        """What to multiply operation ``k``'s times by."""
        return 2 * REFERENCE_TICK_S / (self._ticks[k] + self._ticks[k + 1])


# -- inputs -------------------------------------------------------------------


class GraphVariants:
    """Distinct JSON copies of one task graph.

    Variant ``i`` differs from the base only in task 0's cost, so each has
    its own fingerprint (and misses every cache) while the scheduling work
    stays that of the base graph.
    """

    _MARK = "perfbench-comp"

    def __init__(self, graph: Any) -> None:
        from repro.graph.io import to_json

        doc = json.loads(to_json(graph))
        self.num_tasks = len(doc["tasks"])
        self._base = float(doc["tasks"][0]["comp"])
        doc["tasks"][0]["comp"] = self._MARK
        text = json.dumps(doc, separators=(",", ":"))
        self._head, self._tail = text.split(json.dumps(self._MARK))

    def text(self, i: int) -> str:
        return f"{self._head}{self._base + (i + 1) * 2.0 ** -20!r}{self._tail}"


def reference_makespan(text: str, procs: int, algo: str) -> float:
    """The makespan this process computes for a graph document."""
    from repro.api import SchedulingOptions, schedule_graph
    from repro.graph.io import from_json
    from repro.machine.model import MachineModel

    options = SchedulingOptions(machine=MachineModel(procs), algorithm=algo)
    return schedule_graph(from_json(text), options).makespan


# -- the service under test ---------------------------------------------------


class Service:
    """The scheduling service in a child process (``host.py serve``)."""

    def __init__(self, trace: bool) -> None:
        cmd = [sys.executable, HOST, "serve"] + (["--trace"] if trace else [])
        self._proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True)
        line = self._proc.stdout.readline()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self._proc.poll() is None:
            self._proc.send_signal(signal.SIGTERM)
        try:
            self._proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.communicate()


class Client:
    """One keep-alive HTTP connection to the service."""

    def __init__(self, port: int) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def send(self, method: str, path: str,
             body: Optional[bytes] = None) -> None:
        headers = {"Content-Type": "application/json"} if body else {}
        self._conn.request(method, path, body=body, headers=headers)

    def receive(self) -> Tuple[int, bytes]:
        response = self._conn.getresponse()
        return response.status, response.read()

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, bytes]:
        self.send(method, path, body)
        return self.receive()

    def fileno(self) -> int:
        """The socket's descriptor (after ``send``), for ``select``."""
        sock = self._conn.sock
        if sock is None:
            raise RuntimeError("no connection before send()")
        return sock.fileno()

    def spans(self) -> Dict[str, List[float]]:
        status, raw = self.request("GET", SPANS_PATH)
        return json.loads(raw) if status == 200 else {}

    def close(self) -> None:
        self._conn.close()


def start_service(
    trace: bool, prepare: Callable[[Service], Any]
) -> Tuple[Service, Any, List[float]]:
    """Cold-start the service (``SETUP_REPEATS`` times untraced) and run
    ``prepare`` on each start; the last one stays up.  Returns it, what
    its ``prepare`` returned, and each start's set-up seconds."""
    repeats = 1 if trace else SETUP_REPEATS
    clock = ReferenceClock()
    setups: List[float] = []
    for attempt in range(repeats):
        clock.tick()
        t0 = time.perf_counter()
        service = Service(trace)
        try:
            state = prepare(service)
        except BaseException:
            service.stop()
            raise
        setups.append(time.perf_counter() - t0)
        if attempt < repeats - 1:
            service.stop()
    clock.tick()
    setups = [secs * clock.scale(k) for k, secs in enumerate(setups)]
    return service, state, setups


def _reply(status: int, raw: bytes) -> Dict[str, Any]:
    try:
        reply = json.loads(raw)
    except ValueError:
        return {}
    return reply if status == 200 and isinstance(reply, dict) else {}


# -- workloads ----------------------------------------------------------------


def http_inline_certify(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.util.rng import make_rng
    from repro.workloads import stencil, stencil_size_for_tasks

    variants = GraphVariants(
        stencil(*stencil_size_for_tasks(INLINE_TASKS), make_rng(seed))
    )
    counter = itertools.count()

    def body(i: int) -> bytes:
        return (f'{{"algo":"flb","certify":true,"procs":{INLINE_PROCS},'
                f'"tag":"r{i}","graph":{variants.text(i)}}}').encode()

    def prepare(service: Service) -> None:
        client = Client(service.port)
        try:
            status, raw = client.request("POST", "/v1/schedule",
                                         body(next(counter)))
        finally:
            client.close()
        if not _reply(status, raw).get("ok"):
            raise RuntimeError(f"warm-up request failed: {status} {raw[:200]!r}")

    service, _state, setups = start_service(trace, prepare)
    try:
        client = Client(service.port)
        before = client.spans() if trace else {}
        clock = ReferenceClock()
        sent: List[Tuple[int, float, int, bytes]] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            i = next(counter)
            payload = body(i)
            clock.tick()
            t0 = time.perf_counter()
            status, raw = client.request("POST", "/v1/schedule", payload)
            sent.append((i, time.perf_counter() - t0, status, raw))
        clock.tick()
        layers = delta(before, client.spans()) if trace else {}
        client.close()
    finally:
        service.stop()

    ops: List[Op] = []
    answered: List[Tuple[int, Dict[str, Any]]] = []
    shed = 0
    for k, (i, latency, status, raw) in enumerate(sent):
        latency *= clock.scale(k)
        reply = _reply(status, raw)
        ok = bool(reply.get("ok") and reply.get("certified")
                  and not reply.get("cached")
                  and reply.get("num_tasks") == variants.num_tasks)
        if ok:
            answered.append((i, reply))
        shed += status == SHED
        ops.append((latency, variants.num_tasks if ok else 0))
    sample = answered[:: max(1, len(answered) // 3)][:4]
    correct = len(answered) + shed == len(sent) and all(
        reference_makespan(variants.text(i), INLINE_PROCS, "flb")
        == reply["makespan"]
        for i, reply in sample
    )
    return Outcome(
        ops=ops,
        busy=sum(latency for latency, _tasks in ops),
        failed=len(sent) - len(answered),
        correct=correct,
        setups=setups,
        layers=layers,
        requests=len(sent),
    )


#: A keyed request: ``(tenant, P, algorithm)``, or None for a registration.
Key = Optional[Tuple[int, int, str]]


class _KeyedTraffic:
    """The keyed mix's request sequence.

    The sequence depends on the seed alone.  It is made of rounds: one
    request registers the next graph, then the ``KEYED_WAVES`` ask for its
    results.
    """

    def __init__(self, seed: int, variants: List[GraphVariants]) -> None:
        self._variants = variants
        self._rng = random.Random(seed)
        self._round: List[List[Tuple[int, int, str]]] = []
        self._graphs = 0
        self.fingerprints: Dict[int, Optional[str]] = {}

    def graph(self, n: int) -> Tuple[str, int]:
        """Graph ``n``'s document and task count."""
        base = self._variants[n % len(self._variants)]
        return base.text(n // len(self._variants)), base.num_tasks

    def wave(self) -> List[Tuple[int, Key]]:
        """The next requests to send together: ``[(n, None)]`` registers
        graph ``n``; otherwise up to ``KEYED_TENANTS`` ``(n, key)`` schedule
        it.  A round's requests follow its registration's answer."""
        if not self._round:
            keys = list(KEYED_KEYS)
            self._rng.shuffle(keys)
            self._round = [[(tenant, *keys[k]) for tenant, k in enumerate(wave)]
                           for wave in KEYED_WAVES]
            self._graphs += 1
            return [(self._graphs - 1, None)]
        return [(self._graphs - 1, key) for key in self._round.pop(0)]

    def registered(self, n: int, reply: Dict[str, Any]) -> None:
        fingerprint = reply.get("fingerprint")
        self.fingerprints[n] = (
            fingerprint if isinstance(fingerprint, str) else None
        )


def exchange(sends: List[Tuple[Client, bytes, str]]
             ) -> List[Tuple[float, int, bytes]]:
    """POST each body on its own connection at once; read the answers as
    they come.  Returns ``(seconds from the first send, status, body)``
    in the order of ``sends``."""
    t0 = time.perf_counter()
    for client, body, path in sends:
        client.send("POST", path, body)
    pending = {client.fileno(): k for k, (client, _b, _p) in enumerate(sends)}
    answers: List[Tuple[float, int, bytes]] = [(0.0, 0, b"")] * len(sends)
    while pending:
        ready, _w, _x = select.select(list(pending), [], [], 120)
        if not ready:
            raise TimeoutError("no answer from the service in 120 s")
        for fd in ready:
            k = pending.pop(fd)
            status, raw = sends[k][0].receive()
            answers[k] = (time.perf_counter() - t0, status, raw)
    return answers


def http_keyed_mix(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.bench.suite import paper_suite

    variants = [GraphVariants(inst.graph) for inst in
                paper_suite(target_tasks=KEYED_TASKS, ccrs=(1.0,), seeds=1,
                            base_seed=seed)]

    def registration(traffic: _KeyedTraffic, n: int) -> bytes:
        return f'{{"graph":{traffic.graph(n)[0]}}}'.encode()

    def prepare(service: Service) -> _KeyedTraffic:
        traffic = _KeyedTraffic(seed, variants)
        client = Client(service.port)
        try:
            [(n, _key)] = traffic.wave()
            status, raw = client.request("POST", "/v1/graphs",
                                         registration(traffic, n))
        finally:
            client.close()
        traffic.registered(n, _reply(status, raw))
        if traffic.fingerprints[n] is None:
            raise RuntimeError(f"registration failed: {status} {raw[:200]!r}")
        return traffic

    service, traffic, setups = start_service(trace, prepare)
    clock = ReferenceClock()
    # Per request: (wave, latency, status, raw reply, graph id, key)
    records: List[Tuple[int, float, int, bytes, int, Key]] = []
    # Per wave: seconds from its first request sent to its last answer
    waves: List[float] = []
    clients: List[Client] = []
    try:
        clients = [Client(service.port) for _ in range(KEYED_TENANTS)]
        before = clients[0].spans() if trace else {}
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            wave = traffic.wave()
            sends = []
            for client, (n, key) in zip(clients, wave):
                if key is None:
                    sends.append((client, registration(traffic, n),
                                  "/v1/graphs"))
                    continue
                tenant, procs, algo = key
                sends.append((client, json.dumps({
                    "fingerprint": traffic.fingerprints[n], "procs": procs,
                    "algo": algo, "certify": True,
                    "tenant": f"tenant-{tenant}",
                }).encode(), "/v1/schedule"))
            w = clock.tick()
            answers = exchange(sends)
            waves.append(max(latency for latency, _s, _r in answers))
            for (n, key), (latency, status, raw) in zip(wave, answers):
                if key is None:
                    traffic.registered(n, _reply(status, raw))
                records.append((w, latency, status, raw, n, key))
        clock.tick()
        layers = delta(before, clients[0].spans()) if trace else {}
    finally:
        for client in clients:
            client.close()
        service.stop()

    ops: List[Op] = []
    makespans: Dict[Tuple[int, int, str], float] = {}
    failed = shed = requests = cache_hits = coalesced = 0
    consistent = True
    for w, latency, status, raw, n, key in records:
        latency *= clock.scale(w)
        reply = _reply(status, raw)
        if key is None:
            failed += not reply.get("fingerprint")
            ops.append((latency, 0))
            continue
        requests += 1
        num_tasks = traffic.graph(n)[1]
        if not (reply.get("ok") and reply.get("certified")
                and reply.get("num_tasks") == num_tasks):
            failed += 1
            shed += status == SHED
            ops.append((latency, 0))
            continue
        ops.append((latency, num_tasks))
        cache_hits += bool(reply.get("cached"))
        coalesced += bool(reply.get("coalesced"))
        _tenant, procs, algo = key
        makespan = makespans.setdefault((n, procs, algo), reply["makespan"])
        consistent &= makespan == reply["makespan"]
    keys = sorted(makespans)
    sample = keys[:: max(1, len(keys) // 3)][:4]
    correct = failed == shed and consistent and all(
        reference_makespan(traffic.graph(n)[0], procs, algo)
        == makespans[(n, procs, algo)]
        for n, procs, algo in sample
    )
    return Outcome(
        ops=ops,
        busy=sum(secs * clock.scale(w) for w, secs in enumerate(waves)),
        failed=failed,
        correct=correct,
        setups=setups,
        layers=layers,
        requests=requests,
        cache_hits=cache_hits,
        coalesced=coalesced,
    )


def batch_sweep(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.api import SchedulingOptions
    from repro.batch import BatchJob, schedule_many
    from repro.bench.suite import paper_suite
    from repro.graph import io as graph_io
    from repro.machine.model import MachineModel

    graphs: Dict[Tuple[str, float, int], str] = {
        (inst.problem, inst.ccr, inst.seed_index): graph_io.to_json(inst.graph)
        for inst in paper_suite(target_tasks=SWEEP_TASKS,
                                seeds=SWEEP_INSTANCES, base_seed=seed)
    }
    problems = list(dict.fromkeys(problem for problem, _ccr, _i in graphs))
    ccrs = list(dict.fromkeys(ccr for _problem, ccr, _i in graphs))
    # Every batch holds each problem once, as many at each CCR as the
    # others, so batches cost alike and the latency median cannot fall
    # between a cheap and a dear kind of batch.
    batches = [
        [(problem, graphs[(problem, ccrs[(k + flip) % len(ccrs)], instance)])
         for k, problem in enumerate(problems)]
        for instance in range(SWEEP_INSTANCES) for flip in range(len(ccrs))
    ]
    machines = {procs: MachineModel(procs) for procs in SWEEP_PROCS}
    options = SchedulingOptions(certify=True)

    clock = ReferenceClock()
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        clock.tick()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, HOST, "coldstart"], cwd=ROOT,
                       check=True, timeout=120)
        setups.append(time.perf_counter() - t0)
    clock.tick()
    setups = [secs * clock.scale(k) for k, secs in enumerate(setups)]

    spans = Spans() if trace else None
    if spans is not None:
        spans.install()
    before = spans.snapshot() if spans else {}
    clock = ReferenceClock()
    ops: List[Op] = []
    swept: List[Tuple[int, List[Any]]] = []
    deadline = time.perf_counter() + seconds
    for n in itertools.count():
        if time.perf_counter() >= deadline:
            break
        clock.tick()
        t0 = time.perf_counter()
        jobs = []
        for problem, text in batches[n % len(batches)]:
            graph = graph_io.from_json(text)
            jobs += [BatchJob(graph=graph, machine=machines[procs], algo=algo,
                              tag=f"{problem}/P{procs}/{algo}")
                     for procs in SWEEP_PROCS for algo in SWEEP_ALGOS]
        # One process: the benchmark runs on one CPU (see ``main``), where
        # a worker pool would only add dispatch.  The HTTP workloads cover
        # dispatch and attach.
        results = schedule_many(jobs, workers=1, options=options)
        ok = all(res.ok and res.certified for res in results)
        ops.append((time.perf_counter() - t0,
                    sum(res.num_tasks for res in results) if ok else 0))
        swept.append((n % len(batches), results))
    clock.tick()
    layers = delta(before, spans.snapshot()) if spans else {}
    ops = [(latency * clock.scale(k), tasks)
           for k, (latency, tasks) in enumerate(ops)]

    makespans: Dict[Tuple[int, str], float] = {}
    failed = 0
    consistent = True
    for group, results in swept:
        if not all(res.ok and res.certified for res in results):
            failed += 1
            continue
        for res in results:
            key = (group, res.tag)
            consistent &= makespans.setdefault(key, res.makespan) == res.makespan
    problem, text = batches[0][0]
    correct = failed == 0 and consistent and all(
        reference_makespan(text, procs, algo)
        == makespans[(0, f"{problem}/P{procs}/{algo}")]
        for procs in SWEEP_PROCS for algo in SWEEP_ALGOS
    )
    return Outcome(
        ops=ops,
        busy=sum(latency for latency, _tasks in ops),
        failed=failed,
        correct=correct,
        setups=setups,
        layers=layers,
    )


WORKLOADS: Dict[str, Callable[[int, float, bool], Outcome]] = {
    "http-inline-certify": http_inline_certify,
    "http-keyed-mix": http_keyed_mix,
    "batch-sweep": batch_sweep,
}


# -- metrics ------------------------------------------------------------------


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(outcome: Outcome) -> Dict[str, Dict[str, Any]]:
    millis = [latency * 1e3 for latency, _tasks in outcome.ops]
    tasks = sum(tasks for _latency, tasks in outcome.ops)
    return {
        "latency_p50_ms": _metric(statistics.median(millis), "ms"),
        "latency_p90_ms": _metric(statistics.quantiles(millis, n=10)[8], "ms"),
        "tasks_per_s": _metric(tasks / outcome.busy, "1/s"),
        "setup_s": _metric(statistics.median(outcome.setups), "s"),
    }


def per_layer(outcome: Outcome) -> Dict[str, Dict[str, Any]]:
    ops = max(1, len(outcome.ops))
    metrics = {}
    for layer in LAYERS:
        seconds = sum(
            secs for name, (secs, _calls) in outcome.layers.items()
            if name == layer or (layer in ("kernel", "certify")
                                 and name.startswith(layer + "."))
        )
        # A wait is reported per job that waited; busy time per operation.
        per = max(1, outcome.layers.get(layer, (0, 0))[1]) if layer == "queue" else ops
        metrics[layer.replace(".", "_") + "_ms"] = _metric(seconds * 1e3 / per, "ms")
    metrics["kernel_calls_per_op"] = _metric(
        outcome.layers.get("kernel", (0.0, 0))[1] / ops, "count")
    requests = max(1, outcome.requests)
    metrics["cache_hit_ratio"] = _metric(outcome.cache_hits / requests, "ratio")
    metrics["coalesced_ratio"] = _metric(outcome.coalesced / requests, "ratio")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no scheduler sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    if len(outcome.ops) < 2:
        print("perfbench: fewer than two operations completed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": len(outcome.ops),
        "failed": outcome.failed,
        "metrics": per_layer(outcome) if args.trace else end_to_end(outcome),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
