"""Layer spans for traced benchmark runs.

A traced run (``--trace 1``) wraps the entry point of every layer a request
passes through and accumulates, per layer, its *self* time (the call's
duration minus the time spent in wrapped layers it called) and its call
count.  An untraced run wraps nothing, so end-to-end figures carry no
tracing cost.

==========================  ================================================
layer                       wrapped callable
==========================  ================================================
``parse``                   ``json.loads`` (request bodies, graph documents)
``ingest``                  ``repro.graph.io.from_json`` and
                            ``SchedulingService.register_graph``
``fingerprint``             ``TaskGraph.fingerprint``
``store``                   ``GraphStore.register`` (shared-memory publish)
``queue``                   value of ``ServeInstruments.observe_queue_wait``
``attach``                  ``repro.graphstore.attach``
``kernel``                  ``flb_array`` and every scheduler returned by
                            ``repro.schedulers.get_scheduler``
``kernel.init``             ``_kernel_inputs`` / ``_interp_inputs``
                            (bottom levels, per-edge delays)
``kernel.loop``             ``_flb_array_loop``
``kernel.build``            ``Schedule._from_arrays``
``certify``                 ``repro.verify.certify.certify``
``certify.structural``      ``_structural_violations``
``certify.replay``          ``_greedy_violations`` / ``_heft_replay_violations``
``encode``                  ``repro.serve.handlers.json_response``
==========================  ================================================

A callable that the program no longer has is skipped, so its layer reads
zero instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

#: ``{layer: [self_seconds, calls]}``
Snapshot = Dict[str, List[float]]


def _module(name: str) -> Any:
    """``sys.modules[name]`` after importing it (``import a.b as m`` would
    return a same-named function re-exported by the package instead)."""
    importlib.import_module(name)
    return sys.modules[name]


class Spans:
    """Per-layer self-time and call-count accumulator (thread-safe)."""

    def __init__(self) -> None:
        self._totals: Snapshot = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def record(self, layer: str, seconds: float) -> None:
        with self._lock:
            entry = self._totals.setdefault(layer, [0.0, 0])
            entry[0] += seconds
            entry[1] += 1

    def snapshot(self) -> Snapshot:
        with self._lock:
            return {layer: list(entry) for layer, entry in self._totals.items()}

    def timed(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped to record its self time under ``layer``."""
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.record(layer, elapsed - inner)

        return wrapper

    def patch(self, owner: Any, attr: str, layer: str) -> None:
        """Replace ``owner.attr`` by its timed version, and every loaded
        ``repro`` module's reference to the same function with it."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        wrapped = self.timed(layer, original)
        setattr(owner, attr, wrapped)
        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and (
                getattr(module, attr, None) is original
            ):
                setattr(module, attr, wrapped)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer listed in the module docstring."""
        json.loads = self.timed("parse", json.loads)

        io = _module("repro.graph.io")
        self.patch(io, "from_json", "ingest")
        self.patch(_module("repro.graph.taskgraph").TaskGraph, "fingerprint",
                   "fingerprint")
        graphstore = _module("repro.graphstore")
        self.patch(graphstore.GraphStore, "register", "store")
        self.patch(graphstore, "attach", "attach")

        flb_array = _module("repro.core.flb_array")
        self.patch(flb_array, "flb_array", "kernel")
        self.patch(flb_array, "_kernel_inputs", "kernel.init")
        self.patch(flb_array, "_interp_inputs", "kernel.init")
        self.patch(flb_array, "_flb_array_loop", "kernel.loop")
        schedule_cls = _module("repro.schedule.schedule").Schedule
        from_arrays = schedule_cls.__dict__.get("_from_arrays")
        if isinstance(from_arrays, classmethod):
            schedule_cls._from_arrays = classmethod(
                self.timed("kernel.build", from_arrays.__func__)
            )
        schedulers = _module("repro.schedulers")
        get_scheduler = getattr(schedulers, "get_scheduler", None)
        if get_scheduler is not None:
            def timed_get_scheduler(name: str) -> Callable[..., Any]:
                return self.timed("kernel", get_scheduler(name))

            schedulers.get_scheduler = timed_get_scheduler

        certify = _module("repro.verify.certify")
        self.patch(certify, "certify", "certify")
        self.patch(certify, "_structural_violations", "certify.structural")
        self.patch(certify, "_greedy_violations", "certify.replay")
        self.patch(certify, "_heft_replay_violations", "certify.replay")

    def install_serving(self) -> None:
        """The serving-only layers (call after :meth:`install`)."""
        server = _module("repro.serve.server")
        self.patch(server.SchedulingService, "register_graph", "ingest")
        self.patch(_module("repro.serve.handlers"), "json_response", "encode")
        instruments = _module("repro.obs.instruments").ServeInstruments
        observe = getattr(instruments, "observe_queue_wait", None)
        if observe is not None:
            def observe_queue_wait(inst: Any, seconds: float) -> None:
                self.record("queue", seconds)
                observe(inst, seconds)

            instruments.observe_queue_wait = observe_queue_wait


def delta(before: Snapshot, after: Snapshot) -> Dict[str, Tuple[float, float]]:
    """Per-layer ``(seconds, calls)`` recorded between two snapshots."""
    out: Dict[str, Tuple[float, float]] = {}
    for layer, (secs, calls) in after.items():
        prev = before.get(layer, [0.0, 0])
        if calls - prev[1] > 0:
            out[layer] = (secs - prev[0], calls - prev[1])
    return out
