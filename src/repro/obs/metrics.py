"""Process-local metrics: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is a plain in-process object — no background
threads, no sockets, no third-party client — that the serving stack writes
into while it works and that callers export afterwards (Prometheus text
exposition via :mod:`repro.obs.prom`, structured JSONL traces via
:mod:`repro.obs.trace`, a human report via :mod:`repro.obs.report`).

Design constraints (see docs/observability.md):

* **Disabled by default, cheap when enabled.**  Nothing in the library
  touches a registry unless the caller passed one
  (``SchedulingOptions(metrics=...)`` / ``schedule_many(..., metrics=...)``),
  and every instrument site guards with ``if metrics is not None`` — the
  uninstrumented path does zero extra work.  When enabled, one observation
  is a dict lookup plus a float add; the perf-smoke budget
  (``tools/perf_smoke.sh``) holds the enabled path to ≤5% throughput
  overhead.
* **Process-local.**  Worker processes cannot write to the supervisor's
  registry; worker-side measurements travel back as small payloads
  (``BatchResult.phases``) and are folded in supervisor-side.
* **Fixed label sets.**  A metric instance is identified by its name plus
  a sorted label tuple; the same ``(name, labels)`` pair always returns the
  same instrument, so counters accumulate across calls.

Metric names use Prometheus conventions directly (``snake_case``, ``_total``
for counters, ``_seconds`` for duration histograms); the exposition layer
only adds the ``repro_`` namespace prefix.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "span",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets (seconds): spans five decades, from fast
#: in-process kernel calls (~100µs) to multi-second batch jobs.  Upper
#: bounds are inclusive; one implicit +Inf bucket catches the rest.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Canonical label representation: sorted (key, value) pairs.
LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Dict[str, str]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count (e.g. jobs served, worker deaths)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name}{dict(self.labels)} {self.value:g}>"


class Gauge:
    """Point-in-time value (e.g. registry bytes, cache size)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def __repr__(self) -> str:
        return f"<Gauge {self.name}{dict(self.labels)} {self.value:g}>"


class Histogram:
    """Fixed-bucket histogram with a running sum and count.

    ``buckets`` are inclusive upper bounds; observations above the last
    bound land in the implicit +Inf bucket.  ``counts`` holds one slot per
    finite bucket plus the +Inf slot, *non*-cumulative (the Prometheus
    exposition layer accumulates at render time).
    """

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: LabelSet = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"buckets must be non-empty and increasing, got {buckets!r}")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        self.counts[bisect_left(self.buckets, value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return (
            f"<Histogram {self.name}{dict(self.labels)} "
            f"count={self.count} sum={self.sum:g}>"
        )


class Span:
    """One timed region, recorded as a trace event (and optionally into a
    duration histogram) when the ``with`` block exits.

    Use through :meth:`MetricsRegistry.span` or the module-level
    :func:`span` helper::

        with metrics.span("flb.kernel", algo="flb") as s:
            schedule = flb(graph, MachineModel(procs))
            s.annotate(makespan=schedule.makespan)
    """

    __slots__ = ("_registry", "name", "attrs", "_t0", "duration", "_histogram")

    def __init__(
        self,
        registry: Optional["MetricsRegistry"],
        name: str,
        attrs: Dict[str, Any],
        histogram: Optional[Histogram] = None,
    ) -> None:
        self._registry = registry
        self.name = name
        self.attrs = attrs
        self._t0 = 0.0
        self.duration: float = 0.0
        self._histogram = histogram

    def annotate(self, **attrs: Any) -> None:
        """Attach extra attributes to the span's trace event."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.duration = time.perf_counter() - self._t0
        if self._registry is not None:
            self._registry.event(self.name, self.duration, **self.attrs)
        if self._histogram is not None:
            self._histogram.observe(self.duration)


def span(name: str, metrics: Optional["MetricsRegistry"] = None, **attrs: Any) -> Span:
    """Time a region against ``metrics`` (no-op when ``metrics`` is None).

    The returned context manager always measures ``duration``; it only
    records a trace event when a registry was supplied, so instrumented
    code can call this unconditionally on the disabled path.
    """
    if metrics is not None:
        return metrics.span(name, **attrs)
    return Span(None, name, dict(attrs))


class MetricsRegistry:
    """Process-local home for every metric and trace event of one run.

    ``counter``/``gauge``/``histogram`` get-or-create instruments keyed by
    ``(name, sorted labels)``; repeated calls return the same object, so
    call sites never cache instrument handles unless they are hot.
    ``events`` is the structured trace: one dict per span/event, in
    completion order, exportable as JSONL (:meth:`write_trace`).
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelSet], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelSet], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelSet], Histogram] = {}
        self.events: List[Dict[str, Any]] = []

    # -- instruments --------------------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _labelset(labels))
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter(name, key[1])
        return inst

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _labelset(labels))
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge(name, key[1])
        return inst

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        key = (name, _labelset(labels))
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(name, key[1], buckets)
        return inst

    # -- trace --------------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """Context manager timing a region into the trace *and* into the
        ``<name s/./_>_seconds`` histogram."""
        hist = self.histogram(name.replace(".", "_") + "_seconds")
        return Span(self, name, dict(attrs), histogram=hist)

    def event(self, name: str, dur: float = 0.0, **attrs: Any) -> None:
        """Append one structured trace event (see docs/observability.md for
        the schema: ``name``, wall-clock ``ts``, ``dur`` seconds, ``attrs``)."""
        self.events.append(
            {"name": name, "ts": time.time(), "dur": dur, "attrs": attrs}
        )

    # -- introspection / export --------------------------------------------

    def counters(self) -> Iterator[Counter]:
        return iter(self._counters.values())

    def gauges(self) -> Iterator[Gauge]:
        return iter(self._gauges.values())

    def histograms(self) -> Iterator[Histogram]:
        return iter(self._histograms.values())

    def value(self, name: str, **labels: str) -> float:
        """Current value of a counter or gauge (0.0 when never touched) —
        a test/debug convenience that never creates the instrument."""
        key = (name, _labelset(labels))
        inst: object = self._counters.get(key) or self._gauges.get(key)
        if isinstance(inst, (Counter, Gauge)):
            return inst.value
        return 0.0

    def total(self, name: str) -> float:
        """Sum of a counter across all of its label sets."""
        return sum(c.value for c in self._counters.values() if c.name == name)

    def snapshot(self) -> Dict[str, float]:
        """Flat ``{'name{k=v,...}': value}`` view of counters and gauges."""

        def fmt(name: str, labels: LabelSet) -> str:
            if not labels:
                return name
            inner = ",".join(f"{k}={v}" for k, v in labels)
            return f"{name}{{{inner}}}"

        out: Dict[str, float] = {}
        for c in self._counters.values():
            out[fmt(c.name, c.labels)] = c.value
        for g in self._gauges.values():
            out[fmt(g.name, g.labels)] = g.value
        return out

    def to_prometheus(self) -> str:
        """Render the Prometheus text exposition (see :mod:`repro.obs.prom`)."""
        from repro.obs.prom import render_prometheus

        return render_prometheus(self)

    def write_prometheus(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_prometheus())

    def write_trace(self, path: str) -> None:
        """Write the trace as JSONL: one event object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for event in self.events:
                fh.write(json.dumps(event, sort_keys=True) + "\n")

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry {len(self._counters)} counter(s), "
            f"{len(self._gauges)} gauge(s), {len(self._histograms)} "
            f"histogram(s), {len(self.events)} event(s)>"
        )
