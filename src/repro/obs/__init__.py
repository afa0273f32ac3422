"""Observability plane: metrics, traces, and exporters for the serving stack.

Dependency-free and disabled by default — the library records nothing
unless a :class:`MetricsRegistry` is passed in (``SchedulingOptions(metrics=...)``,
``repro-sched batch --metrics-out``).  One registry captures one run:

* **metrics** — counters, gauges, and fixed-bucket histograms
  (:mod:`repro.obs.metrics`), exported as Prometheus text exposition
  (:mod:`repro.obs.prom`);
* **traces** — a lightweight span API (``with metrics.span("flb.kernel"):``)
  producing structured JSONL event logs (:mod:`repro.obs.trace`), rendered
  into a human report by ``repro-sched report`` (:mod:`repro.obs.report`);
* **instruments** — the serving front-end's ``serve_*`` family and the
  ``incr_*`` warm-start writer (:mod:`repro.obs.instruments`).

The full metric/label catalogue and trace schema live in
docs/observability.md.
"""

from __future__ import annotations

from repro.obs.instruments import ServeInstruments
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    span,
)
from repro.obs.prom import parse_prometheus, render_prometheus
from repro.obs.report import render_report, summarize_trace
from repro.obs.trace import JOB_EVENT, PHASE_NAMES, read_trace, validate_event

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "span",
    "DEFAULT_BUCKETS",
    "ServeInstruments",
    "render_prometheus",
    "parse_prometheus",
    "read_trace",
    "validate_event",
    "summarize_trace",
    "render_report",
    "JOB_EVENT",
    "PHASE_NAMES",
]
