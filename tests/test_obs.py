"""Observability plane unit tests: instruments, spans, Prometheus
exposition, JSONL trace round-trips, and the report renderer."""

import json
import math

import pytest

from repro.machine import MachineModel
from repro.obs import (
    DEFAULT_BUCKETS,
    JOB_EVENT,
    KernelMetricsObserver,
    MetricsRegistry,
    parse_prometheus,
    read_trace,
    render_prometheus,
    render_report,
    span,
    summarize_trace,
    validate_event,
)


class TestInstruments:
    def test_counter_accumulates_and_rejects_negative(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total")
        c.inc()
        c.inc(2.5)
        assert reg.value("jobs_total") == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_same_name_and_labels_is_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("jobs_total", status="ok", algo="flb")
        b = reg.counter("jobs_total", algo="flb", status="ok")  # order-free
        assert a is b
        a.inc()
        assert reg.value("jobs_total", status="ok", algo="flb") == 1.0

    def test_different_labels_are_different_instruments(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", status="ok").inc(3)
        reg.counter("jobs_total", status="timeout").inc(1)
        assert reg.value("jobs_total", status="ok") == 3.0
        assert reg.value("jobs_total", status="timeout") == 1.0
        assert reg.total("jobs_total") == 4.0

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("bytes")
        g.set(100)
        g.inc(5)
        g.dec(2)
        assert reg.value("bytes") == 103.0

    def test_value_never_creates(self):
        reg = MetricsRegistry()
        assert reg.value("never_touched_total") == 0.0
        assert list(reg.counters()) == []

    def test_histogram_bucket_placement(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.01, 0.05, 0.5, 2.0):
            h.observe(v)
        # inclusive upper bounds: 0.01 lands in the first bucket
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert math.isclose(h.sum, 2.565)
        assert math.isclose(h.mean, 0.513)

    def test_histogram_rejects_bad_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("bad_seconds", buckets=(1.0, 0.5))
        with pytest.raises(ValueError):
            reg.histogram("empty_seconds", buckets=())

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestSpans:
    def test_span_records_event_and_histogram(self):
        reg = MetricsRegistry()
        with reg.span("sched.kernel", algo="flb") as s:
            s.annotate(makespan=12.5)
        (event,) = reg.events
        assert event["name"] == "sched.kernel"
        assert event["attrs"] == {"algo": "flb", "makespan": 12.5}
        assert event["dur"] >= 0.0
        hist = reg.histogram("sched_kernel_seconds")
        assert hist.count == 1

    def test_module_level_span_noop_without_registry(self):
        with span("anything") as s:
            pass
        assert s.duration >= 0.0  # measured, but recorded nowhere

    def test_module_level_span_with_registry(self):
        reg = MetricsRegistry()
        with span("x.y", metrics=reg):
            pass
        assert reg.events[0]["name"] == "x.y"


class TestPrometheus:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", status="ok").inc(3)
        reg.counter("jobs_total", status="time\"out\\").inc(1)
        reg.gauge("bytes").set(19161)
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        return reg

    def test_renders_and_parses(self):
        text = render_prometheus(self._populated())
        samples = parse_prometheus(text)
        assert samples["repro_bytes"] == 19161.0
        assert samples["repro_lat_seconds_count"] == 2.0
        assert math.isclose(samples["repro_lat_seconds_sum"], 5.05)

    def test_buckets_are_cumulative_and_end_in_inf(self):
        samples = parse_prometheus(render_prometheus(self._populated()))
        buckets = {
            key: value for key, value in samples.items()
            if key.startswith("repro_lat_seconds_bucket")
        }
        assert buckets == {
            'repro_lat_seconds_bucket{le="0.1"}': 1.0,
            'repro_lat_seconds_bucket{le="1"}': 1.0,
            'repro_lat_seconds_bucket{le="+Inf"}': 2.0,
        }

    def test_label_escaping_round_trips(self):
        samples = parse_prometheus(render_prometheus(self._populated()))
        assert samples['repro_jobs_total{status="ok"}'] == 3.0
        assert samples['repro_jobs_total{status="time\\"out\\\\"}'] == 1.0

    def test_type_headers_present_once_per_metric(self):
        text = render_prometheus(self._populated())
        type_lines = [l for l in text.splitlines() if l.startswith("# TYPE")]
        assert "# TYPE repro_jobs_total counter" in type_lines
        assert "# TYPE repro_bytes gauge" in type_lines
        assert "# TYPE repro_lat_seconds histogram" in type_lines
        assert len(type_lines) == len(set(type_lines))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is not prometheus\n")
        with pytest.raises(ValueError):
            parse_prometheus("repro_x{unterminated=\"v} 1\n")


class TestTrace:
    def test_write_read_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.event("batch.run", 0.5, jobs=8)
        with reg.span("sched.kernel", algo="flb"):
            pass
        path = tmp_path / "trace.jsonl"
        reg.write_trace(str(path))
        events = read_trace(str(path))
        assert [e["name"] for e in events] == ["batch.run", "sched.kernel"]
        assert events[0]["attrs"]["jobs"] == 8

    def test_validate_event_rejects_malformed(self):
        good = {"name": "x", "ts": 1.0, "dur": 0.0, "attrs": {}}
        validate_event(good)
        for bad in (
            {},
            {"name": 3, "ts": 1.0, "dur": 0.0, "attrs": {}},
            {"name": "x", "ts": "then", "dur": 0.0, "attrs": {}},
            {"name": "x", "ts": 1.0, "dur": True, "attrs": {}},
            {"name": "x", "ts": 1.0, "dur": 0.0, "attrs": []},
        ):
            with pytest.raises(ValueError):
                validate_event(bad)

    def test_read_trace_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "x", "ts": 1.0, "dur": 0.0, "attrs": {}}\nnot json\n')
        with pytest.raises(ValueError):
            read_trace(str(path))


def _job_event(tag, ok=True, wall=0.1, cached=False, algo="flb",
               error_kind=None, phases=None):
    return {
        "name": JOB_EVENT,
        "ts": 1700000000.0,
        "dur": wall,
        "attrs": {
            "tag": tag,
            "algo": algo,
            "procs": 4,
            "ok": ok,
            "error_kind": error_kind,
            "cached": cached,
            "attempts": 1,
            "wall": wall,
            "phases": phases or {"queue": wall / 2, "schedule": wall / 2},
        },
    }


class TestReport:
    def test_summarize_counts_and_phases(self):
        events = [
            _job_event("a", wall=0.1),
            _job_event("b", wall=0.3, algo="mcp"),
            _job_event("c", ok=False, error_kind="timeout", wall=0.2),
            _job_event("d", cached=True, wall=0.0,
                       phases={"queue": 0.0, "schedule": 0.0}),
            {"name": "batch.run", "ts": 1700000000.0, "dur": 0.6, "attrs": {}},
        ]
        summary = summarize_trace(events)
        assert summary["jobs"]["count"] == 4
        assert summary["jobs"]["ok"] == 3
        assert summary["jobs"]["failed"] == 1
        assert summary["jobs"]["cached"] == 1
        assert summary["failures"] == {"timeout": 1}
        assert {row["algo"] for row in summary["algos"]} == {"flb", "mcp"}
        phase_total = sum(row["seconds"] for row in summary["phases"])
        assert math.isclose(phase_total, 0.6, rel_tol=1e-9)

    def test_render_report_mentions_the_essentials(self):
        events = [_job_event("a"), _job_event("b", ok=False, error_kind="timeout")]
        text = render_report(events)
        assert "jobs: 2" in text
        assert "queue" in text and "schedule" in text
        assert "timeout" in text

    def test_empty_trace_renders(self):
        assert "no batch.job events" in render_report([])


class TestKernelObserver:
    def test_counts_iterations_and_heap_ops(self):
        from repro.core import flb
        from repro.util.rng import make_rng
        from repro.workloads import lu

        g = lu(6, make_rng(0), ccr=1.0)
        reg = MetricsRegistry()
        obs = KernelMetricsObserver(reg)
        flb(g, MachineModel(4), observer=obs)
        assert reg.total("flb_kernel_iterations_total") == g.num_tasks
        assert reg.total("flb_kernel_heap_ops_total") > 0
        assert reg.total("flb_kernel_choices_total") == g.num_tasks
        assert reg.histogram("flb_kernel_ready_tasks").count == g.num_tasks
        # a second run on the same observer must not go negative
        flb(g, MachineModel(4), observer=obs)
        assert reg.total("flb_kernel_iterations_total") == 2 * g.num_tasks


class TestRegistryExport:
    def test_snapshot_format(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc()
        reg.counter("b_total", k="v").inc(2)
        reg.gauge("g").set(7)
        assert reg.snapshot() == {"a_total": 1.0, "b_total{k=v}": 2.0, "g": 7.0}

    def test_write_prometheus(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("a_total").inc()
        path = tmp_path / "m.prom"
        reg.write_prometheus(str(path))
        assert parse_prometheus(path.read_text()) == {"repro_a_total": 1.0}

    def test_trace_is_valid_jsonl(self, tmp_path):
        reg = MetricsRegistry()
        reg.event("x", 0.1, nested={"a": [1, 2]})
        path = tmp_path / "t.jsonl"
        reg.write_trace(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["attrs"]["nested"] == {"a": [1, 2]}
