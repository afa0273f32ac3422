"""The perf ledger (``benchmarks/perf_gate.py``): the check's arithmetic and
the ledger's bookkeeping, over injected records (no perfbench run)."""

import json

import pytest

from benchmarks import perf_gate

END_TO_END = [
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "tasks_per_s", "better": "higher", "bound": 0.25},
]


def _record(workload="w", p50=20.0, tps=100.0, trace=0, date="2026-01-01T00:00:00Z",
            **result):
    metrics = {"latency_p50_ms": {"value": p50, "unit": "ms"},
               "tasks_per_s": {"value": tps, "unit": "1/s"}}
    return {
        "workload": workload, "seed": 1, "seconds": 30, "trace": trace, "date": date,
        "result": {"correct": True, "attempted": 100, "failed": 0, "metrics": metrics,
                   **result},
    }


def _passes(ledger, fresh):
    return all(ok for ok, _ in perf_gate.check(ledger, fresh, END_TO_END))


class TestCheck:
    def test_newest_record_per_workload_is_the_reference(self):
        ledger = [_record(p50=10.0), _record("v", p50=100.0), _record(p50=20.0)]
        assert _passes(ledger, [_record(p50=24.0)])  # 20% over the newest
        assert not _passes(ledger[:1], [_record(p50=24.0)])  # 140% over the oldest

    def test_traced_records_are_not_references(self):
        ledger = [_record(p50=20.0), _record(p50=1.0, trace=1)]
        assert _passes(ledger, [_record(p50=24.0)])

    def test_direction_follows_better(self):
        ledger = [_record(p50=20.0, tps=100.0)]
        assert _passes(ledger, [_record(p50=5.0, tps=400.0)])  # both better
        assert not _passes(ledger, [_record(p50=30.0)])
        assert not _passes(ledger, [_record(tps=70.0)])

    @pytest.mark.parametrize("fresh, ok", [
        (_record(p50=25.0), True),  # exactly the bound, lower is better
        (_record(p50=25.0001), False),
        (_record(tps=75.0), True),  # exactly the bound, higher is better
        (_record(tps=74.999), False),
    ])
    def test_bound_is_inclusive(self, fresh, ok):
        assert _passes([_record(p50=20.0, tps=100.0)], [fresh]) is ok

    @pytest.mark.parametrize("fresh", [
        _record(correct=False),
        _record(failed=1),
        _record(metrics={"latency_p50_ms": {"value": 20.0, "unit": "ms"}}),
    ], ids=["incorrect", "failed-op", "missing-metric"])
    def test_a_bad_run_fails(self, fresh):
        assert not _passes([_record()], [fresh])

    def test_a_workload_without_a_record_fails(self):
        assert not _passes([_record("v")], [_record("w")])

    def test_every_fresh_run_is_checked(self):
        ledger = [_record("v"), _record("w")]
        assert not _passes(ledger, [_record("v"), _record("w", p50=40.0)])


class TestLedger:
    @pytest.fixture
    def ledger_files(self, tmp_path, monkeypatch):
        monkeypatch.setattr(perf_gate, "LEDGER_JSON", tmp_path / "ledger.json")
        monkeypatch.setattr(perf_gate, "LEDGER_TXT", tmp_path / "ledger.txt")
        return tmp_path / "ledger.json", tmp_path / "ledger.txt"

    def test_record_appends_without_touching_earlier_records(self, ledger_files,
                                                             monkeypatch):
        ledger_json, _ = ledger_files
        earlier = [_record("batch-sweep", p50=33.0), _record("batch-sweep", trace=1)]
        perf_gate.write_ledger(earlier)
        runs = []

        def fake_run(command, workload, seconds, trace):
            runs.append((workload, seconds, trace))
            return _record(workload, trace=trace, date="2026-02-02T00:00:00Z")

        monkeypatch.setattr(perf_gate, "run_workload", fake_run)
        assert perf_gate.main(["--record"]) == 0
        workloads = [w["name"] for w in json.loads(perf_gate.BENCHMARK.read_text())["workloads"]]
        assert runs == [(w, 30, t) for w in workloads for t in (0, 1)]
        after = json.loads(ledger_json.read_text())
        assert after[:2] == earlier
        assert [(r["workload"], r["trace"]) for r in after[2:]] == [
            (w, t) for w in workloads for t in (0, 1)
        ]

    def test_rendered_summary_depends_only_on_the_json(self, ledger_files):
        ledger_json, ledger_txt = ledger_files
        perf_gate.write_ledger([_record("v", p50=12.5), _record("v", trace=1),
                                _record("w", tps=3.0)])
        text = ledger_txt.read_text()
        assert text == perf_gate.render(json.loads(ledger_json.read_text()))
        assert "12.500" in text

    def test_committed_ledger_renders_from_its_json(self):
        ledger = json.loads(perf_gate.LEDGER_JSON.read_text())
        assert perf_gate.LEDGER_TXT.read_text() == perf_gate.render(ledger)
        benchmark = json.loads(perf_gate.BENCHMARK.read_text())
        recorded = {(r["workload"], r["trace"]) for r in ledger}
        assert recorded == {(w["name"], t) for w in benchmark["workloads"] for t in (0, 1)}
