"""Throughput perf gate: threshold logic (deterministic) and a smoke
measurement (marked ``perfgate``; run via ``tools/perf_smoke.sh``)."""

import json

import pytest

from repro.bench.perfgate import measure_throughput, run_gate


def _current(tasks_per_s):
    return {"tasks_per_s": tasks_per_s, "total_tasks": 1000, "suite": {}}


class TestGateLogic:
    def test_first_run_bootstraps_baseline(self, tmp_path):
        path = tmp_path / "BENCH_sched.json"
        result = run_gate(current=_current(1000.0), baseline_path=path)
        assert result.ok
        assert result.threshold is None
        stored = json.loads(path.read_text())
        assert stored["baseline"]["tasks_per_s"] == 1000.0
        assert stored["current"]["tasks_per_s"] == 1000.0

    def test_within_tolerance_passes(self, tmp_path):
        path = tmp_path / "BENCH_sched.json"
        run_gate(current=_current(1000.0), baseline_path=path)
        result = run_gate(
            current=_current(810.0), baseline_path=path, tolerance=0.20
        )
        assert result.ok
        assert result.threshold == pytest.approx(800.0)

    def test_regression_fails(self, tmp_path):
        path = tmp_path / "BENCH_sched.json"
        run_gate(current=_current(1000.0), baseline_path=path)
        result = run_gate(
            current=_current(790.0), baseline_path=path, tolerance=0.20
        )
        assert not result.ok
        assert "REGRESSION" in result.message
        # The failed measurement is still recorded; the baseline is not.
        stored = json.loads(path.read_text())
        assert stored["baseline"]["tasks_per_s"] == 1000.0
        assert stored["current"]["tasks_per_s"] == 790.0
        assert stored["last_run"]["ok"] is False

    def test_improvement_does_not_move_baseline(self, tmp_path):
        path = tmp_path / "BENCH_sched.json"
        run_gate(current=_current(1000.0), baseline_path=path)
        result = run_gate(current=_current(5000.0), baseline_path=path)
        assert result.ok
        assert json.loads(path.read_text())["baseline"]["tasks_per_s"] == 1000.0

    def test_update_baseline(self, tmp_path):
        path = tmp_path / "BENCH_sched.json"
        run_gate(current=_current(1000.0), baseline_path=path)
        result = run_gate(
            current=_current(700.0), baseline_path=path, update_baseline=True
        )
        assert result.ok
        assert json.loads(path.read_text())["baseline"]["tasks_per_s"] == 700.0

    def test_no_write_leaves_file_alone(self, tmp_path):
        path = tmp_path / "BENCH_sched.json"
        run_gate(current=_current(1000.0), baseline_path=path)
        before = path.read_text()
        run_gate(current=_current(100.0), baseline_path=path, write=False)
        assert path.read_text() == before

    def test_bad_tolerance_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_gate(
                current=_current(1.0),
                baseline_path=tmp_path / "b.json",
                tolerance=1.5,
            )


class TestBaselineHistory:
    def test_bootstrap_starts_history(self, tmp_path):
        path = tmp_path / "BENCH_sched.json"
        run_gate(current=_current(1000.0), baseline_path=path)
        stored = json.loads(path.read_text())
        assert [h["tasks_per_s"] for h in stored["history"]] == [1000.0]
        assert all("recorded" in h for h in stored["history"])

    def test_rebaseline_appends_not_replaces(self, tmp_path):
        path = tmp_path / "BENCH_sched.json"
        run_gate(current=_current(1000.0), baseline_path=path)
        run_gate(current=_current(4000.0), baseline_path=path,
                 update_baseline=True)
        run_gate(current=_current(10000.0), baseline_path=path,
                 update_baseline=True)
        stored = json.loads(path.read_text())
        assert [h["tasks_per_s"] for h in stored["history"]] == [
            1000.0, 4000.0, 10000.0,
        ]
        # The gate judges against the latest entry.
        assert stored["baseline"]["tasks_per_s"] == 10000.0

    def test_plain_runs_do_not_grow_history(self, tmp_path):
        path = tmp_path / "BENCH_sched.json"
        run_gate(current=_current(1000.0), baseline_path=path)
        run_gate(current=_current(1100.0), baseline_path=path)
        run_gate(current=_current(900.0), baseline_path=path)
        stored = json.loads(path.read_text())
        assert len(stored["history"]) == 1

    def test_gate_floor_follows_latest_history_entry(self, tmp_path):
        path = tmp_path / "BENCH_sched.json"
        run_gate(current=_current(1000.0), baseline_path=path)
        run_gate(current=_current(4000.0), baseline_path=path,
                 update_baseline=True)
        # 3300 clears the old 1000-baseline but not the ratcheted 4000 one.
        result = run_gate(
            current=_current(3300.0), baseline_path=path, tolerance=0.10
        )
        assert not result.ok
        assert result.threshold == pytest.approx(3600.0)

    def test_pre_history_file_is_migrated(self, tmp_path):
        path = tmp_path / "BENCH_sched.json"
        path.write_text(json.dumps({
            "benchmark": "flb-scheduling-throughput",
            "baseline": _current(1000.0),
            "current": _current(1000.0),
        }))
        run_gate(current=_current(950.0), baseline_path=path)
        stored = json.loads(path.read_text())
        assert [h["tasks_per_s"] for h in stored["history"]] == [1000.0]
        assert stored["baseline"]["tasks_per_s"] == 1000.0

    def test_pre_history_rebaseline_keeps_old_entry(self, tmp_path):
        """Re-baselining a pre-history file must not discard its old floor."""
        path = tmp_path / "BENCH_sched.json"
        path.write_text(json.dumps({
            "benchmark": "flb-scheduling-throughput",
            "baseline": _current(1000.0),
            "current": _current(1000.0),
        }))
        run_gate(
            current=_current(5000.0), baseline_path=path, update_baseline=True
        )
        stored = json.loads(path.read_text())
        assert [h["tasks_per_s"] for h in stored["history"]] == [
            1000.0, 5000.0,
        ]
        assert stored["baseline"]["tasks_per_s"] == 5000.0


@pytest.mark.perfgate
def test_measure_throughput_smoke(tmp_path):
    """A real (small) measurement flows through the gate end to end."""
    current = measure_throughput(
        target_tasks=150, seeds=1, procs=(2, 8), repeats=1
    )
    assert current["tasks_per_s"] > 0
    result = run_gate(current=current, baseline_path=tmp_path / "BENCH_sched.json")
    assert result.ok
