"""Tests for the repro-sched command-line interface."""

import dataclasses
import json

import pytest

from repro.bench import EXPERIMENTS
from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestGenerate:
    def test_writes_json(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code, text = run_cli(
            capsys, "generate", "--problem", "fft", "--tasks", "100", "-o", str(out)
        )
        assert code == 0
        assert "wrote fft" in text
        doc = json.loads(out.read_text())
        assert doc["format"] == "repro-taskgraph"
        assert len(doc["tasks"]) >= 100

    @pytest.mark.parametrize(
        "problem", ["lu", "lu-chain", "laplace", "stencil", "fft", "cholesky"]
    )
    def test_all_problems(self, tmp_path, capsys, problem):
        out = tmp_path / "g.json"
        code, _ = run_cli(
            capsys, "generate", "--problem", problem, "--tasks", "60", "-o", str(out)
        )
        assert code == 0
        assert out.exists()


class TestSchedule:
    def test_generated_workload(self, capsys):
        code, text = run_cli(
            capsys,
            "schedule", "--problem", "stencil", "--tasks", "80",
            "--procs", "3", "--algo", "flb",
        )
        assert code == 0
        assert "makespan" in text
        assert "speedup" in text

    def test_from_file_with_gantt_and_table(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        run_cli(capsys, "generate", "--problem", "lu", "--tasks", "40", "-o", str(out))
        code, text = run_cli(
            capsys,
            "schedule", "--graph", str(out), "--procs", "2",
            "--algo", "mcp", "--gantt", "--table",
        )
        assert code == 0
        assert "P0" in text  # gantt rows
        assert "proc" in text  # placement table header

    def test_every_algorithm(self, capsys):
        from repro.schedulers import SCHEDULERS

        for algo in sorted(SCHEDULERS):
            code, text = run_cli(
                capsys,
                "schedule", "--problem", "fft", "--tasks", "40",
                "--procs", "2", "--algo", algo,
            )
            assert code == 0, algo
            assert "makespan" in text


class TestCompare:
    def test_table_lists_all_algorithms(self, capsys):
        code, text = run_cli(
            capsys, "compare", "--problem", "fft", "--tasks", "60", "--procs", "2"
        )
        assert code == 0
        for algo in ("flb", "etf", "mcp", "dsc-llb"):
            assert algo in text
        assert "NSL" in text


class TestTrace:
    def test_default_is_paper_example(self, capsys):
        code, text = run_cli(capsys, "trace")
        assert code == 0
        assert "t3[2;12/3]" in text
        assert "makespan = 14" in text

    def test_custom_graph(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        run_cli(capsys, "generate", "--problem", "fft", "--tasks", "30", "-o", str(out))
        code, text = run_cli(capsys, "trace", "--graph", str(out), "--procs", "3")
        assert code == 0
        assert "scheduling" in text


class TestExperiment:
    def test_table1(self, capsys):
        code, text = run_cli(capsys, "experiment", "table1")
        assert code == 0
        assert "t7 -> p0, [12 - 14]" in text

    def test_fig3_small(self, capsys, tmp_path):
        code, text = run_cli(
            capsys,
            "experiment", "fig3", "--tasks", "60", "--seeds", "1", "-o", str(tmp_path),
        )
        assert code == 0
        assert "FLB speedup" in text
        assert "FLB speedup" in (tmp_path / "fig3.txt").read_text()
        raw = json.loads((tmp_path / "raw" / "fig3.json").read_text())
        assert (raw["tasks"], raw["seeds"]) == (60, 1)

    def test_all_writes_every_registry_id(self, capsys, tmp_path, monkeypatch):
        for exp_id, experiment in list(EXPERIMENTS.items()):
            monkeypatch.setitem(EXPERIMENTS, exp_id, dataclasses.replace(
                experiment, measure=lambda tasks, seeds, workers: {}, body=lambda data: "stub",
            ))
        code, _ = run_cli(capsys, "experiment", "all", "-o", str(tmp_path))
        assert code == 0
        assert sorted(p.name for p in tmp_path.glob("*.txt")) == sorted(
            f"{exp_id}.txt" for exp_id in EXPERIMENTS
        )
        assert sorted(p.name for p in (tmp_path / "raw").iterdir()) == sorted(
            f"{exp_id}.json" for exp_id in EXPERIMENTS
        )


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_algo(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", "--algo", "bogus"])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "bogus"])


class TestAnalyze:
    def test_properties_printed(self, capsys):
        code, text = run_cli(
            capsys, "analyze", "--problem", "cholesky", "--tasks", "80"
        )
        assert code == 0
        for field in ("tasks:", "width:", "critical path:", "ccr:"):
            assert field in text

    def test_from_file(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        run_cli(capsys, "generate", "--problem", "fft", "--tasks", "40", "-o", str(out))
        code, text = run_cli(capsys, "analyze", "--graph", str(out))
        assert code == 0
        assert "width:" in text


class TestExecute:
    def test_contention_free_matches(self, capsys):
        code, text = run_cli(
            capsys, "execute", "--problem", "stencil", "--tasks", "60", "--procs", "3"
        )
        assert code == 0
        assert "matches" in text

    def test_noise_and_contention_flags(self, capsys):
        code, text = run_cli(
            capsys,
            "execute", "--problem", "fft", "--tasks", "60", "--procs", "4",
            "--noise-cv", "0.3", "--bandwidth", "1.0", "--draws", "3",
        )
        assert code == 0
        assert "contended" in text
        assert "perturbed" in text


class TestLint:
    def test_clean_workload(self, capsys):
        code, text = run_cli(capsys, "lint", "--problem", "lu", "--tasks", "80")
        assert code == 0
        assert "clean" in text

    def test_json_output(self, capsys):
        code, text = run_cli(
            capsys, "lint", "--problem", "fft", "--tasks", "60", "--json"
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["ok"] is True
        assert doc["issues"] == []

    def test_malformed_file_reports_all_codes(self, tmp_path, capsys):
        doc = {
            "format": "repro-taskgraph",
            "version": 1,
            "tasks": [{"id": 0, "comp": 1.0}, {"id": 1, "comp": -1.0}],
            "edges": [
                {"src": 0, "dst": 1, "comm": 1.0},
                {"src": 0, "dst": 1, "comm": 2.0},
                {"src": 1, "dst": 0, "comm": 1.0},
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, text = run_cli(capsys, "lint", "--graph", str(path))
        assert code == 1
        for rule in ("G001", "G003", "G004"):
            assert rule in text

    def test_strict_promotes_warnings(self, tmp_path, capsys):
        doc = {
            "format": "repro-taskgraph",
            "version": 1,
            "tasks": [
                {"id": 0, "comp": 1.0},
                {"id": 1, "comp": 1.0},
                {"id": 2, "comp": 1.0},
            ],
            "edges": [{"src": 0, "dst": 1, "comm": 1.0}],
        }
        path = tmp_path / "warn.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli(capsys, "lint", "--graph", str(path))
        assert code == 0  # G006 isolated task is only a warning
        code, _ = run_cli(capsys, "lint", "--graph", str(path), "--strict")
        assert code == 1

    def test_unreadable_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{ not json")
        assert main(["lint", "--graph", str(path)]) == 2


class TestCertify:
    def test_flb_certifies(self, capsys):
        code, text = run_cli(
            capsys, "certify", "--problem", "lu", "--tasks", "80",
            "--procs", "4", "--algo", "flb",
        )
        assert code == 0
        assert "greedy certificate (flb): checked" in text
        assert "valid" in text

    def test_structural_only_algo(self, capsys):
        code, text = run_cli(
            capsys, "certify", "--problem", "fft", "--tasks", "60",
            "--procs", "4", "--algo", "mcp", "--json",
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["ok"] is True
        assert doc["flavor"] is None
        assert doc["algo"] == "mcp"

    def test_from_file(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        run_cli(capsys, "generate", "--problem", "stencil", "--tasks", "50",
                "-o", str(out))
        code, text = run_cli(
            capsys, "certify", "--graph", str(out), "--procs", "2", "--algo", "etf"
        )
        assert code == 0
        assert "greedy certificate (etf): checked" in text


class TestBatchCertify:
    def test_batch_certify_flag(self, capsys):
        code, text = run_cli(
            capsys,
            "batch", "--problems", "lu", "--procs", "2", "--algos", "flb", "etf",
            "--tasks", "60", "--workers", "1", "--certify",
        )
        assert code == 0
        assert "2/2 ok" in text
