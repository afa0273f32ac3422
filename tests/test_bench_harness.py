"""Tests for the experiment harness (suite, runner, and the experiment
registry) at miniature scale — the committed scale lives in results/ and
EXPERIMENTS.md."""

import json
from functools import partial
from pathlib import Path

import pytest

import repro.bench.serving
from repro.bench import (
    EXPERIMENTS,
    FIGURE_ALGORITHMS,
    PAPER_CCRS,
    PAPER_PROBLEMS,
    PAPER_PROCS,
    group_mean,
    paper_suite,
    run_sweep,
)
from repro.bench.experiments import by_instance
from repro.graph import ccr as graph_ccr

RESULTS = Path(__file__).resolve().parents[1] / "results"

#: Miniature (tasks, seeds) per registry entry; the rest run at (100, 1).
SMALL = {"fig2": (60, 1), "extended-sweep": (80, 1), "scaling": (2000, 1),
         "incremental": (1000, 1)}


@pytest.fixture(scope="module")
def small_run():
    """``small_run(id)``: one miniature run of a registry entry, cached."""
    runs = {}

    def run(exp_id):
        if exp_id not in runs:
            tasks, seeds = SMALL.get(exp_id, (100, 1))
            with pytest.MonkeyPatch.context() as mp:
                # Two short offered-load steps instead of five 2 s windows.
                mp.setattr(repro.bench.serving, "offered_load", partial(
                    repro.bench.serving.offered_load, rates=(5, 40), window=0.5))
                runs[exp_id] = EXPERIMENTS[exp_id].run(tasks, seeds)
        return runs[exp_id]

    return run


def _nsl(records, group):
    """Mean NSL vs MCP, keyed by ``(*group(problem, ccr, P), algorithm)``."""
    return group_mean(
        [((*group(problem, ccr, p), algo), span / spans["mcp"])
         for (problem, ccr, _seed, p), spans in by_instance(records).items()
         for algo, span in spans.items()],
        key=lambda kv: kv[0], value=lambda kv: kv[1],
    )


class TestSuite:
    def test_paper_defaults(self):
        assert PAPER_PROBLEMS == ("lu", "laplace", "stencil", "fft")
        assert PAPER_CCRS == (0.2, 5.0)
        assert PAPER_PROCS == (2, 4, 8, 16, 32)

    def test_suite_composition(self):
        suite = paper_suite(150, seeds=2)
        assert len(suite) == 4 * 2 * 2
        labels = {i.label for i in suite}
        assert len(labels) == len(suite)

    def test_sizes_and_ccr(self):
        for inst in paper_suite(150, seeds=1):
            assert inst.graph.num_tasks >= 150
            assert graph_ccr(inst.graph) == pytest.approx(inst.ccr, rel=1e-9)

    def test_seeds_differ(self):
        a, b = paper_suite(120, seeds=2, problems=("fft",), ccrs=(1.0,))
        assert a.graph.comps != b.graph.comps

    def test_suite_deterministic(self):
        s1 = paper_suite(120, seeds=1, problems=("lu",))
        s2 = paper_suite(120, seeds=1, problems=("lu",))
        assert s1[0].graph.comps == s2[0].graph.comps

    def test_bad_args(self):
        with pytest.raises(ValueError):
            paper_suite(100, seeds=0)
        with pytest.raises(ValueError):
            paper_suite(100, problems=("bogus",))


class TestRunner:
    def test_sweep_records(self):
        suite = paper_suite(100, seeds=1, problems=("fft",))
        records = run_sweep(suite, ["flb", "mcp"], (2, 4), validate=True)
        assert len(records) == len(suite) * 2 * 2
        for rec in records:
            assert rec.makespan > 0
            assert rec.seconds is None

    def test_sweep_with_timing(self):
        suite = paper_suite(100, seeds=1, problems=("fft",), ccrs=(1.0,))
        records = run_sweep(suite, ["flb"], (2,), measure_time=True)
        assert all(r.seconds is not None and r.seconds > 0 for r in records)

    def test_sweep_rejects_unknown(self):
        suite = paper_suite(100, seeds=1, problems=("fft",), ccrs=(1.0,))
        with pytest.raises(ValueError):
            run_sweep(suite, ["bogus"], (2,))

    def test_group_mean(self):
        suite = paper_suite(100, seeds=2, problems=("fft",), ccrs=(1.0,))
        records = run_sweep(suite, ["flb"], (2,))
        means = group_mean(records, key=lambda r: (r.algorithm,), value=lambda r: r.speedup)
        assert set(means) == {("flb",)}
        assert means[("flb",)] > 1.0


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_render_reads_only_the_json(small_run, exp_id):
    """Every entry runs at small scale, and its report is a function of the
    JSON-native data alone."""
    experiment = EXPERIMENTS[exp_id]
    data = small_run(exp_id)
    assert experiment.render(json.loads(json.dumps(data))) == experiment.render(data)


def test_committed_results_render_from_their_raw_json():
    for exp_id, experiment in EXPERIMENTS.items():
        data = json.loads((RESULTS / "raw" / f"{exp_id}.json").read_text())
        assert (RESULTS / f"{exp_id}.txt").read_text() == experiment.render(data), exp_id
    assert sorted(p.stem for p in RESULTS.glob("*.txt")) == sorted(EXPERIMENTS)
    assert sorted(p.stem for p in (RESULTS / "raw").iterdir()) == sorted(EXPERIMENTS)


class TestExperimentReports:
    def test_table1(self, small_run):
        data = small_run("table1")
        assert data["makespan"] == 14.0
        assert len(data["trace"]) == 8

    def test_fig2_small(self, small_run):
        data = small_run("fig2")
        assert "Fig. 2" in EXPERIMENTS["fig2"].render(data)
        assert {r["algorithm"] for r in data["records"]} == set(FIGURE_ALGORITHMS)
        assert all(r["seconds"] > 0 for r in data["records"])

    def test_fig3_small(self, small_run):
        speedup = group_mean(
            small_run("fig3")["records"], key=lambda r: (r["problem"], r["ccr"], r["procs"]),
            value=lambda r: r["speedup"],
        )
        for ccr in PAPER_CCRS:
            for problem in ("fft", "stencil"):
                assert speedup[(problem, ccr, 1)] == pytest.approx(1.0, rel=1e-6)
                assert speedup[(problem, ccr, 4)] > 1.0

    def test_fig4_small(self, small_run):
        data = small_run("fig4")
        nsl = _nsl(data["records"], lambda problem, ccr, p: (problem, ccr, p))
        assert [nsl[("stencil", 0.2, p, "mcp")] for p in data["procs"]] == [
            pytest.approx(1.0)
        ] * len(data["procs"])
        for value in nsl.values():
            assert 0.3 < value < 3.0

    def test_scaling_small(self, small_run):
        records = small_run("scaling")["records"]
        assert [r["V"] for r in records] == [31 * 31, 44 * 44]
        assert all(r["seconds"] > 0 for r in records)

    def test_ablation_ties_small(self, small_run):
        data = small_run("ablation-ties")
        ratios = [d["flb"] / d["etf"] for d in by_instance(data["records"]).values()]
        assert 0.5 < sum(ratios) / len(ratios) < 1.5
        assert "FLB/ETF" in EXPERIMENTS["ablation-ties"].render(data)

    def test_ablation_llb_small(self, small_run):
        ratios = [r["least"] / r["largest"] for r in small_run("ablation-llb")["records"]]
        assert sum(ratios) / len(ratios) > 0.5

    def test_robustness_small(self, small_run):
        for r in small_run("robustness")["records"]:
            assert all(a / r["planned"] > 0.5 for a in r["achieved"])


class TestExtendedSweep:
    def test_small_run(self, small_run):
        data = small_run("extended-sweep")
        nsl = _nsl(data["records"], lambda problem, ccr, p: (ccr,))
        assert {algo for _ccr, algo in nsl} >= {"mcp", "flb"}
        for ccr in data["ccrs"]:
            assert nsl[(ccr, "mcp")] == pytest.approx(1.0)
        for value in nsl.values():
            assert 0.3 < value < 3.0
        assert "X8" in EXPERIMENTS["extended-sweep"].render(data)
