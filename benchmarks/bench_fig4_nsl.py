"""Fig. 4 — normalized schedule lengths (vs MCP) per problem, CCR and P.

The paper's findings: MCP and ETF trade the lead depending on problem and
granularity (MCP up to ~23% better on LU; ETF up to ~5% better on Laplace);
FLB tracks ETF (same selection criterion) and stays comparable to MCP/FCP;
DSC-LLB is consistently worse (typically <= 20%, up to ~42% longer); FLB
consistently outperforms DSC-LLB.

``bench_*`` times the full five-algorithm comparison on one instance;
``test_fig4_shape`` asserts the orderings on suite averages.
"""

import pytest

from repro.bench import FIGURE_ALGORITHMS, run_sweep
from repro.machine import MachineModel
from repro.schedulers import SCHEDULERS

FIG4_PROCS = (2, 8, 32)


@pytest.mark.parametrize("problem", ["lu", "stencil", "laplace"])
def bench_fig4_all_algorithms(benchmark, suite_by_problem, problem):
    graph = suite_by_problem[(problem, 5.0)]

    def run():
        return {a: SCHEDULERS[a](graph, MachineModel(8)).makespan for a in FIGURE_ALGORITHMS}

    spans = benchmark(run)
    benchmark.extra_info["nsl_flb"] = round(spans["flb"] / spans["mcp"], 4)
    assert spans["flb"] > 0


@pytest.fixture(scope="module")
def nsl_records(fig_suite):
    """Per-instance makespans for all algorithms at the Fig. 4 processor
    counts, on the (smaller) benchmark suite."""
    instances = [i for i in fig_suite if i.problem in ("lu", "stencil", "laplace")]
    records = run_sweep(instances, FIGURE_ALGORITHMS, FIG4_PROCS)
    spans = {}
    for rec in records:
        spans.setdefault((rec.problem, rec.ccr, rec.seed_index, rec.procs), {})[
            rec.algorithm
        ] = rec.makespan
    return spans


def _mean_nsl(spans, algo, ref="mcp"):
    ratios = [d[algo] / d[ref] for d in spans.values()]
    return sum(ratios) / len(ratios)


def test_fig4_shape_flb_tracks_etf(nsl_records):
    """FLB and ETF share the selection criterion; their suite-average NSLs
    must be close (paper: differences only from tie-breaking, <= ~12%)."""
    assert _mean_nsl(nsl_records, "flb") == pytest.approx(
        _mean_nsl(nsl_records, "etf"), abs=0.12
    )


def test_fig4_shape_one_step_algorithms_comparable(nsl_records):
    """FLB, FCP, ETF all land within ~15% of MCP on suite average."""
    for algo in ("flb", "fcp", "etf"):
        assert _mean_nsl(nsl_records, algo) == pytest.approx(1.0, abs=0.15)


def test_fig4_shape_flb_beats_dsc_llb(nsl_records):
    """The paper's headline: FLB consistently outperforms DSC-LLB.  On suite
    average DSC-LLB must be no better than FLB, and FLB must win the
    majority of per-instance comparisons where they differ."""
    assert _mean_nsl(nsl_records, "dsc-llb") >= _mean_nsl(nsl_records, "flb") - 0.02
    wins = losses = 0
    for d in nsl_records.values():
        if d["flb"] < d["dsc-llb"] - 1e-9:
            wins += 1
        elif d["dsc-llb"] < d["flb"] - 1e-9:
            losses += 1
    assert wins >= losses


def test_fig4_shape_dsc_llb_within_paper_band(nsl_records):
    """DSC-LLB's deficit stays in the paper's reported band (typically
    <= 20%, occasionally up to ~42% worse than the one-step algorithms)."""
    mean = _mean_nsl(nsl_records, "dsc-llb")
    assert mean < 1.45
    worst = max(d["dsc-llb"] / d["mcp"] for d in nsl_records.values())
    assert worst < 2.0
