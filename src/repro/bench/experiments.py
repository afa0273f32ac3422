"""Reproductions of every table and figure in the paper's evaluation.

Each ``run_*`` function regenerates one artefact and returns an
:class:`ExperimentReport` containing a rendered text report plus the
underlying data series:

=============== =====================================================
function        paper artefact
=============== =====================================================
run_table1      Table 1 — FLB execution trace on the Fig. 1 graph
run_fig2        Fig. 2 — scheduling cost (running time) vs P
run_fig3        Fig. 3 — FLB speedup vs P per problem and CCR
run_fig4        Fig. 4 — NSL (vs MCP) per problem, CCR and P
run_scaling     X1 — FLB/FCP cost scaling in V (complexity check)
run_ablation_ties  X2 — FLB vs ETF tie-breaking quality gap
run_ablation_llb   X3 — LLB priority direction
run_robustness  X4 — makespan degradation under weight perturbation
run_contention  X5 — degradation under sender-port link contention
run_duplication X6 — DSH duplication quality/cost trade-off vs FLB
run_heterogeneity X7 — speed heterogeneity: HEFT vs homogeneous-minded
run_extended_sweep X8 — TR-style extended problem/granularity sweep
=============== =====================================================

Absolute running times obviously differ from the paper's 1999 hardware; the
reproduction target is the *shape* of each figure (orderings, trends,
crossovers).  See EXPERIMENTS.md for recorded paper-vs-measured outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.bench.runner import group_mean, run_sweep
from repro.bench.suite import PAPER_CCRS, PAPER_PROBLEMS, PAPER_PROCS, paper_suite
from repro.core import TraceRecorder, flb, format_trace
from repro.machine import MachineModel
from repro.metrics.metrics import time_scheduler
from repro.schedulers import SCHEDULERS, dsc, llb
from repro.sim import execute, execute_contended, execute_perturbed
from repro.util.rng import make_rng
from repro.util.tables import format_series_chart, format_table
from repro.workloads import layered_random, paper_example

__all__ = [
    "ExperimentReport",
    "run_table1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_scaling",
    "run_ablation_ties",
    "run_ablation_llb",
    "run_robustness",
    "run_contention",
    "run_duplication",
    "run_heterogeneity",
    "run_extended_sweep",
    "run_all",
]

#: Algorithms compared in Figs. 2 and 4 (the paper's comparison set).
FIGURE_ALGORITHMS: Tuple[str, ...] = ("mcp", "etf", "dsc-llb", "fcp", "flb")


@dataclass
class ExperimentReport:
    """A regenerated table/figure: rendered text plus raw data."""

    experiment: str
    title: str
    text: str
    data: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"== {self.experiment}: {self.title} ==\n{self.text}"


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


def run_table1() -> ExperimentReport:
    """Reproduce Table 1: the FLB execution trace on the Fig. 1 graph, P=2."""
    graph = paper_example()
    recorder = TraceRecorder(graph)
    schedule = flb(graph, MachineModel(2), observer=recorder)
    text = format_trace(recorder) + "\n\n" + schedule.as_table()
    placements = [
        (row.task, row.proc, row.start, row.finish) for row in recorder.rows
    ]
    return ExperimentReport(
        experiment="table1",
        title="FLB execution trace (Fig. 1 graph, P=2)",
        text=text,
        data={"placements": placements, "makespan": schedule.makespan},
    )


# ---------------------------------------------------------------------------
# Fig. 2 — scheduling costs
# ---------------------------------------------------------------------------


def run_fig2(
    target_tasks: int = 2000,
    seeds: int = 5,
    procs: Sequence[int] = PAPER_PROCS,
    algorithms: Sequence[str] = FIGURE_ALGORITHMS,
    problems: Sequence[str] = ("lu", "laplace", "stencil"),
    time_repeats: int = 3,
    workers: int = 1,
) -> ExperimentReport:
    """Reproduce Fig. 2: average algorithm running time vs P.

    ``workers`` is accepted for CLI symmetry with the other figures but the
    timed sweep itself always runs serially — parallel timing runs would
    contend for cores and corrupt the cost measurements this figure is about.
    """
    del workers  # timing must stay serial; see docstring
    instances = paper_suite(target_tasks, seeds=seeds, problems=problems)
    records = run_sweep(
        instances, algorithms, procs, measure_time=True, time_repeats=time_repeats
    )
    mean_ms = group_mean(
        records, key=lambda r: (r.algorithm, r.procs), value=lambda r: r.seconds * 1e3
    )
    rows = [
        [algo, *(mean_ms[(algo, p)] for p in procs)] for algo in algorithms
    ]
    table = format_table(
        ["algorithm", *(f"P={p} [ms]" for p in procs)],
        rows,
        title=f"Fig. 2 — mean scheduling time, V~{instances[0].graph.num_tasks}, "
        f"{len(instances)} instances",
    )
    series = {algo: [mean_ms[(algo, p)] for p in procs] for algo in algorithms}
    chart = format_series_chart(
        list(procs), series, title="scheduling time [ms] vs P", x_label="P"
    )
    return ExperimentReport(
        experiment="fig2",
        title="Scheduling algorithm costs",
        text=table + "\n\n" + chart,
        data={"procs": list(procs), "mean_ms": series},
    )


# ---------------------------------------------------------------------------
# Fig. 3 — FLB speedup
# ---------------------------------------------------------------------------


def run_fig3(
    target_tasks: int = 2000,
    seeds: int = 5,
    procs: Sequence[int] = (1, *PAPER_PROCS),
    problems: Sequence[str] = PAPER_PROBLEMS,
    ccrs: Sequence[float] = PAPER_CCRS,
    workers: int = 1,
) -> ExperimentReport:
    """Reproduce Fig. 3: FLB speedup vs P for each problem and CCR."""
    instances = paper_suite(target_tasks, ccrs=ccrs, seeds=seeds, problems=problems)
    records = run_sweep(instances, ["flb"], procs, workers=workers)
    mean_speedup = group_mean(
        records, key=lambda r: (r.problem, r.ccr, r.procs), value=lambda r: r.speedup
    )
    sections: List[str] = []
    data: Dict[float, Dict[str, List[float]]] = {}
    for ccr in ccrs:
        series = {
            prob: [mean_speedup[(prob, ccr, p)] for p in procs] for prob in problems
        }
        data[ccr] = series
        rows = [[prob, *series[prob]] for prob in problems]
        table = format_table(
            ["problem", *(f"P={p}" for p in procs)],
            rows,
            title=f"Fig. 3 — FLB speedup, CCR = {ccr:g}",
        )
        chart = format_series_chart(
            list(procs), series, title=f"speedup vs P (CCR={ccr:g})", x_label="P"
        )
        sections.append(table + "\n\n" + chart)
    return ExperimentReport(
        experiment="fig3",
        title="FLB speedup",
        text="\n\n".join(sections),
        data={"procs": list(procs), "speedup": data},
    )


# ---------------------------------------------------------------------------
# Fig. 4 — normalized schedule lengths
# ---------------------------------------------------------------------------


def run_fig4(
    target_tasks: int = 2000,
    seeds: int = 5,
    procs: Sequence[int] = PAPER_PROCS,
    algorithms: Sequence[str] = FIGURE_ALGORITHMS,
    problems: Sequence[str] = ("lu", "stencil", "laplace"),
    ccrs: Sequence[float] = PAPER_CCRS,
    workers: int = 1,
) -> ExperimentReport:
    """Reproduce Fig. 4: average NSL (vs MCP) per problem, CCR and P.

    NSL is computed per instance against MCP's schedule length on the same
    instance at the same processor count, then averaged over seeds.
    """
    if "mcp" not in algorithms:
        algorithms = (*algorithms, "mcp")
    instances = paper_suite(target_tasks, ccrs=ccrs, seeds=seeds, problems=problems)
    records = run_sweep(instances, algorithms, procs, workers=workers)
    by_key: Dict[Tuple[str, float, int, int], Dict[str, float]] = {}
    for rec in records:
        by_key.setdefault(
            (rec.problem, rec.ccr, rec.seed_index, rec.procs), {}
        )[rec.algorithm] = rec.makespan
    nsl_sum: Dict[Tuple[str, float, str, int], float] = {}
    nsl_count: Dict[Tuple[str, float, str, int], int] = {}
    for (problem, ccr, _seed, p), spans in by_key.items():
        ref = spans["mcp"]
        for algo, span in spans.items():
            key = (problem, ccr, algo, p)
            nsl_sum[key] = nsl_sum.get(key, 0.0) + span / ref
            nsl_count[key] = nsl_count.get(key, 0) + 1
    nsl = {k: nsl_sum[k] / nsl_count[k] for k in nsl_sum}

    sections: List[str] = []
    data: Dict[str, object] = {}
    for problem in problems:
        for ccr in ccrs:
            series = {
                algo: [nsl[(problem, ccr, algo, p)] for p in procs]
                for algo in algorithms
            }
            data[(problem, ccr)] = series
            rows = [[algo, *series[algo]] for algo in algorithms]
            sections.append(
                format_table(
                    ["algorithm", *(f"P={p}" for p in procs)],
                    rows,
                    title=f"Fig. 4 — mean NSL (vs MCP), {problem}, CCR = {ccr:g}",
                )
            )
    return ExperimentReport(
        experiment="fig4",
        title="Scheduling algorithm performance (NSL)",
        text="\n\n".join(sections),
        data={"procs": list(procs), "nsl": data},
    )


# ---------------------------------------------------------------------------
# X1 — complexity scaling
# ---------------------------------------------------------------------------


def run_scaling(
    sizes: Sequence[int] = (250, 500, 1000, 2000, 4000),
    procs: int = 16,
    layer_width: int = 25,
    algorithms: Sequence[str] = ("flb", "fcp"),
    time_repeats: int = 3,
) -> ExperimentReport:
    """X1: running time of the low-cost schedulers as V grows.

    Uses layered random graphs of fixed width so ``W`` (and ``log W``) stays
    constant while ``V`` and ``E`` scale linearly — under the paper's bound
    the time per task should stay near-constant.
    """
    rows = []
    series: Dict[str, List[float]] = {a: [] for a in algorithms}
    machine = MachineModel(procs)
    for v in sizes:
        layers = max(1, v // layer_width)
        g = layered_random(layers, layer_width, make_rng(7), edge_density=0.15, ccr=1.0)
        row = [g.num_tasks]
        for algo in algorithms:
            seconds = time_scheduler(SCHEDULERS[algo], g, machine, repeats=time_repeats)
            series[algo].append(seconds * 1e3)
            row.append(seconds * 1e3)
            row.append(seconds * 1e6 / g.num_tasks)
        rows.append(row)
    headers = ["V"]
    for algo in algorithms:
        headers += [f"{algo} [ms]", f"{algo} [us/task]"]
    table = format_table(headers, rows, title=f"X1 — cost scaling, P={procs}, W~{layer_width}")
    return ExperimentReport(
        experiment="scaling",
        title="FLB cost scaling in V",
        text=table,
        data={"sizes": [r[0] for r in rows], "ms": series},
    )


# ---------------------------------------------------------------------------
# X2 — FLB vs ETF tie-breaking ablation
# ---------------------------------------------------------------------------


def run_ablation_ties(
    target_tasks: int = 400,
    seeds: int = 5,
    procs: Sequence[int] = (4, 16),
    problems: Sequence[str] = ("lu", "laplace", "stencil"),
) -> ExperimentReport:
    """X2: FLB and ETF share the selection criterion; quantify the makespan
    differences their different tie-breaking produces (paper §6.2: up to
    ~12%, usually in FLB's favour)."""
    instances = paper_suite(target_tasks, seeds=seeds, problems=problems)
    records = run_sweep(instances, ["flb", "etf"], procs)
    spans: Dict[Tuple[str, float, int, int], Dict[str, float]] = {}
    for rec in records:
        spans.setdefault((rec.problem, rec.ccr, rec.seed_index, rec.procs), {})[
            rec.algorithm
        ] = rec.makespan
    ratios = []
    rows = []
    for (problem, ccr, seed, p), d in sorted(spans.items()):
        ratio = d["flb"] / d["etf"]
        ratios.append(ratio)
        rows.append([f"{problem}/ccr={ccr:g}/#{seed}", p, d["etf"], d["flb"], ratio])
    arr = np.array(ratios)
    summary = (
        f"FLB/ETF makespan ratio over {len(ratios)} runs: "
        f"mean {arr.mean():.4f}, min {arr.min():.4f}, max {arr.max():.4f}; "
        f"FLB strictly better in {(arr < 1 - 1e-9).mean() * 100:.0f}%, "
        f"equal in {(np.abs(arr - 1) <= 1e-9).mean() * 100:.0f}% of runs"
    )
    table = format_table(
        ["instance", "P", "ETF", "FLB", "FLB/ETF"],
        rows,
        title="X2 — FLB vs ETF (identical criterion, different tie-breaking)",
    )
    return ExperimentReport(
        experiment="ablation-ties",
        title="FLB vs ETF tie-breaking",
        text=summary + "\n\n" + table,
        data={"ratios": ratios, "mean": float(arr.mean())},
    )


# ---------------------------------------------------------------------------
# X3 — LLB priority-direction ablation
# ---------------------------------------------------------------------------


def run_ablation_llb(
    target_tasks: int = 400,
    seeds: int = 5,
    procs: Sequence[int] = (4, 16),
    problems: Sequence[str] = ("lu", "laplace", "stencil"),
) -> ExperimentReport:
    """X3: 'largest' vs 'least' bottom-level priority in LLB (the FLB paper's
    related-work text and the LLB paper disagree; DESIGN.md §4.4)."""
    instances = paper_suite(target_tasks, seeds=seeds, problems=problems)
    rows = []
    ratios = []
    for inst in instances:
        clustering = dsc(inst.graph)
        for p in procs:
            machine = MachineModel(p)
            largest = llb(inst.graph, clustering, machine, priority="largest").makespan
            least = llb(inst.graph, clustering, machine, priority="least").makespan
            ratio = least / largest
            ratios.append(ratio)
            rows.append([inst.label, p, largest, least, ratio])
    arr = np.array(ratios)
    summary = (
        f"least/largest makespan ratio over {len(ratios)} runs: mean "
        f"{arr.mean():.4f} (>1 means 'largest' wins), worst {arr.max():.4f}"
    )
    table = format_table(
        ["instance", "P", "largest", "least", "least/largest"],
        rows,
        title="X3 — LLB priority direction",
    )
    return ExperimentReport(
        experiment="ablation-llb",
        title="LLB priority direction",
        text=summary + "\n\n" + table,
        data={"ratios": ratios, "mean": float(arr.mean())},
    )


# ---------------------------------------------------------------------------
# X4 — robustness under weight perturbation
# ---------------------------------------------------------------------------


def run_robustness(
    target_tasks: int = 400,
    seeds: int = 3,
    procs: int = 8,
    cvs: Sequence[float] = (0.1, 0.3, 0.5),
    draws: int = 10,
    problems: Sequence[str] = ("lu", "stencil"),
) -> ExperimentReport:
    """X4: how much do FLB schedules degrade when run-time weights deviate
    from the compile-time estimates?  (Self-timed re-execution.)"""
    instances = paper_suite(target_tasks, seeds=seeds, problems=problems)
    rows = []
    data: Dict[float, List[float]] = {cv: [] for cv in cvs}
    for inst in instances:
        schedule = flb(inst.graph, MachineModel(procs))
        for cv in cvs:
            rel = []
            for d in range(draws):
                result = execute_perturbed(
                    schedule, make_rng(hash((inst.label, cv, d)) % 2**32), cv, cv
                )
                rel.append(result.makespan / schedule.makespan)
            mean_rel = float(np.mean(rel))
            data[cv].append(mean_rel)
            rows.append([inst.label, cv, schedule.makespan, mean_rel])
    table = format_table(
        ["instance", "cv", "planned makespan", "mean achieved/planned"],
        rows,
        title=f"X4 — robustness under weight perturbation, P={procs}",
    )
    return ExperimentReport(
        experiment="robustness",
        title="Perturbation robustness",
        text=table,
        data={"relative": {cv: data[cv] for cv in cvs}},
    )


# ---------------------------------------------------------------------------
# X5 — link contention
# ---------------------------------------------------------------------------


def run_contention(
    target_tasks: int = 400,
    seeds: int = 2,
    procs: int = 8,
    bandwidths: Sequence[float] = (0.5, 1.0, 2.0, 8.0),
    algorithms: Sequence[str] = ("flb", "mcp", "dsc-llb"),
    problems: Sequence[str] = ("fft", "lu"),
) -> ExperimentReport:
    """X5: degradation under single-port sender contention — how much of the
    contention-free model's promise survives on a machine that serialises
    outbound messages.  Communication-minimising schedules (DSC-LLB) should
    degrade less at low bandwidth."""
    instances = paper_suite(target_tasks, seeds=seeds, problems=problems)
    rows = []
    data: Dict[str, Dict[float, List[float]]] = {
        algo: {bw: [] for bw in bandwidths} for algo in algorithms
    }
    for inst in instances:
        for algo in algorithms:
            schedule = SCHEDULERS[algo](inst.graph, MachineModel(procs))
            free_span = execute(schedule).makespan
            rel = []
            for bw in bandwidths:
                contended = execute_contended(schedule, bandwidth=bw).makespan
                ratio = contended / free_span
                data[algo][bw].append(ratio)
                rel.append(ratio)
            rows.append([inst.label, algo, *rel])
    table = format_table(
        ["instance", "algorithm", *(f"bw={bw:g}" for bw in bandwidths)],
        rows,
        title=f"X5 — contended / contention-free makespan, P={procs}",
    )
    means = {
        algo: {bw: float(np.mean(v)) for bw, v in per_bw.items()}
        for algo, per_bw in data.items()
    }
    summary_rows = [
        [algo, *(means[algo][bw] for bw in bandwidths)] for algo in algorithms
    ]
    summary = format_table(
        ["algorithm (mean)", *(f"bw={bw:g}" for bw in bandwidths)], summary_rows
    )
    return ExperimentReport(
        experiment="contention",
        title="Degradation under sender-port contention",
        text=summary + "\n\n" + table,
        data={"bandwidths": list(bandwidths), "means": means},
    )


# ---------------------------------------------------------------------------
# X6 — duplication quality/cost trade-off
# ---------------------------------------------------------------------------


def run_duplication(
    target_tasks: int = 400,
    seeds: int = 2,
    procs: int = 8,
    problems: Sequence[str] = ("lu", "fft"),
) -> ExperimentReport:
    """X6: the paper's taxonomy claim — duplication (DSH) buys schedule
    quality at significantly higher scheduling cost than FLB."""
    from repro.duplication import dsh

    instances = paper_suite(target_tasks, seeds=seeds, problems=problems)
    rows = []
    quality = []
    cost = []
    machine = MachineModel(procs)
    for inst in instances:
        f = SCHEDULERS["flb"](inst.graph, machine)
        d = dsh(inst.graph, machine)
        t_f = time_scheduler(SCHEDULERS["flb"], inst.graph, machine, repeats=1)
        t_d = time_scheduler(dsh, inst.graph, machine, repeats=1)
        quality.append(d.makespan / f.makespan)
        cost.append(t_d / t_f)
        rows.append(
            [
                inst.label,
                f.makespan,
                d.makespan,
                d.makespan / f.makespan,
                d.duplication_ratio(),
                t_d / t_f,
            ]
        )
    q = np.asarray(quality)
    c = np.asarray(cost)
    summary = (
        f"DSH/FLB makespan ratio: mean {q.mean():.3f} (min {q.min():.3f}); "
        f"DSH/FLB scheduling-cost ratio: mean {c.mean():.1f}x"
    )
    table = format_table(
        ["instance", "FLB", "DSH", "DSH/FLB", "dup ratio", "cost ratio"],
        rows,
        title=f"X6 — duplication trade-off, P={procs}",
    )
    return ExperimentReport(
        experiment="duplication",
        title="Duplication quality/cost trade-off (DSH vs FLB)",
        text=summary + "\n\n" + table,
        data={"quality": quality, "cost": cost},
    )


# ---------------------------------------------------------------------------
# X7 — heterogeneity
# ---------------------------------------------------------------------------


def run_heterogeneity(
    target_tasks: int = 400,
    seeds: int = 2,
    procs: int = 8,
    skews: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
    algorithms: Sequence[str] = ("heft", "flb", "mcp"),
    problems: Sequence[str] = ("lu", "stencil"),
) -> ExperimentReport:
    """X7: processor-speed heterogeneity (the natural follow-up direction of
    the paper; the authors' later work went heterogeneous).

    ``skew`` is the fastest/slowest speed ratio; speeds are geometrically
    spaced between ``1`` and ``1/skew`` so total capacity varies with skew —
    makespans are therefore normalised per algorithm by HEFT's at the same
    skew, isolating *scheduling* quality from machine capacity.
    """
    instances = paper_suite(target_tasks, seeds=seeds, problems=problems)
    data: Dict[str, Dict[float, List[float]]] = {
        algo: {skew: [] for skew in skews} for algo in algorithms
    }
    for skew in skews:
        if procs > 1:
            speeds = tuple(skew ** (-i / (procs - 1)) for i in range(procs))
        else:
            speeds = (1.0,)
        machine = MachineModel(procs, speeds=speeds)
        for inst in instances:
            spans = {
                algo: SCHEDULERS[algo](inst.graph, machine=machine).makespan
                for algo in algorithms
            }
            ref = spans["heft"]
            for algo in algorithms:
                data[algo][skew].append(spans[algo] / ref)
    rows = [
        [algo, *(float(np.mean(data[algo][skew])) for skew in skews)]
        for algo in algorithms
    ]
    table = format_table(
        ["algorithm (vs HEFT)", *(f"skew={s:g}" for s in skews)],
        rows,
        title=f"X7 — mean makespan relative to HEFT, P={procs}",
    )
    means = {
        algo: {skew: float(np.mean(v)) for skew, v in per.items()}
        for algo, per in data.items()
    }
    return ExperimentReport(
        experiment="heterogeneity",
        title="Processor heterogeneity (HEFT vs homogeneous-minded schedulers)",
        text=table,
        data={"skews": list(skews), "means": means},
    )


# ---------------------------------------------------------------------------
# X8 — TR-style extended sweep
# ---------------------------------------------------------------------------


def run_extended_sweep(
    target_tasks: int = 500,
    seeds: int = 2,
    procs: Sequence[int] = (4, 16),
    ccrs: Sequence[float] = (0.1, 0.5, 1.0, 2.0, 10.0),
    algorithms: Sequence[str] = ("mcp", "dsc-llb", "fcp", "flb"),
) -> ExperimentReport:
    """X8: the paper's TR (ref [6]) evaluates "a larger set of problems and
    granularities"; this sweep extends Fig. 4 in that spirit — five CCR
    points spanning two orders of magnitude and two extra problem families
    (wavefront, cholesky) beyond the conference suite.  ETF is omitted for
    cost (FLB provably matches its criterion; see the Theorem 3 tests)."""
    from repro.workloads import cholesky, cholesky_size_for_tasks, wavefront, wavefront_size_for_tasks

    if "mcp" not in algorithms:
        algorithms = (*algorithms, "mcp")
    instances = list(
        paper_suite(target_tasks, ccrs=ccrs, seeds=seeds, problems=("lu", "stencil"))
    )
    # Extra families, same seeding discipline.
    from repro.util.rng import spawn_rngs

    streams = spawn_rngs(2006, 2 * len(ccrs) * seeds)
    i = 0
    for problem, builder in (
        ("wavefront", lambda rng, c: wavefront(wavefront_size_for_tasks(target_tasks), rng, ccr=c)),
        ("cholesky", lambda rng, c: cholesky(cholesky_size_for_tasks(target_tasks), rng, ccr=c)),
    ):
        for c in ccrs:
            for s in range(seeds):
                from repro.bench.suite import Instance

                instances.append(Instance(problem, c, s, builder(streams[i], c)))
                i += 1

    records = run_sweep(instances, algorithms, procs)
    spans: Dict[Tuple[str, float, int, int], Dict[str, float]] = {}
    for rec in records:
        spans.setdefault((rec.problem, rec.ccr, rec.seed_index, rec.procs), {})[
            rec.algorithm
        ] = rec.makespan
    # Mean NSL per (algorithm, ccr), pooled over problems/procs/seeds.
    sums: Dict[Tuple[str, float], float] = {}
    counts: Dict[Tuple[str, float], int] = {}
    for (problem, c, _s, _p), d in spans.items():
        ref = d["mcp"]
        for algo, span in d.items():
            key = (algo, c)
            sums[key] = sums.get(key, 0.0) + span / ref
            counts[key] = counts.get(key, 0) + 1
    nsl = {k: sums[k] / counts[k] for k in sums}
    rows = [[algo, *(nsl[(algo, c)] for c in ccrs)] for algo in algorithms]
    table = format_table(
        ["algorithm", *(f"CCR={c:g}" for c in ccrs)],
        rows,
        title=(
            f"X8 — mean NSL (vs MCP) pooled over lu/stencil/wavefront/cholesky, "
            f"P in {tuple(procs)}"
        ),
    )
    return ExperimentReport(
        experiment="extended-sweep",
        title="TR-style extended granularity sweep",
        text=table,
        data={"ccrs": list(ccrs), "nsl": {a: [nsl[(a, c)] for c in ccrs] for a in algorithms}},
    )


# ---------------------------------------------------------------------------


def run_all(
    target_tasks: int = 400,
    seeds: int = 2,
    quick: bool = True,
) -> List[ExperimentReport]:
    """Run every experiment at a configurable scale; returns all reports.

    ``quick=True`` trims processor lists and repeat counts so the full set
    finishes in a couple of minutes; the EXPERIMENTS.md record was produced
    with paper-scale parameters.
    """
    procs = (2, 8, 32) if quick else PAPER_PROCS
    reports = [
        run_table1(),
        run_fig2(target_tasks, seeds=seeds, procs=procs, time_repeats=1 if quick else 3),
        run_fig3(target_tasks, seeds=seeds, procs=(1, *procs)),
        run_fig4(target_tasks, seeds=seeds, procs=procs),
        run_scaling(sizes=(250, 500, 1000) if quick else (250, 500, 1000, 2000, 4000)),
        run_ablation_ties(target_tasks, seeds=seeds, procs=procs[:2]),
        run_ablation_llb(target_tasks, seeds=seeds, procs=procs[:2]),
        run_robustness(target_tasks, seeds=min(seeds, 3)),
        run_contention(target_tasks, seeds=min(seeds, 2)),
        run_duplication(target_tasks, seeds=min(seeds, 2)),
        run_heterogeneity(target_tasks, seeds=min(seeds, 2)),
    ]
    return reports
