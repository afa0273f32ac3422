"""The experiment registry: every ``results/<id>.txt`` and its raw data.

:data:`EXPERIMENTS` maps each results-file stem to an :class:`Experiment`
with two halves.  ``run(tasks, seeds, workers)`` measures and returns
JSON-native raw records — per-instance makespans and per-call seconds,
never pre-aggregated means — and ``render(data)`` builds the text report
from those records alone.  ``repro-sched experiment <id>|all -o DIR``
writes ``DIR/raw/<id>.json`` and then ``DIR/<id>.txt`` rendered from it,
so every committed report can be re-rendered or re-analysed without
re-running anything.

=============== =====================================================
id              artefact
=============== =====================================================
table1          Table 1 — FLB execution trace on the Fig. 1 graph
fig2            Fig. 2 — scheduling cost (running time) vs P
fig3            Fig. 3 — FLB speedup vs P per problem and CCR
fig4            Fig. 4 — NSL (vs MCP) per problem, CCR and P
scaling         X1 — array-kernel cost on square stencils, 10^3..10^6 tasks
ablation-ties   X2 — FLB vs ETF tie-breaking quality gap
ablation-llb    X3 — LLB priority direction
robustness      X4 — makespan degradation under weight perturbation
contention      X5 — degradation under sender-port link contention
duplication     X6 — DSH duplication quality/cost trade-off vs FLB
heterogeneity   X7 — speed heterogeneity: HEFT vs homogeneous-minded
extended-sweep  X8 — TR-style extended problem/granularity sweep
incremental     warm-start rescheduling vs the cold array kernel
batch_payload   batch dispatch: inline pickle vs the shared graph plane
serving         HTTP service: goodput and shed rate vs offered load
=============== =====================================================

Each entry's defaults are the scale of its committed report.  ``tasks``
is the one size argument: tasks per instance, or the largest V for
``scaling``, ``incremental``, ``serving`` and ``batch_payload``.
Absolute running times differ from the paper's 1999 hardware; the
reproduction target is the *shape* of each figure (orderings, trends,
crossovers).  See EXPERIMENTS.md for recorded paper-vs-measured outcomes.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.runner import group_mean, run_sweep
from repro.bench.suite import PAPER_CCRS, PAPER_PROBLEMS, PAPER_PROCS, Instance, paper_suite
from repro.core import flb
from repro.core.trace import render_trace, trace_rows
from repro.machine import MachineModel
from repro.metrics.metrics import time_scheduler
from repro.schedulers import SCHEDULERS, dsc, llb
from repro.sim import execute, execute_contended, execute_perturbed
from repro.util.rng import make_rng
from repro.util.tables import format_series_chart, format_table
from repro.workloads import lu, lu_size_for_tasks, paper_example, stencil, stencil_size_for_tasks

__all__ = [
    "EXPERIMENTS",
    "FIGURE_ALGORITHMS",
    "Experiment",
    "by_instance",
    "contention_means",
    "heterogeneity_means",
    "to_json",
]

#: JSON-native raw data of one experiment run.
Data = Dict[str, Any]

#: Algorithms compared in Figs. 2 and 4 (the paper's comparison set).
FIGURE_ALGORITHMS: Tuple[str, ...] = ("mcp", "etf", "dsc-llb", "fcp", "flb")

FIG2_PROBLEMS = ("lu", "laplace", "stencil")
FIG4_PROBLEMS = ("lu", "stencil", "laplace")
FIG4_PROCS = (2, 8, 32)


@dataclass(frozen=True)
class Experiment:
    """One results file: how to measure it and how to render it."""

    id: str
    title: str
    #: Default scale: the committed report's.
    tasks: int
    seeds: int
    measure: Callable[[int, int, int], Data]
    body: Callable[[Data], str]

    def run(
        self, tasks: Optional[int] = None, seeds: Optional[int] = None, workers: int = 1
    ) -> Data:
        """Measure at ``tasks``/``seeds`` (default: the committed scale)."""
        tasks = self.tasks if tasks is None else tasks
        seeds = self.seeds if seeds is None else seeds
        return {"tasks": tasks, "seeds": seeds, **self.measure(tasks, seeds, workers)}

    def render(self, data: Data) -> str:
        """The report text, built from ``data`` alone."""
        return f"== {self.id}: {self.title} ==\n{self.body(data)}\n"


def to_json(data: Data) -> str:
    """``data`` as JSON with one top-level key, and one record, per line."""
    lines = []
    for key, value in data.items():
        if isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            records = ",\n  ".join(json.dumps(v) for v in value)
            lines.append(f" {json.dumps(key)}: [\n  {records}\n ]")
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _sweep(
    instances: Sequence[Instance], algorithms: Sequence[str], procs: Sequence[int],
    workers: int = 1, measure_time: bool = False,
) -> List[Data]:
    records = run_sweep(instances, algorithms, procs, workers=workers,
                        measure_time=measure_time)
    return [asdict(rec) for rec in records]


def by_instance(records: List[Data]) -> Dict[Tuple[str, float, int, int], Dict[str, float]]:
    """Sweep records as ``{(problem, ccr, seed, P): {algorithm: makespan}}``."""
    spans: Dict[Tuple[str, float, int, int], Dict[str, float]] = {}
    for r in records:
        key = (r["problem"], r["ccr"], r["seed_index"], r["procs"])
        spans.setdefault(key, {})[r["algorithm"]] = r["makespan"]
    return spans


def _up_to(sizes: Sequence[int], largest: int) -> List[int]:
    """The V ladder of a size sweep: ``sizes`` below ``largest``, then it."""
    return [*(v for v in sizes if v < largest), largest]


def _best_seconds(fn: Callable[[], object], repeats: int) -> float:
    """Best of ``repeats`` timed calls, with the garbage collector off.

    At large V, generational sweeps over the million-object graph would
    dominate the timed region; they are allocator noise, not kernel cost.
    """
    best = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


def _table1(tasks: int, seeds: int, workers: int) -> Data:
    graph = paper_example()
    schedule = flb(graph, MachineModel(2))
    return {
        "procs": 2,
        "makespan": schedule.makespan,
        "trace": trace_rows(schedule),
        "schedule": [[graph.name(e.task), e.task, e.proc, e.start, e.finish] for e in schedule],
    }


def _render_table1(data: Data) -> str:
    schedule = format_table(
        ["task", "id", "proc", "start", "finish"],
        data["schedule"],
        title=f"schedule on {data['procs']} processors, makespan {data['makespan']:g}",
    )
    return render_trace(data["trace"]) + "\n\n" + schedule


# ---------------------------------------------------------------------------
# Figs. 2-4
# ---------------------------------------------------------------------------


def _fig2(tasks: int, seeds: int, workers: int) -> Data:
    # Timed sweeps stay serial whatever ``workers`` says: parallel timing
    # runs would contend for cores and corrupt the costs this figure shows.
    instances = paper_suite(tasks, seeds=seeds, problems=FIG2_PROBLEMS)
    return {
        "V": instances[0].graph.num_tasks,
        "procs": list(PAPER_PROCS),
        "algorithms": list(FIGURE_ALGORITHMS),
        "records": _sweep(instances, FIGURE_ALGORITHMS, PAPER_PROCS, measure_time=True),
    }


def _render_fig2(data: Data) -> str:
    procs, algorithms = data["procs"], data["algorithms"]
    mean_ms = group_mean(
        data["records"], key=lambda r: (r["algorithm"], r["procs"]),
        value=lambda r: r["seconds"] * 1e3,
    )
    series = {a: [mean_ms[(a, p)] for p in procs] for a in algorithms}
    table = format_table(
        ["algorithm", *(f"P={p} [ms]" for p in procs)],
        [[a, *series[a]] for a in algorithms],
        title=f"Fig. 2 — mean scheduling time, V~{data['V']}, "
        f"{len(by_instance(data['records'])) // len(procs)} instances",
    )
    chart = format_series_chart(procs, series, title="scheduling time [ms] vs P", x_label="P")
    return table + "\n\n" + chart


def _fig3(tasks: int, seeds: int, workers: int) -> Data:
    procs = (1, *PAPER_PROCS)
    return {
        "procs": list(procs),
        "problems": list(PAPER_PROBLEMS),
        "ccrs": list(PAPER_CCRS),
        "records": _sweep(paper_suite(tasks, seeds=seeds), ["flb"], procs, workers=workers),
    }


def _render_fig3(data: Data) -> str:
    procs, problems = data["procs"], data["problems"]
    mean_speedup = group_mean(
        data["records"], key=lambda r: (r["problem"], r["ccr"], r["procs"]),
        value=lambda r: r["speedup"],
    )
    sections = []
    for ccr in data["ccrs"]:
        series = {prob: [mean_speedup[(prob, ccr, p)] for p in procs] for prob in problems}
        table = format_table(
            ["problem", *(f"P={p}" for p in procs)],
            [[prob, *series[prob]] for prob in problems],
            title=f"Fig. 3 — FLB speedup, CCR = {ccr:g}",
        )
        chart = format_series_chart(
            procs, series, title=f"speedup vs P (CCR={ccr:g})", x_label="P"
        )
        sections.append(table + "\n\n" + chart)
    return "\n\n".join(sections)


def _fig4(tasks: int, seeds: int, workers: int) -> Data:
    instances = paper_suite(tasks, seeds=seeds, problems=FIG4_PROBLEMS)
    return {
        "procs": list(FIG4_PROCS),
        "problems": list(FIG4_PROBLEMS),
        "ccrs": list(PAPER_CCRS),
        "algorithms": list(FIGURE_ALGORITHMS),
        "records": _sweep(instances, FIGURE_ALGORITHMS, FIG4_PROCS, workers=workers),
    }


def _mean_nsl(
    records: List[Data], key: Callable[[Tuple[str, float, int, int]], Tuple[object, ...]]
) -> Dict[Tuple[object, ...], float]:
    """Mean per-instance NSL (makespan over MCP's on the same instance and
    P), grouped by ``(*key(instance), algorithm)``."""
    return group_mean(
        [((*key(inst), algo), span / spans["mcp"])
         for inst, spans in by_instance(records).items() for algo, span in spans.items()],
        key=lambda kv: kv[0], value=lambda kv: kv[1],
    )


def _render_fig4(data: Data) -> str:
    procs, algorithms = data["procs"], data["algorithms"]
    nsl = _mean_nsl(data["records"], key=lambda inst: (inst[0], inst[1], inst[3]))
    sections = []
    for problem in data["problems"]:
        for ccr in data["ccrs"]:
            sections.append(format_table(
                ["algorithm", *(f"P={p}" for p in procs)],
                [[a, *(nsl[(problem, ccr, p, a)] for p in procs)] for a in algorithms],
                title=f"Fig. 4 — mean NSL (vs MCP), {problem}, CCR = {ccr:g}",
            ))
    return "\n\n".join(sections)


# ---------------------------------------------------------------------------
# X1 — cost scaling in V
# ---------------------------------------------------------------------------


def _scaling(tasks: int, seeds: int, workers: int) -> Data:
    """The array kernel on square stencil grids from 10^3 up to ``tasks``.

    Square grids (``cells = steps = sqrt(V)``) keep the shape family fixed
    while V grows, so time/V directly tests the paper's
    ``O(V (log W + log P) + E)`` bound: with bounded degree (E ~ 3V) and
    slowly-growing W, the per-task cost must stay near-flat.
    """
    from repro.core.flb_array import flb_array

    machine = MachineModel(16)
    records = []
    for v in _up_to((1_000, 10_000, 100_000), tasks):
        side = math.isqrt(v)
        graph = stencil(side, side, make_rng(7))
        seconds = _best_seconds(partial(flb_array, graph, machine), 3 if v <= 10_000 else 2)
        records.append({"V": graph.num_tasks, "E": graph.num_edges, "seconds": seconds})
        del graph  # one large graph alive at a time: 10^6 tasks take ~2 GB
    return {"procs": machine.num_procs, "records": records}


def _render_scaling(data: Data) -> str:
    rows = data["records"]
    lines = [
        f"square 1-D stencil grids, P={data['procs']}, bounded degree (E ~ 3V)",
        format_table(
            ["V", "E", "time [s]", "us/task", "tasks/s"],
            [[r["V"], r["E"], r["seconds"], r["seconds"] / r["V"] * 1e6, r["V"] / r["seconds"]]
             for r in rows],
        ),
    ]
    lo = next((r for r in rows if r["V"] >= 9_000), None)
    hi = rows[-1] if rows[-1]["V"] >= 100_000 else None
    if lo is not None and hi is not None and hi["V"] > lo["V"]:
        flat = (hi["seconds"] / hi["V"]) / (lo["seconds"] / lo["V"])
        lines.append(
            f"time/V from V={lo['V']:,} to V={hi['V']:,}: {flat:.2f}x "
            f"({'flat within 2x — near-linear' if flat < 2.0 else 'NOT flat'})"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# X2 — FLB vs ETF tie-breaking; X3 — LLB priority direction
# ---------------------------------------------------------------------------

ABLATION_PROBLEMS = ("lu", "laplace", "stencil")
ABLATION_PROCS = (4, 16)


def _ablation_ties(tasks: int, seeds: int, workers: int) -> Data:
    """FLB and ETF share the selection criterion; their makespans differ
    only by tie-breaking (paper §6.2: up to ~12%, usually in FLB's
    favour)."""
    instances = paper_suite(tasks, seeds=seeds, problems=ABLATION_PROBLEMS)
    return {"records": _sweep(instances, ("flb", "etf"), ABLATION_PROCS, workers=workers)}


def _render_ablation_ties(data: Data) -> str:
    rows = [
        [f"{problem}/ccr={ccr:g}/#{seed}", p, d["etf"], d["flb"], d["flb"] / d["etf"]]
        for (problem, ccr, seed, p), d in sorted(by_instance(data["records"]).items())
    ]
    arr = np.array([row[-1] for row in rows])
    summary = (
        f"FLB/ETF makespan ratio over {len(rows)} runs: "
        f"mean {arr.mean():.4f}, min {arr.min():.4f}, max {arr.max():.4f}; "
        f"FLB strictly better in {(arr < 1 - 1e-9).mean() * 100:.0f}%, "
        f"equal in {(np.abs(arr - 1) <= 1e-9).mean() * 100:.0f}% of runs"
    )
    table = format_table(
        ["instance", "P", "ETF", "FLB", "FLB/ETF"], rows,
        title="X2 — FLB vs ETF (identical criterion, different tie-breaking)",
    )
    return summary + "\n\n" + table


def _ablation_llb(tasks: int, seeds: int, workers: int) -> Data:
    """'largest' vs 'least' bottom-level priority in LLB (the FLB paper's
    related-work text and the LLB paper disagree; DESIGN.md §4.4)."""
    records = []
    for inst in paper_suite(tasks, seeds=seeds, problems=ABLATION_PROBLEMS):
        clustering = dsc(inst.graph)
        for p in ABLATION_PROCS:
            spans = {
                priority: llb(inst.graph, clustering, MachineModel(p), priority=priority).makespan
                for priority in ("largest", "least")
            }
            records.append({"instance": inst.label, "procs": p, **spans})
    return {"records": records}


def _render_ablation_llb(data: Data) -> str:
    rows = [[r["instance"], r["procs"], r["largest"], r["least"], r["least"] / r["largest"]]
            for r in data["records"]]
    arr = np.array([row[-1] for row in rows])
    summary = (
        f"least/largest makespan ratio over {len(rows)} runs: mean "
        f"{arr.mean():.4f} (>1 means 'largest' wins), worst {arr.max():.4f}"
    )
    table = format_table(
        ["instance", "P", "largest", "least", "least/largest"], rows,
        title="X3 — LLB priority direction",
    )
    return summary + "\n\n" + table


# ---------------------------------------------------------------------------
# X4 — weight perturbation; X5 — link contention; X6 — duplication
# ---------------------------------------------------------------------------

ROBUSTNESS_CVS = (0.1, 0.3, 0.5)
ROBUSTNESS_DRAWS = 10


def _robustness(tasks: int, seeds: int, workers: int) -> Data:
    """How much do FLB schedules degrade when run-time weights deviate
    from the compile-time estimates?  (Self-timed re-execution.)"""
    machine = MachineModel(8)
    records = []
    for i, inst in enumerate(paper_suite(tasks, seeds=seeds, problems=("lu", "stencil"))):
        schedule = flb(inst.graph, machine)
        rng = make_rng(i)
        for cv in ROBUSTNESS_CVS:
            achieved = [execute_perturbed(schedule, rng, cv, cv).makespan
                        for _ in range(ROBUSTNESS_DRAWS)]
            records.append({"instance": inst.label, "cv": cv,
                            "planned": schedule.makespan, "achieved": achieved})
    return {"procs": machine.num_procs, "records": records}


def _render_robustness(data: Data) -> str:
    return format_table(
        ["instance", "cv", "planned makespan", "mean achieved/planned"],
        [[r["instance"], r["cv"], r["planned"], statistics.fmean(r["achieved"]) / r["planned"]]
         for r in data["records"]],
        title=f"X4 — robustness under weight perturbation, P={data['procs']}",
    )


CONTENTION_BANDWIDTHS = (0.5, 1.0, 2.0, 8.0)
CONTENTION_ALGORITHMS = ("flb", "mcp", "dsc-llb")


def _contention(tasks: int, seeds: int, workers: int) -> Data:
    """Degradation under single-port sender contention: how much of the
    contention-free model's promise survives on a machine that serialises
    outbound messages.  Communication-minimising schedules (DSC-LLB)
    should degrade less at low bandwidth."""
    machine = MachineModel(8)
    records = []
    for inst in paper_suite(tasks, seeds=seeds, problems=("fft", "lu")):
        for algo in CONTENTION_ALGORITHMS:
            schedule = SCHEDULERS[algo](inst.graph, machine)
            records.append({
                "instance": inst.label, "algorithm": algo, "free": execute(schedule).makespan,
                "contended": [execute_contended(schedule, bandwidth=bw).makespan
                              for bw in CONTENTION_BANDWIDTHS],
            })
    return {"procs": machine.num_procs, "bandwidths": list(CONTENTION_BANDWIDTHS),
            "algorithms": list(CONTENTION_ALGORITHMS), "records": records}


def contention_means(data: Data) -> Dict[str, List[float]]:
    """Mean contended/contention-free makespan per algorithm, one value
    per bandwidth."""
    return {
        algo: [
            statistics.fmean(r["contended"][i] / r["free"]
                             for r in data["records"] if r["algorithm"] == algo)
            for i in range(len(data["bandwidths"]))
        ]
        for algo in data["algorithms"]
    }


def _render_contention(data: Data) -> str:
    bw_headers = [f"bw={bw:g}" for bw in data["bandwidths"]]
    means = contention_means(data)
    summary = format_table(
        ["algorithm (mean)", *bw_headers], [[algo, *means[algo]] for algo in means]
    )
    table = format_table(
        ["instance", "algorithm", *bw_headers],
        [[r["instance"], r["algorithm"], *(c / r["free"] for c in r["contended"])]
         for r in data["records"]],
        title=f"X5 — contended / contention-free makespan, P={data['procs']}",
    )
    return summary + "\n\n" + table


def _duplication(tasks: int, seeds: int, workers: int) -> Data:
    """The paper's taxonomy claim: duplication (DSH) buys schedule quality
    at significantly higher scheduling cost than FLB."""
    from repro.duplication import dsh

    machine = MachineModel(8)
    records = []
    for inst in paper_suite(tasks, seeds=seeds, problems=("lu", "fft")):
        d = dsh(inst.graph, machine)
        records.append({
            "instance": inst.label,
            "flb": flb(inst.graph, machine).makespan,
            "dsh": d.makespan,
            "dup_ratio": d.duplication_ratio(),
            "flb_s": time_scheduler(flb, inst.graph, machine, repeats=1),
            "dsh_s": time_scheduler(dsh, inst.graph, machine, repeats=1),
        })
    return {"procs": machine.num_procs, "records": records}


def _render_duplication(data: Data) -> str:
    rows = [[r["instance"], r["flb"], r["dsh"], r["dsh"] / r["flb"], r["dup_ratio"],
             r["dsh_s"] / r["flb_s"]] for r in data["records"]]
    q = np.array([row[3] for row in rows])
    c = np.array([row[5] for row in rows])
    summary = (
        f"DSH/FLB makespan ratio: mean {q.mean():.3f} (min {q.min():.3f}); "
        f"DSH/FLB scheduling-cost ratio: mean {c.mean():.1f}x"
    )
    table = format_table(
        ["instance", "FLB", "DSH", "DSH/FLB", "dup ratio", "cost ratio"], rows,
        title=f"X6 — duplication trade-off, P={data['procs']}",
    )
    return summary + "\n\n" + table


# ---------------------------------------------------------------------------
# X7 — heterogeneity
# ---------------------------------------------------------------------------

HETEROGENEITY_SKEWS = (1.0, 2.0, 4.0, 8.0)
HETEROGENEITY_ALGORITHMS = ("heft", "flb", "mcp")


def _heterogeneity(tasks: int, seeds: int, workers: int) -> Data:
    """Processor-speed heterogeneity (the authors' later work went
    heterogeneous).

    ``skew`` is the fastest/slowest speed ratio; speeds are geometrically
    spaced between ``1`` and ``1/skew``, so total capacity varies with
    skew and makespans are normalised by HEFT's at the same skew.  Each
    row also schedules FLB on the heterogeneity-blind model — one uniform
    rate equal to the true machine's mean — and times the independent
    certificate of that schedule (F001/F002) and of HEFT's (F003 replay).
    """
    from repro.verify import certify

    procs = 8
    instances = paper_suite(tasks, seeds=seeds, problems=("lu", "stencil"))
    records = []
    for skew in HETEROGENEITY_SKEWS:
        speeds = tuple(skew ** (-i / (procs - 1)) for i in range(procs))
        machine = MachineModel(procs, speeds=speeds)
        mean_rate = MachineModel(procs, speeds=(sum(speeds) / procs,) * procs)
        for inst in instances:
            schedules = {algo: SCHEDULERS[algo](inst.graph, machine=machine)
                         for algo in HETEROGENEITY_ALGORITHMS}
            blind = flb(inst.graph, mean_rate)
            record: Data = {"instance": inst.label, "skew": skew,
                            **{algo: s.makespan for algo, s in schedules.items()},
                            "flb_mean_rate": blind.makespan}
            for name, schedule in (("flb", blind), ("heft", schedules["heft"])):
                t0 = time.perf_counter()
                cert = certify(schedule, flavor=name)
                record[f"certify_{name}_s"] = time.perf_counter() - t0
                if not cert.ok:
                    raise RuntimeError(cert.render())
            records.append(record)
    return {"procs": procs, "skews": list(HETEROGENEITY_SKEWS),
            "algorithms": list(HETEROGENEITY_ALGORITHMS), "records": records}


def heterogeneity_means(data: Data, column: str) -> Dict[float, float]:
    """Mean makespan of ``column`` relative to HEFT's, per skew."""
    return {
        skew: statistics.fmean(r[column] / r["heft"] for r in data["records"]
                               if r["skew"] == skew)
        for skew in data["skews"]
    }


def _render_heterogeneity(data: Data) -> str:
    skews = data["skews"]
    headers = [f"skew={s:g}" for s in skews]
    columns = [*((a, a) for a in data["algorithms"]), ("flb_mean_rate", "flb, mean-rate model")]
    relative = format_table(
        ["algorithm (vs HEFT)", *headers],
        [[name, *heterogeneity_means(data, col).values()] for col, name in columns],
        title=f"X7 — mean makespan relative to HEFT, P={data['procs']}",
    )
    certify_ms = format_table(
        ["certificate", *headers],
        [[name, *(statistics.fmean(r[col] * 1e3 for r in data["records"] if r["skew"] == s)
                  for s in skews)]
         for col, name in (("certify_flb_s", "flb (F001/F002)"), ("certify_heft_s", "heft (F003)"))],
        title="mean certify time per schedule [ms]",
    )
    return relative + "\n\n" + certify_ms


# ---------------------------------------------------------------------------
# X8 — TR-style extended sweep
# ---------------------------------------------------------------------------

EXTENDED_CCRS = (0.1, 0.5, 1.0, 2.0, 10.0)
EXTENDED_ALGORITHMS = ("mcp", "dsc-llb", "fcp", "flb")


def _extended_sweep(tasks: int, seeds: int, workers: int) -> Data:
    """The paper's TR (ref [6]) evaluates "a larger set of problems and
    granularities"; this sweep extends Fig. 4 in that spirit — five CCR
    points spanning two orders of magnitude and two extra problem families
    (wavefront, cholesky) beyond the conference suite.  ETF is omitted for
    cost (FLB provably matches its criterion; see the Theorem 3 tests)."""
    instances = paper_suite(tasks, ccrs=EXTENDED_CCRS, seeds=seeds, problems=("lu", "stencil"))
    instances += paper_suite(tasks, ccrs=EXTENDED_CCRS, seeds=seeds,
                             problems=("wavefront", "cholesky"), base_seed=2006)
    procs = (4, 16)
    return {
        "procs": list(procs),
        "ccrs": list(EXTENDED_CCRS),
        "algorithms": list(EXTENDED_ALGORITHMS),
        "records": _sweep(instances, EXTENDED_ALGORITHMS, procs, workers=workers),
    }


def _render_extended_sweep(data: Data) -> str:
    # Mean NSL per (algorithm, ccr), pooled over problems, P and seeds.
    nsl = _mean_nsl(data["records"], key=lambda inst: (inst[1],))
    return format_table(
        ["algorithm", *(f"CCR={c:g}" for c in data["ccrs"])],
        [[a, *(nsl[(c, a)] for c in data["ccrs"])] for a in data["algorithms"]],
        title="X8 — mean NSL (vs MCP) pooled over lu/stencil/wavefront/cholesky, "
        f"P in {tuple(data['procs'])}",
    )


# ---------------------------------------------------------------------------
# The serving planes: warm start, batch dispatch, HTTP load, fast path
# ---------------------------------------------------------------------------


def _incremental(tasks: int, seeds: int, workers: int) -> Data:
    """Warm-start reuse sweep: 0.1%..50% of late tasks retuned on stencil
    graphs of 10^4 and 10^5 tasks (up to ``tasks``) and an LU graph of
    up to 10^4 tasks."""
    from repro.bench.warmstart import FRACTIONS, PROCS, measure_pair

    graphs = [("stencil", stencil(*stencil_size_for_tasks(v), make_rng(7)))
              for v in _up_to((10_000,), tasks)]
    graphs.append(("lu", lu(lu_size_for_tasks(min(tasks, 10_000)), make_rng(7))))
    records = []
    for name, graph in graphs:
        for fraction in FRACTIONS:
            cold, warm, stats = measure_pair(graph, fraction, 3 if graph.num_tasks <= 20_000 else 2)
            served = "fallback" not in stats
            records.append({
                "graph": name, "V": graph.num_tasks, "mutated": fraction,
                "reuse": float(stats.get("fraction", 0.0)) if served else None,
                "cold_s": cold, "warm_s": warm,
            })
    return {"procs": PROCS, "records": records}


def _render_incremental(data: Data) -> str:
    return "\n".join([
        f"late-task comp retunes, P={data['procs']}; warm includes diff + "
        "incremental re-hash + suffix replay (bit-identical to cold)",
        format_table(
            ["graph", "V", "mutated", "reuse", "cold [ms]", "warm [ms]", "speedup"],
            [[r["graph"], r["V"], f"{r['mutated']:.1%}",
              "fallback" if r["reuse"] is None else f"{r['reuse']:.1%}",
              r["cold_s"] * 1e3, r["warm_s"] * 1e3, f"{r['cold_s'] / r['warm_s']:.1f}x"]
             for r in data["records"]],
        ),
    ])


def _batch_payload(tasks: int, seeds: int, workers: int) -> Data:
    from repro.bench.payload import PASSES, SWEEP, payload_bytes, throughput

    workers = max(2, workers)  # the payload crosses a pipe only with a pool
    records = []
    for v in _up_to((300,), tasks):
        graph = lu(lu_size_for_tasks(v), make_rng(0), ccr=1.0)
        inline, keyed, segment = payload_bytes(graph)
        records.append({
            "V": graph.num_tasks, "E": graph.num_edges, "inline_bytes": inline,
            "keyed_bytes": keyed, "segment_bytes": segment,
            "jobs_per_s": throughput(graph, workers=workers, passes=PASSES),
        })
    return {"jobs": len(SWEEP), "passes": PASSES, "workers": workers, "records": records}


def _render_batch_payload(data: Data) -> str:
    rows = []
    for r in data["records"]:
        jps = r["jobs_per_s"]
        rows.append([
            r["V"], r["E"], round(r["inline_bytes"]), round(r["keyed_bytes"]),
            f"{r['inline_bytes'] / r['keyed_bytes']:.1f}x", jps["inline"],
            *(f"{jps[mode]:.1f} ({jps[mode] / jps['inline']:.2f}x)"
              for mode in ("keyed", "keyed+cache")),
        ])
    return format_table(
        ["V", "E", "inline [B/job]", "keyed [B/job]", "smaller", "inline [jobs/s]",
         "keyed [jobs/s]", "keyed+cache [jobs/s]"],
        rows,
        title=f"LU graph, {data['jobs']}-job (P, algorithm) sweep x {data['passes']} passes, "
        f"workers={data['workers']}; keyed bytes include the shared-memory segment "
        "amortised over the sweep",
    )


def _serving(tasks: int, seeds: int, workers: int) -> Data:
    from repro.bench.serving import offered_load

    steps, meta = offered_load(tasks=tasks)
    records = [{
        "offered": s.offered, "sent": s.sent, "ok": s.ok, "shed": s.shed, "other": s.other,
        "seconds": s.window,
        "p50_ms": statistics.median(s.latencies) * 1e3 if s.latencies else None,
        "retry_hint_s": statistics.fmean(s.retry_hints) if s.retry_hints else None,
    } for s in steps]
    return {"V": meta["graph_tasks"], "max_backlog": meta["max_backlog"],
            "window_s": meta["window_seconds"], "records": records}


def _render_serving(data: Data) -> str:
    return format_table(
        ["offered[rps]", "sent", "ok(200)", "shed(429)", "other", "goodput[rps]",
         "shed_rate", "p50[ms]", "retry_hint[s]"],
        [[r["offered"], r["sent"], r["ok"], r["shed"], r["other"], r["ok"] / r["seconds"],
          r["shed"] / r["sent"], *("-" if x is None else x for x in (r["p50_ms"], r["retry_hint_s"]))]
         for r in data["records"]],
        title=f"offered load vs goodput / shed rate (V={data['V']}, "
        f"max_backlog={data['max_backlog']}, window={data['window_s']:g}s per step); "
        "distinct procs per request defeat the result cache",
    )


EXPERIMENTS: Dict[str, Experiment] = {
    e.id: e
    for e in (
        Experiment("table1", "FLB execution trace (Fig. 1 graph, P=2)", 8, 1,
                   _table1, _render_table1),
        Experiment("fig2", "Scheduling algorithm costs", 2000, 2, _fig2, _render_fig2),
        Experiment("fig3", "FLB speedup", 2000, 3, _fig3, _render_fig3),
        Experiment("fig4", "Scheduling algorithm performance (NSL)", 2000, 2,
                   _fig4, _render_fig4),
        Experiment("scaling", "FLB array kernel cost scaling in V", 1_000_000, 1,
                   _scaling, _render_scaling),
        Experiment("ablation-ties", "FLB vs ETF tie-breaking", 1000, 3,
                   _ablation_ties, _render_ablation_ties),
        Experiment("ablation-llb", "LLB priority direction", 1000, 3,
                   _ablation_llb, _render_ablation_llb),
        Experiment("robustness", "Perturbation robustness", 1000, 3,
                   _robustness, _render_robustness),
        Experiment("contention", "Degradation under sender-port contention", 1000, 2,
                   _contention, _render_contention),
        Experiment("duplication", "Duplication quality/cost trade-off (DSH vs FLB)", 1000, 2,
                   _duplication, _render_duplication),
        Experiment("heterogeneity",
                   "Processor heterogeneity (HEFT vs homogeneous-minded schedulers)", 1000, 2,
                   _heterogeneity, _render_heterogeneity),
        Experiment("extended-sweep", "TR-style extended granularity sweep", 500, 2,
                   _extended_sweep, _render_extended_sweep),
        Experiment("incremental", "warm-start rescheduling vs cold array kernel", 100_000, 1,
                   _incremental, _render_incremental),
        Experiment("batch_payload", "batch dispatch payload and throughput, inline pickle "
                   "vs the shared graph plane", 2000, 1, _batch_payload, _render_batch_payload),
        Experiment("serving", "HTTP service goodput and shed rate vs offered load", 2000, 1,
                   _serving, _render_serving),
    )
}
