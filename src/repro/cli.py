"""Command-line interface: ``repro-sched``.

Subcommands::

    generate    build a workload task graph and write it to JSON
    schedule    schedule a graph (generated or loaded) and print the result
    compare     run every algorithm on one instance, side by side
    trace       print the FLB execution trace (Table 1 format)
    lint        statically analyse a task graph (rule codes G001..)
    certify     schedule, then independently verify the result (S/F codes)
    batch       schedule many jobs across supervised worker processes
    serve       run the HTTP scheduling service (see docs/serving.md)
    report      render a human summary from a --trace-out JSONL trace
    experiment  regenerate a results/<id>.txt (tables, figures, extensions)

Observability flags are spelled the same everywhere they appear
(``batch``, ``lint``, ``certify``, ``report``): ``--json`` switches the
report to machine-readable JSON, ``--metrics-out FILE`` writes Prometheus
text exposition, ``--trace-out FILE`` writes the JSONL event trace, and
``--stats`` prints run counters.  See docs/observability.md.

Examples::

    repro-sched generate --problem lu --tasks 500 --ccr 5.0 -o lu.json
    repro-sched schedule --graph lu.json --procs 8 --algo flb --gantt
    repro-sched schedule --problem stencil --tasks 400 --procs 8 --algo mcp
    repro-sched compare --problem fft --tasks 300 --procs 16
    repro-sched trace
    repro-sched experiment fig2 --tasks 500 --seeds 2 -o results
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    from repro.obs import MetricsRegistry

from repro.api import SchedulingOptions, compute_schedule, schedule_graph
from repro.bench.experiments import EXPERIMENTS, to_json
from repro.core import flb, format_trace
from repro.graph import TaskGraph, load_json, save_json, width
from repro.machine.model import MachineModel
from repro.metrics import summarize, time_scheduler
from repro.schedule import render_gantt
from repro.schedulers import SCHEDULERS
from repro.util.rng import make_rng
from repro.util.tables import format_table
from repro.workloads import PROBLEMS, build_problem

__all__ = ["main", "build_parser"]


def _build_problem(problem: str, tasks: int, ccr: float, seed: int) -> TaskGraph:
    return build_problem(problem, tasks, make_rng(seed), ccr)


def _resolve_graph(args: argparse.Namespace) -> TaskGraph:
    if getattr(args, "graph", None):
        return load_json(args.graph)
    return _build_problem(args.problem, args.tasks, args.ccr, args.seed)


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    """The shared machine-model flag set: spelled identically everywhere.

    No flag given means the homogeneous default machine — bit-identical to
    the pre-machine-model behaviour.
    """
    parser.add_argument(
        "--speeds", nargs="+", type=float, default=None, metavar="S",
        help="per-processor relative speeds (length must match the "
             "processor count); any non-uniform vector makes the machine "
             "heterogeneous",
    )
    parser.add_argument(
        "--comm-scale", type=float, default=None, metavar="X",
        help="multiplier applied to every remote communication cost "
             "(default 1.0)",
    )
    parser.add_argument(
        "--latency", type=float, default=None, metavar="L",
        help="fixed per-message latency added to every remote "
             "communication (default 0.0)",
    )
    parser.add_argument(
        "--machine-json", metavar="JSON|FILE", default=None,
        help="full machine document (MachineModel.to_dict form): inline "
             "JSON or a path to a JSON file; mutually exclusive with "
             "--speeds/--comm-scale/--latency",
    )


def _machine_flags_given(args: argparse.Namespace) -> bool:
    return any(
        getattr(args, flag, None) is not None
        for flag in ("machine_json", "speeds", "comm_scale", "latency")
    )


def _machine_from_args(
    args: argparse.Namespace, procs: Optional[int]
) -> MachineModel:
    """The target machine: ``--procs`` plus the
    ``--speeds/--comm-scale/--latency/--machine-json`` flags.

    With no machine flag this is the homogeneous clique ``MachineModel(procs)``.
    ``procs`` is the subcommand's processor count (``None`` for ``serve``,
    which sizes the machine from the flags themselves).  Exits with a
    message (:class:`SystemExit`) on conflicts or malformed documents.
    """
    import json as _json
    from pathlib import Path

    doc_text = getattr(args, "machine_json", None)
    speeds = getattr(args, "speeds", None)
    comm_scale = getattr(args, "comm_scale", None)
    latency = getattr(args, "latency", None)
    if doc_text is not None:
        if speeds is not None or comm_scale is not None or latency is not None:
            raise SystemExit(
                "--machine-json is mutually exclusive with "
                "--speeds/--comm-scale/--latency"
            )
        text = doc_text
        if not text.lstrip().startswith("{"):
            try:
                text = Path(doc_text).read_text()
            except OSError as exc:
                raise SystemExit(f"cannot read --machine-json: {exc}") from None
        try:
            machine = MachineModel.from_dict(_json.loads(text))
        except (TypeError, ValueError) as exc:
            raise SystemExit(f"bad --machine-json: {exc}") from None
        if procs is not None and machine.num_procs != procs:
            raise SystemExit(
                f"--machine-json has num_procs={machine.num_procs} but "
                f"--procs is {procs}; pass a matching --procs"
            )
        return machine
    if procs is None:
        if speeds is None:
            raise SystemExit(
                "--comm-scale/--latency need --speeds or --machine-json "
                "here to size the machine"
            )
        procs = len(speeds)
    if speeds is not None and len(speeds) != procs:
        raise SystemExit(
            f"--speeds has {len(speeds)} entries but the machine has "
            f"{procs} processors"
        )
    try:
        return MachineModel(
            procs,
            comm_scale=1.0 if comm_scale is None else comm_scale,
            latency=0.0 if latency is None else latency,
            speeds=None if speeds is None else tuple(speeds),
        )
    except ValueError as exc:
        raise SystemExit(f"bad machine: {exc}") from None


def _add_workload_args(parser: argparse.ArgumentParser, with_graph: bool = True) -> None:
    if with_graph:
        parser.add_argument("--graph", help="load a task graph from JSON instead of generating")
    parser.add_argument("--problem", choices=tuple(PROBLEMS), default="lu", help="workload family")
    parser.add_argument("--tasks", type=int, default=500, help="approximate task count")
    parser.add_argument("--ccr", type=float, default=1.0, help="communication-to-computation ratio")
    parser.add_argument("--seed", type=int, default=0, help="weight RNG seed")


def _add_obs_args(
    parser: argparse.ArgumentParser,
    json_help: str,
    trace: bool = False,
) -> None:
    """The shared observability flag set: spelled identically everywhere."""
    parser.add_argument("--json", action="store_true", dest="json_out",
                        help=json_help)
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write Prometheus text exposition of the run's "
                        "metrics to FILE (enables instrumentation)")
    if trace:
        parser.add_argument("--trace-out", metavar="FILE", default=None,
                            help="write the JSONL event trace to FILE "
                            "(render it with `repro-sched report FILE`)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sched",
        description="FLB (ICPP 1999) reproduction: schedulers, workloads, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a workload graph as JSON")
    _add_workload_args(p_gen, with_graph=False)
    p_gen.add_argument("-o", "--output", required=True, help="output JSON path")

    p_sched = sub.add_parser("schedule", help="schedule a graph and print the result")
    _add_workload_args(p_sched)
    p_sched.add_argument("--procs", type=int, default=4)
    p_sched.add_argument("--algo", choices=sorted(SCHEDULERS), default="flb")
    _add_machine_args(p_sched)
    p_sched.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")
    p_sched.add_argument("--table", action="store_true", help="print the placement table")

    p_cmp = sub.add_parser("compare", help="run every algorithm on one instance")
    _add_workload_args(p_cmp)
    p_cmp.add_argument("--procs", type=int, default=8)

    p_trace = sub.add_parser("trace", help="print an FLB execution trace (Table 1 format)")
    p_trace.add_argument("--graph", help="JSON graph (default: the paper's Fig. 1 example)")
    p_trace.add_argument("--procs", type=int, default=2)

    p_an = sub.add_parser(
        "analyze",
        help="print task-graph properties, or — given source paths — run "
        "the project's A-rule static analyzer",
    )
    p_an.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="Python files/directories to statically analyze (rule codes "
        "A101..); with no paths, prints task-graph properties instead",
    )
    _add_workload_args(p_an)
    p_an.add_argument("--json", action="store_true", dest="json_out",
                      help="emit the analysis report as JSON (source mode)")
    p_an.add_argument("--strict", action="store_true",
                      help="treat warnings and stale baseline entries as "
                      "failures (source mode)")
    p_an.add_argument("--baseline", metavar="FILE", default=None,
                      help="suppression baseline (default: "
                      "tools/analysis-baseline.json when present)")
    p_an.add_argument("--write-baseline", metavar="FILE", default=None,
                      help="snapshot the current findings as a baseline "
                      "file and exit 0")

    p_lint = sub.add_parser(
        "lint", help="statically analyse a task graph before scheduling"
    )
    _add_workload_args(p_lint)
    _add_obs_args(p_lint, json_help="emit the report as JSON")
    p_lint.add_argument("--stats", action="store_true",
                        help="print lint latency and per-rule-code counts")
    p_lint.add_argument("--strict", action="store_true",
                        help="treat warnings as failures")

    p_cert = sub.add_parser(
        "certify", help="schedule a graph, then independently certify the result"
    )
    _add_workload_args(p_cert)
    p_cert.add_argument("--procs", type=int, default=4)
    p_cert.add_argument("--algo", choices=sorted(SCHEDULERS), default="flb")
    _add_machine_args(p_cert)
    _add_obs_args(p_cert, json_help="emit the certificate as JSON")
    p_cert.add_argument("--stats", action="store_true",
                        help="print certify latency and per-check-code counts")

    p_exec = sub.add_parser(
        "execute", help="schedule, then re-execute under perturbation/contention"
    )
    _add_workload_args(p_exec)
    p_exec.add_argument("--procs", type=int, default=4)
    p_exec.add_argument("--algo", choices=sorted(SCHEDULERS), default="flb")
    p_exec.add_argument("--noise-cv", type=float, default=0.0,
                        help="lognormal weight noise coefficient of variation")
    p_exec.add_argument("--bandwidth", type=float, default=0.0,
                        help="sender-port bandwidth (0 = contention-free)")
    p_exec.add_argument("--draws", type=int, default=10)

    p_exp = sub.add_parser(
        "experiment", help="regenerate results/<id>.txt and its raw JSON (see EXPERIMENTS.md)"
    )
    p_exp.add_argument("which", choices=[*EXPERIMENTS, "all"], help="experiment id")
    p_exp.add_argument("--tasks", type=int, default=None,
                       help="tasks per instance, or the largest V for scaling, incremental, "
                       "serving and batch_payload (default: the committed report's scale)")
    p_exp.add_argument("--seeds", type=int, default=None,
                       help="instances per configuration (default: the committed scale)")
    p_exp.add_argument("--workers", type=int, default=1,
                       help="worker processes for the quality sweeps "
                       "(timed experiments always run serially)")
    p_exp.add_argument("-o", "--output", metavar="DIR",
                       help="write DIR/raw/<id>.json, then DIR/<id>.txt rendered from it")

    p_batch = sub.add_parser(
        "batch", help="schedule many (problem, P, algo) jobs across worker processes"
    )
    p_batch.add_argument("--problems", nargs="+", choices=tuple(PROBLEMS), default=["lu"],
                         help="workload families (one graph per problem x seed)")
    p_batch.add_argument("--procs", nargs="+", type=int, default=[8],
                         help="processor counts")
    p_batch.add_argument("--algos", nargs="+", choices=sorted(SCHEDULERS),
                         default=["flb"], help="algorithms")
    _add_machine_args(p_batch)
    p_batch.add_argument("--tasks", type=int, default=500, help="approximate task count")
    p_batch.add_argument("--ccr", type=float, default=1.0)
    p_batch.add_argument("--seeds", type=int, default=1,
                         help="weight RNG seeds per problem (0..seeds-1)")
    p_batch.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: cpu count)")
    p_batch.add_argument("--timeout", type=float, default=None,
                         help="per-job execution budget in seconds, measured "
                         "from execution start (queue wait never counts); "
                         "an overrunning worker is killed and replaced")
    p_batch.add_argument("--grace", type=float, default=1.0,
                         help="slack for detecting/killing an overrunning "
                         "worker past --timeout (default: 1.0)")
    p_batch.add_argument("--retries", type=int, default=2,
                         help="re-runs allowed after a worker death "
                         "(OOM-kill, segfault) before reporting worker-died "
                         "(default: 2); timeouts are never retried")
    p_batch.add_argument("--backoff", type=float, default=0.1,
                         help="base delay before a death retry in seconds; "
                         "doubles per attempt (default: 0.1)")
    p_batch.add_argument("--validate", action="store_true",
                         help="re-check every schedule from first principles")
    p_batch.add_argument("--certify", action="store_true",
                         help="run the independent checker (incl. the FLB/ETF "
                         "greedy certificate) on every schedule; failures "
                         "report as invalid-schedule")
    p_batch.add_argument("--no-share", action="store_true",
                         help="disable the shared-memory graph plane and "
                         "pickle every graph inline per job (mainly for "
                         "comparison; see docs/performance.md)")
    p_batch.add_argument("--cache-size", type=int, default=1024,
                         help="result-cache capacity: repeated (graph, P, "
                         "algo) jobs are answered in O(1) without "
                         "dispatching a worker (0 disables; default: 1024)")
    p_batch.add_argument("--warm-start", action="store_true",
                         help="warm-start FLB array jobs from previously "
                         "computed schedules: diff the DAG, reuse the clean "
                         "schedule prefix and replay only the dirty suffix "
                         "(bit-identical; silent cold fallback)")
    p_batch.add_argument("--stats", action="store_true",
                         help="print graph-plane and result-cache counters "
                         "after the batch")
    _add_obs_args(p_batch, json_help="emit the per-job results as JSON",
                  trace=True)

    p_serve = sub.add_parser(
        "serve", help="run the HTTP scheduling service until SIGTERM"
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8423,
                         help="bind port; 0 picks an ephemeral port and "
                         "prints it (default: 8423)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="no effect yet: every request runs inline, in "
                         "the server process")
    p_serve.add_argument("--max-backlog", type=int, default=64,
                         help="admission limit on queued + in-flight jobs; "
                         "beyond it requests shed with 429 + Retry-After "
                         "(default: 64)")
    p_serve.add_argument("--tenant-weight", action="append", default=[],
                         metavar="TENANT=WEIGHT",
                         help="fair-queue weight for a tenant (repeatable); "
                         "unknown tenants get weight 1.0")
    p_serve.add_argument("--timeout", type=float, default=None,
                         help="refused with exit 2: the service runs each "
                         "request inline and cannot enforce a per-job "
                         "timeout")
    p_serve.add_argument("--validate", action="store_true",
                         help="re-check every schedule from first principles")
    p_serve.add_argument("--certify", action="store_true",
                         help="run the independent checker on every schedule")
    _add_machine_args(p_serve)
    p_serve.add_argument("--warm-start", action="store_true",
                         help="enable warm-start rescheduling for every "
                         "request (delta requests with base_fingerprint "
                         "enable it per-request regardless)")

    p_report = sub.add_parser(
        "report", help="render a human summary from a --trace-out JSONL trace"
    )
    p_report.add_argument("trace", help="JSONL trace file written by "
                          "--trace-out (or MetricsRegistry.write_trace)")
    p_report.add_argument("--json", action="store_true", dest="json_out",
                          help="emit the summary as JSON instead of tables")

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = _build_problem(args.problem, args.tasks, args.ccr, args.seed)
    save_json(graph, args.output)
    print(
        f"wrote {args.problem}: V={graph.num_tasks} E={graph.num_edges} "
        f"W={width(graph)} ccr={args.ccr:g} -> {args.output}"
    )
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    graph = _resolve_graph(args)
    machine = _machine_from_args(args, args.procs)
    schedule = schedule_graph(
        graph, SchedulingOptions(machine=machine, algorithm=args.algo, validate=True)
    )
    machine_note = ", heterogeneous" if machine.is_heterogeneous else ""
    print(
        f"{args.algo} on P={args.procs}: makespan {schedule.makespan:g} "
        f"(V={graph.num_tasks}, E={graph.num_edges}{machine_note})"
    )
    for key, value in summarize(schedule).items():
        print(f"  {key:>16s}: {value:.4g}")
    if args.table:
        print()
        print(schedule.as_table())
    if args.gantt:
        print()
        print(render_gantt(schedule, width=78))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    graph = _resolve_graph(args)
    machine = MachineModel(args.procs)
    mcp_span = SCHEDULERS["mcp"](graph, machine=machine).makespan
    rows = []
    for name in sorted(SCHEDULERS):
        schedule = SCHEDULERS[name](graph, machine=machine)
        ms = time_scheduler(
            SCHEDULERS[name], graph, machine=machine, repeats=1
        ) * 1e3
        rows.append([name, schedule.makespan, schedule.makespan / mcp_span, ms])
    rows.sort(key=lambda r: r[1])
    print(
        format_table(
            ["algorithm", "makespan", "NSL(vs MCP)", "time [ms]"],
            rows,
            title=f"{args.problem if not args.graph else args.graph}: "
            f"V={graph.num_tasks} P={args.procs}",
        )
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.graph:
        graph = load_json(args.graph)
    else:
        from repro.workloads import paper_example

        graph = paper_example()
    schedule = flb(graph, MachineModel(args.procs))
    print(format_trace(schedule))
    print(f"\nmakespan = {schedule.makespan:g}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    out = Path(args.output) if args.output else None
    ids = list(EXPERIMENTS) if args.which == "all" else [args.which]
    for exp_id in ids:
        experiment = EXPERIMENTS[exp_id]
        data = experiment.run(args.tasks, args.seeds, args.workers)
        print(experiment.render(data))
        if out is not None:
            raw = out / "raw" / f"{exp_id}.json"
            raw.parent.mkdir(parents=True, exist_ok=True)
            raw.write_text(to_json(data))
            report = out / f"{exp_id}.txt"
            report.write_text(experiment.render(json.loads(raw.read_text())))
            print(f"(written to {report})")
    return 0


def _cmd_analyze_source(args: argparse.Namespace) -> int:
    """Source static analysis (rule codes A101..; docs/static-analysis.md).

    Exit codes: 0 = clean (modulo --strict), 1 = findings or a stale
    baseline under --strict, 2 = unreadable path or malformed baseline.
    """
    import json as _json
    from pathlib import Path

    from repro.analysis import (
        ANALYSIS_BASELINE_PATH,
        analyze_paths,
        apply_baseline,
        load_baseline,
        write_baseline,
    )

    try:
        report = analyze_paths(args.paths)
    except FileNotFoundError as exc:
        print(f"cannot analyze: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        entries = write_baseline(report, args.write_baseline)
        print(
            f"wrote {len(entries)} baseline entr"
            f"{'y' if len(entries) == 1 else 'ies'} to {args.write_baseline}"
            f" (now justify each reason)"
        )
        return 0
    baseline_path = args.baseline
    if baseline_path is None and Path(ANALYSIS_BASELINE_PATH).is_file():
        baseline_path = ANALYSIS_BASELINE_PATH
    if baseline_path is not None:
        try:
            report = apply_baseline(report, load_baseline(baseline_path))
        except (OSError, ValueError) as exc:
            print(f"cannot load baseline: {exc}", file=sys.stderr)
            return 2
    if args.json_out:
        print(_json.dumps(report.to_dict(strict=args.strict), indent=2))
    else:
        print(report.render())
    return 0 if report.ok(strict=args.strict) else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.paths:
        return _cmd_analyze_source(args)
    from repro.graph import (
        bottom_levels,
        ccr,
        critical_path_length,
        parallelism_profile,
    )

    graph = _resolve_graph(args)
    profile = parallelism_profile(graph)
    print(f"tasks:          {graph.num_tasks}")
    print(f"edges:          {graph.num_edges}")
    print(f"width:          {width(graph)}")
    print(f"depth:          {len(profile)}")
    print(f"ccr:            {ccr(graph):.4g}")
    print(f"serial time:    {graph.total_comp():.4g}")
    print(f"critical path:  {critical_path_length(graph):.4g} (with comm)")
    print(f"max bottom lvl: {max(bottom_levels(graph)):.4g}")
    print(f"entry/exit:     {len(graph.entry_tasks)}/{len(graph.exit_tasks)}")
    peak = max(profile)
    print(f"level widths:   min {min(profile)}, max {peak}")
    return 0


def _obs_registry(args: argparse.Namespace) -> Optional["MetricsRegistry"]:
    """A registry when any observability output was requested, else None."""
    if getattr(args, "metrics_out", None) or getattr(args, "trace_out", None):
        from repro.obs import MetricsRegistry

        return MetricsRegistry()
    return None


def _write_obs(reg: Optional["MetricsRegistry"], args: argparse.Namespace) -> None:
    """Flush a registry to the requested --metrics-out / --trace-out files."""
    if reg is None:
        return
    if getattr(args, "metrics_out", None):
        reg.write_prometheus(args.metrics_out)
        print(f"(metrics written to {args.metrics_out})", file=sys.stderr)
    if getattr(args, "trace_out", None):
        reg.write_trace(args.trace_out)
        print(f"(trace written to {args.trace_out})", file=sys.stderr)


def _cmd_lint(args: argparse.Namespace) -> int:
    """Exit codes: 0 = clean (modulo --strict), 1 = findings, 2 = unreadable."""
    import json as _json
    import time as _time
    from pathlib import Path

    from repro.exceptions import GraphError
    from repro.graph.io import raw_graph_data
    from repro.verify import lint, lint_data

    reg = _obs_registry(args)
    t0 = _time.perf_counter()
    if getattr(args, "graph", None):
        # Parse the document tolerantly: a graph from_json would reject
        # (duplicate edges, bad weights, cycles) should be *linted*, with
        # every problem reported, not bounced at the first error.
        try:
            comps, edges, names = raw_graph_data(Path(args.graph).read_text())
        except (OSError, GraphError) as exc:
            print(f"cannot lint {args.graph}: {exc}", file=sys.stderr)
            return 2
        report = lint_data(comps, edges, names)
    else:
        report = lint(_build_problem(args.problem, args.tasks, args.ccr, args.seed))
    elapsed = _time.perf_counter() - t0
    codes: Dict[str, int] = {}
    for code in report.codes():
        codes[code] = codes.get(code, 0) + 1
    if reg is not None:
        reg.histogram("verify_lint_seconds").observe(elapsed)
        reg.counter("verify_lint_total").inc()
        for code, count in codes.items():
            reg.counter("verify_rule_hits_total", code=code).inc(count)
        reg.event("verify.lint", elapsed, tasks=report.num_tasks,
                  ok=report.ok(strict=args.strict))
    if args.json_out:
        print(_json.dumps(report.to_dict(strict=args.strict), indent=2))
    else:
        print(report.render())
    if args.stats:
        counts = " ".join(f"{c}={n}" for c, n in sorted(codes.items())) or "none"
        print(f"lint: {elapsed * 1e3:.2f} ms, rule hits: {counts}")
    _write_obs(reg, args)
    return 0 if report.ok(strict=args.strict) else 1


def _cmd_certify(args: argparse.Namespace) -> int:
    """Exit codes: 0 = certificate valid, 1 = violations found."""
    import json as _json
    import time as _time

    from repro.verify import certify, greedy_flavor, lint_machine

    graph = _resolve_graph(args)
    machine = _machine_from_args(args, args.procs)
    for issue in lint_machine(machine).issues:
        print(f"machine: {issue.code} [{issue.severity}] {issue.message}",
              file=sys.stderr)
    reg = _obs_registry(args)
    t_sched = _time.perf_counter()
    schedule = compute_schedule(graph, machine, args.algo)
    t0 = _time.perf_counter()
    cert = certify(schedule, flavor=greedy_flavor(args.algo))
    elapsed = _time.perf_counter() - t0
    codes: Dict[str, int] = {}
    for code in cert.codes():
        codes[code] = codes.get(code, 0) + 1
    if reg is not None:
        reg.histogram("sched_kernel_seconds", algo=args.algo).observe(
            t0 - t_sched
        )
        reg.histogram("verify_certify_seconds").observe(elapsed)
        reg.counter("verify_certify_total",
                    ok="true" if cert.ok else "false").inc()
        for code, count in codes.items():
            reg.counter("verify_rule_hits_total", code=code).inc(count)
        reg.event("verify.certify", elapsed, algo=args.algo,
                  procs=args.procs, ok=cert.ok)
    if args.json_out:
        doc = cert.to_dict()
        doc["algo"] = args.algo
        print(_json.dumps(doc, indent=2))
    else:
        print(f"{args.algo} on P={args.procs}:")
        print(cert.render())
    if args.stats:
        counts = " ".join(f"{c}={n}" for c, n in sorted(codes.items())) or "none"
        print(f"certify: {elapsed * 1e3:.2f} ms, violations: {counts}")
    _write_obs(reg, args)
    return 0 if cert.ok else 1


def _cmd_execute(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.sim import execute, execute_contended, execute_perturbed

    graph = _resolve_graph(args)
    schedule = SCHEDULERS[args.algo](graph, machine=MachineModel(args.procs))
    print(f"planned makespan ({args.algo}, P={args.procs}): {schedule.makespan:g}")
    exact = execute(schedule)
    print(f"contention-free replay: {exact.makespan:g} "
          f"({'matches' if exact.matches(schedule) else 'DIFFERS'})")
    if args.bandwidth > 0:
        contended = execute_contended(schedule, bandwidth=args.bandwidth)
        print(
            f"contended (bw={args.bandwidth:g}): {contended.makespan:g} "
            f"({contended.makespan / schedule.makespan:.3f}x planned)"
        )
    if args.noise_cv > 0:
        spans = [
            execute_perturbed(
                schedule, make_rng(1000 + i), args.noise_cv, args.noise_cv
            ).makespan
            for i in range(args.draws)
        ]
        arr = np.asarray(spans) / schedule.makespan
        print(
            f"perturbed (cv={args.noise_cv:g}, {args.draws} draws): "
            f"mean {arr.mean():.3f}x, worst {arr.max():.3f}x planned"
        )
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    """Exit codes: 0 = every job ok; 1 = at least one job failed
    (scheduler-error / invalid-schedule); 2 = bad flags (no job runs) or at
    least one infrastructure failure (timeout / worker-died), which takes
    precedence over 1."""
    import time as _time

    from repro.batch import (
        TIMEOUT,
        WORKER_DIED,
        BatchJob,
        BatchScheduler,
        batch_throughput,
    )

    if _machine_flags_given(args) and len(args.procs) > 1:
        print("machine flags require a single --procs value", file=sys.stderr)
        return 2
    # One model per --procs value, built before any job runs, so its
    # fingerprint is computed once for the whole batch.
    try:
        machines = [_machine_from_args(args, procs) for procs in args.procs]
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    jobs = []
    for problem in args.problems:
        for seed in range(args.seeds):
            graph = _build_problem(problem, args.tasks, args.ccr, seed)
            for machine in machines:
                for algo in args.algos:
                    jobs.append(
                        BatchJob(graph=graph, machine=machine, algo=algo,
                                 tag=f"{problem}/s{seed}")
                    )
    reg = _obs_registry(args)
    options = SchedulingOptions(
        timeout=args.timeout, validate=args.validate, certify=args.certify,
        retries=args.retries, metrics=reg, warm_start=args.warm_start,
    )
    with BatchScheduler(
        workers=args.workers, options=options,
        grace=args.grace, backoff=args.backoff,
        share_graphs=False if args.no_share else None,
        cache_size=max(0, args.cache_size),
    ) as scheduler:
        t0 = _time.perf_counter()
        results = scheduler.run(jobs)
        wall = _time.perf_counter() - t0
        stats = scheduler.stats()
    if args.json_out:
        import dataclasses as _dataclasses
        import json as _json

        docs = [_dataclasses.asdict(r) for r in results]
        for doc in docs:  # a failed job has no makespan or speedup: null, not NaN
            for key in ("makespan", "speedup"):
                if not math.isfinite(doc[key]):
                    doc[key] = None
        print(_json.dumps(docs, indent=2, allow_nan=False))
        _write_obs(reg, args)
        infra = sum(1 for r in results
                    if r.error_kind in (TIMEOUT, WORKER_DIED))
        failed = sum(1 for r in results if not r.ok)
        return 2 if infra else (1 if failed else 0)
    rows = []
    failures = 0
    infrastructure = 0
    for res in results:
        if res.ok:
            rows.append([res.tag, res.algo, res.procs, res.num_tasks,
                         res.makespan, res.speedup, res.seconds * 1e3,
                         res.queue_seconds * 1e3])
        else:
            failures += 1
            if res.error_kind in (TIMEOUT, WORKER_DIED):
                infrastructure += 1
            first_line = res.error.strip().splitlines()[-1]
            rows.append([res.tag, res.algo, res.procs, res.num_tasks,
                         float("nan"), float("nan"), res.seconds * 1e3,
                         res.queue_seconds * 1e3])
            print(
                f"FAILED {res.tag} {res.algo} P={res.procs} "
                f"[{res.error_kind}] (attempt {res.attempts}): {first_line}",
                file=sys.stderr,
            )
    print(
        format_table(
            ["job", "algorithm", "P", "V", "makespan", "speedup",
             "time [ms]", "wait [ms]"],
            rows,
            title=f"batch: {len(jobs)} jobs, workers={args.workers or 'auto'}",
        )
    )
    print(
        f"\n{len(results) - failures}/{len(jobs)} ok in {wall:.3f}s "
        f"({batch_throughput(results, wall):,.0f} tasks/s)"
    )
    if args.stats:
        print(
            f"graph plane: {stats.get('shared_graphs', 0)} graph(s) in "
            f"shared memory ({stats.get('shared_bytes', 0):,} bytes), "
            f"{stats.get('keyed_jobs', 0)} keyed / "
            f"{stats.get('inline_graph_jobs', 0)} inline job(s)"
        )
        print(
            f"result cache: {stats.get('cache_hits', 0)} hit(s), "
            f"{stats.get('cache_misses', 0)} miss(es), "
            f"{stats.get('cache_evictions', 0)} eviction(s), "
            f"size {stats.get('cache_size', 0)}/{stats.get('cache_capacity', 0)}"
        )
    _write_obs(reg, args)
    if infrastructure:
        return 2
    return 1 if failures else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Exit codes: 0 = clean drain after SIGTERM/SIGINT, 2 = bad flags
    (including ``--timeout``, which the service cannot enforce)."""
    from repro.serve import ServeConfig, UnenforceableTimeoutError, serve

    weights = {}
    for spec in args.tenant_weight:
        tenant, sep, value = spec.partition("=")
        try:
            if not sep or not tenant:
                raise ValueError(spec)
            weights[tenant] = float(value)
        except ValueError:
            print(f"bad --tenant-weight {spec!r}; expected TENANT=WEIGHT",
                  file=sys.stderr)
            return 2
    options = SchedulingOptions(
        timeout=args.timeout, validate=args.validate,
        certify=args.certify, warm_start=args.warm_start,
        machine=(
            _machine_from_args(args, None) if _machine_flags_given(args) else None
        ),
    )
    try:
        config = ServeConfig(
            host=args.host, port=args.port, workers=args.workers,
            max_backlog=args.max_backlog, tenant_weights=weights,
            options=options,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        serve(config)
    except UnenforceableTimeoutError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        pass  # ctrl-C before the loop's own handler was installed
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Exit codes: 0 = trace summarised, 2 = unreadable/invalid trace."""
    import json as _json

    from repro.obs import read_trace, render_report, summarize_trace

    try:
        events = read_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace {args.trace}: {exc}", file=sys.stderr)
        return 2
    if args.json_out:
        print(_json.dumps(summarize_trace(events), indent=2, sort_keys=True))
    else:
        print(render_report(events))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "batch": _cmd_batch,
    "serve": _cmd_serve,
    "schedule": _cmd_schedule,
    "compare": _cmd_compare,
    "trace": _cmd_trace,
    "analyze": _cmd_analyze,
    "lint": _cmd_lint,
    "certify": _cmd_certify,
    "report": _cmd_report,
    "execute": _cmd_execute,
    "experiment": _cmd_experiment,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
