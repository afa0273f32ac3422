"""Task-graph linting: static analysis of a DAG *before* it is scheduled.

The schedulers assume a frozen, well-formed :class:`~repro.graph.TaskGraph`;
:class:`TaskGraph` itself rejects the worst malformations at construction
time (non-positive, ``NaN`` or infinite computation costs; negative,
``NaN`` or infinite communication costs; self-loops, duplicate edges).  The
linter covers everything the constructor cannot or deliberately does not
reject:

* graphs that arrive as *raw data* (JSON files, generator output) and have
  not passed through ``TaskGraph`` validation yet — :func:`lint_data`
  reports *all* their problems with stable codes;
* structural anomalies that are legal DAGs but almost always input bugs:
  isolated tasks, multi-component graphs, zero-cost super-sources/sinks,
  extreme communication-to-computation outliers.

A small companion checker, :func:`lint_machine`, does the same for the
*machine* side of a scheduling problem: degenerate
:class:`~repro.machine.MachineModel` configurations (codes ``M001``..) that
are legal models but usually mean the experiment is not measuring what its
author thinks — a single processor, extreme speed skew, a communication-free
machine, or a redundant all-equal ``speeds`` vector.

Every check is a registered :class:`LintRule` with a stable code
(``G001``..), a severity (``error`` / ``warning`` / ``info``) and a title;
:func:`rule_catalogue` lists them all (rendered in ``docs/verification.md``).
:func:`lint` returns a :class:`LintReport` with human and machine-readable
(:meth:`LintReport.to_dict`) views; ``repro-sched lint`` exposes it on the
command line with ``--json`` and ``--strict`` (promote warnings to failures).

:func:`find_cycle` — the witness-path finder behind rule ``G001`` — is also
used by :meth:`TaskGraph.freeze` so that a :class:`~repro.exceptions.CycleError`
names an actual cycle instead of the set of stuck tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel

__all__ = [
    "ERROR",
    "WARNING",
    "INFO",
    "LintIssue",
    "LintReport",
    "LintRule",
    "find_cycle",
    "lint",
    "lint_data",
    "lint_machine",
    "rule_catalogue",
]

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: Graph-level CCR at or above which rule G009 fires.
EXTREME_CCR = 100.0
#: Single-edge communication cost, as a multiple of the *median*
#: communication cost, at or above which rule G009 flags the edge as an
#: outlier.  (The median, unlike the mean, is not dragged up by the outlier
#: itself.)
EDGE_OUTLIER_FACTOR = 1000.0

#: Fastest-over-slowest speed ratio at or above which rule M002 fires: the
#: slow processors are effectively decorative and the "parallel" machine is
#: really the fast ones plus stragglers.
EXTREME_SPEED_SKEW = 100.0


@dataclass(frozen=True)
class _GraphData:
    """Normalised raw view of a graph: what every rule consumes.

    Unlike :class:`TaskGraph` this can represent malformed inputs —
    duplicate edges, self-loops, non-positive weights — which is the point:
    rules lint the data, not the class invariants.
    """

    comps: Tuple[float, ...]
    names: Tuple[str, ...]
    edges: Tuple[Tuple[int, int, float], ...]

    @property
    def num_tasks(self) -> int:
        return len(self.comps)

    def name(self, task: int) -> str:
        if 0 <= task < len(self.names):
            return self.names[task]
        return f"t{task}"


@dataclass(frozen=True)
class LintIssue:
    """One finding: a stable rule code, a severity, and a description."""

    code: str
    severity: str
    message: str
    tasks: Tuple[int, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "tasks": list(self.tasks),
        }


@dataclass(frozen=True)
class LintReport:
    """All findings for one graph, plus the graph's vital statistics."""

    issues: Tuple[LintIssue, ...]
    num_tasks: int
    num_edges: int

    @property
    def errors(self) -> Tuple[LintIssue, ...]:
        return tuple(i for i in self.issues if i.severity == ERROR)

    @property
    def warnings(self) -> Tuple[LintIssue, ...]:
        return tuple(i for i in self.issues if i.severity == WARNING)

    def ok(self, strict: bool = False) -> bool:
        """True when the graph is schedulable: no errors (and, under
        ``strict``, no warnings either — the CLI's ``--strict``)."""
        if self.errors:
            return False
        return not (strict and self.warnings)

    def codes(self) -> Tuple[str, ...]:
        return tuple(i.code for i in self.issues)

    def to_dict(self, strict: bool = False) -> Dict[str, object]:
        return {
            "ok": self.ok(strict),
            "strict": strict,
            "num_tasks": self.num_tasks,
            "num_edges": self.num_edges,
            "issues": [i.to_dict() for i in self.issues],
        }

    def render(self) -> str:
        """Human-readable report, one line per issue."""
        lines = [f"linted graph: V={self.num_tasks} E={self.num_edges}"]
        if not self.issues:
            lines.append("  clean: no issues found")
        for issue in self.issues:
            lines.append(f"  {issue.code} [{issue.severity}] {issue.message}")
        return "\n".join(lines)


RuleFn = Callable[[_GraphData], List[LintIssue]]


@dataclass(frozen=True)
class LintRule:
    """A registered lint check: stable code, default severity, short title."""

    code: str
    severity: str
    title: str
    fn: RuleFn = field(repr=False, compare=False)


_RULES: List[LintRule] = []


def _rule(code: str, severity: str, title: str) -> Callable[[RuleFn], RuleFn]:
    """Register a rule function under ``code`` in the global registry."""

    def register(fn: RuleFn) -> RuleFn:
        _RULES.append(LintRule(code=code, severity=severity, title=title, fn=fn))
        return fn

    return register


def rule_catalogue() -> List[LintRule]:
    """All registered rules in code order (for docs and ``--json`` output)."""
    return sorted(_RULES, key=lambda r: r.code)


# -- witness-path cycle detection -------------------------------------------


def find_cycle(
    num_tasks: int, edges: Iterable[Tuple[int, int]]
) -> Optional[List[int]]:
    """Return one directed cycle as a task list ``[t0, t1, ..., t0]``.

    ``None`` when the graph is acyclic.  Iterative colour-marking DFS,
    ``O(V + E)``; edges with out-of-range endpoints are ignored (they are
    reported by other rules).  A self-loop yields the two-element witness
    ``[t, t]``.
    """
    succs: List[List[int]] = [[] for _ in range(num_tasks)]
    for src, dst in edges:
        if 0 <= src < num_tasks and 0 <= dst < num_tasks:
            succs[src].append(dst)
    # 0 = unvisited, 1 = on the current DFS path, 2 = done.
    color = [0] * num_tasks
    parent: Dict[int, int] = {}
    for root in range(num_tasks):
        if color[root]:
            continue
        color[root] = 1
        stack: List[Tuple[int, int]] = [(root, 0)]  # (node, next successor index)
        while stack:
            node, idx = stack[-1]
            if idx < len(succs[node]):
                stack[-1] = (node, idx + 1)
                nxt = succs[node][idx]
                if color[nxt] == 0:
                    color[nxt] = 1
                    parent[nxt] = node
                    stack.append((nxt, 0))
                elif color[nxt] == 1:
                    # Back edge node -> nxt: walk the parent chain back to
                    # nxt to materialise the witness path.
                    path = [node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        path.append(cur)
                    path.reverse()
                    return [*path, nxt]
            else:
                color[node] = 2
                stack.pop()
    return None


# -- helpers shared by rules -------------------------------------------------


def _bad_float(value: float) -> bool:
    return math.isnan(value) or math.isinf(value)


def _fmt_tasks(data: _GraphData, tasks: Sequence[int], limit: int = 8) -> str:
    shown = ", ".join(data.name(t) for t in tasks[:limit])
    more = f", ... (+{len(tasks) - limit} more)" if len(tasks) > limit else ""
    return shown + more


# -- rules -------------------------------------------------------------------


@_rule("G001", ERROR, "graph contains a directed cycle")
def _check_cycle(data: _GraphData) -> List[LintIssue]:
    cycle = find_cycle(data.num_tasks, ((s, d) for s, d, _ in data.edges))
    if cycle is None:
        return []
    witness = " -> ".join(data.name(t) for t in cycle)
    return [
        LintIssue(
            code="G001",
            severity=ERROR,
            message=f"directed cycle: {witness}",
            tasks=tuple(cycle[:-1]),
        )
    ]


@_rule("G002", ERROR, "self-edge (task depends on itself)")
def _check_self_edges(data: _GraphData) -> List[LintIssue]:
    bad = sorted({s for s, d, _ in data.edges if s == d})
    if not bad:
        return []
    return [
        LintIssue(
            code="G002",
            severity=ERROR,
            message=f"self-edge on task(s) {_fmt_tasks(data, bad)}",
            tasks=tuple(bad),
        )
    ]


@_rule("G003", ERROR, "duplicate edge between the same task pair")
def _check_duplicate_edges(data: _GraphData) -> List[LintIssue]:
    seen: Dict[Tuple[int, int], int] = {}
    for s, d, _ in data.edges:
        seen[(s, d)] = seen.get((s, d), 0) + 1
    dups = sorted(pair for pair, count in seen.items() if count > 1)
    if not dups:
        return []
    shown = ", ".join(f"{data.name(s)}->{data.name(d)}" for s, d in dups[:8])
    more = f", ... (+{len(dups) - 8} more)" if len(dups) > 8 else ""
    tasks = tuple(sorted({t for pair in dups for t in pair}))
    return [
        LintIssue(
            code="G003",
            severity=ERROR,
            message=f"duplicate edge(s): {shown}{more}",
            tasks=tasks,
        )
    ]


@_rule("G004", ERROR, "non-positive, NaN, or infinite computation cost")
def _check_comp_weights(data: _GraphData) -> List[LintIssue]:
    bad = [
        t
        for t, comp in enumerate(data.comps)
        if _bad_float(comp) or comp <= 0.0
    ]
    if not bad:
        return []
    samples = ", ".join(
        f"{data.name(t)}={data.comps[t]!r}" for t in bad[:8]
    )
    more = f", ... (+{len(bad) - 8} more)" if len(bad) > 8 else ""
    return [
        LintIssue(
            code="G004",
            severity=ERROR,
            message=f"computation cost must be positive and finite: {samples}{more}",
            tasks=tuple(bad),
        )
    ]


@_rule("G005", ERROR, "negative, NaN, or infinite communication cost")
def _check_comm_weights(data: _GraphData) -> List[LintIssue]:
    bad = [
        (s, d, c)
        for s, d, c in data.edges
        if _bad_float(c) or c < 0.0
    ]
    if not bad:
        return []
    samples = ", ".join(
        f"{data.name(s)}->{data.name(d)}={c!r}" for s, d, c in bad[:8]
    )
    more = f", ... (+{len(bad) - 8} more)" if len(bad) > 8 else ""
    tasks = tuple(sorted({t for s, d, _ in bad for t in (s, d)}))
    return [
        LintIssue(
            code="G005",
            severity=ERROR,
            message=(
                f"communication cost must be non-negative and finite: "
                f"{samples}{more}"
            ),
            tasks=tasks,
        )
    ]


@_rule("G006", WARNING, "isolated task (no dependencies in either direction)")
def _check_isolated(data: _GraphData) -> List[LintIssue]:
    if data.num_tasks <= 1:
        return []
    connected = {t for s, d, _ in data.edges for t in (s, d) if s != d}
    isolated = [t for t in range(data.num_tasks) if t not in connected]
    if not isolated or not data.edges:
        # A fully edge-free graph is an (unusual but coherent) bag of
        # independent tasks; flagging every task would be noise.
        return []
    return [
        LintIssue(
            code="G006",
            severity=WARNING,
            message=(
                f"{len(isolated)} isolated task(s) with no edges: "
                f"{_fmt_tasks(data, isolated)}"
            ),
            tasks=tuple(isolated),
        )
    ]


@_rule("G007", WARNING, "graph splits into multiple weakly-connected components")
def _check_components(data: _GraphData) -> List[LintIssue]:
    n = data.num_tasks
    if n <= 1:
        return []
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, d, _ in data.edges:
        if 0 <= s < n and 0 <= d < n and s != d:
            rs, rd = find(s), find(d)
            if rs != rd:
                parent[rs] = rd
    sizes: Dict[int, int] = {}
    for t in range(n):
        root = find(t)
        sizes[root] = sizes.get(root, 0) + 1
    if len(sizes) <= 1:
        return []
    ordered = sorted(sizes.values(), reverse=True)
    shown = ", ".join(str(s) for s in ordered[:8])
    more = ", ..." if len(ordered) > 8 else ""
    return [
        LintIssue(
            code="G007",
            severity=WARNING,
            message=(
                f"graph has {len(sizes)} weakly-connected components "
                f"(sizes {shown}{more}); schedulers treat them as one program"
            ),
        )
    ]


@_rule("G008", INFO, "zero-cost super-source/sink anomaly")
def _check_zero_cost_terminals(data: _GraphData) -> List[LintIssue]:
    if not data.edges:
        return []
    total_comm = sum(c for _, _, c in data.edges if not _bad_float(c))
    if total_comm <= 0.0:
        return []
    out_comms: Dict[int, List[float]] = {}
    in_comms: Dict[int, List[float]] = {}
    for s, d, c in data.edges:
        out_comms.setdefault(s, []).append(c)
        in_comms.setdefault(d, []).append(c)
    issues: List[LintIssue] = []
    sources = [
        t
        for t in range(data.num_tasks)
        if t not in in_comms and t in out_comms and all(c == 0.0 for c in out_comms[t])
    ]
    sinks = [
        t
        for t in range(data.num_tasks)
        if t not in out_comms and t in in_comms and all(c == 0.0 for c in in_comms[t])
    ]
    if sources:
        issues.append(
            LintIssue(
                code="G008",
                severity=INFO,
                message=(
                    f"entry task(s) with only zero-cost out-edges (artificial "
                    f"super-source?): {_fmt_tasks(data, sources)}"
                ),
                tasks=tuple(sources),
            )
        )
    if sinks:
        issues.append(
            LintIssue(
                code="G008",
                severity=INFO,
                message=(
                    f"exit task(s) with only zero-cost in-edges (artificial "
                    f"super-sink?): {_fmt_tasks(data, sinks)}"
                ),
                tasks=tuple(sinks),
            )
        )
    return issues


@_rule("G009", WARNING, "extreme communication-to-computation ratio")
def _check_extreme_ccr(data: _GraphData) -> List[LintIssue]:
    if not data.edges or data.num_tasks == 0:
        return []
    comps = [c for c in data.comps if not _bad_float(c) and c > 0]
    comms = [c for _, _, c in data.edges if not _bad_float(c) and c >= 0]
    if not comps or not comms:
        return []
    mean_comp = sum(comps) / len(comps)
    mean_comm = sum(comms) / len(comms)
    issues: List[LintIssue] = []
    if mean_comp > 0 and mean_comm / mean_comp >= EXTREME_CCR:
        issues.append(
            LintIssue(
                code="G009",
                severity=WARNING,
                message=(
                    f"extreme CCR {mean_comm / mean_comp:.3g} (>= {EXTREME_CCR:g}): "
                    f"communication dwarfs computation; schedules will serialise"
                ),
            )
        )
    median_comm = sorted(comms)[len(comms) // 2]
    if median_comm > 0:
        threshold = EDGE_OUTLIER_FACTOR * median_comm
        outliers = [
            (s, d, c) for s, d, c in data.edges if not _bad_float(c) and c >= threshold
        ]
        if outliers:
            shown = ", ".join(
                f"{data.name(s)}->{data.name(d)}={c:g}" for s, d, c in outliers[:5]
            )
            more = f", ... (+{len(outliers) - 5} more)" if len(outliers) > 5 else ""
            tasks = tuple(sorted({t for s, d, _ in outliers for t in (s, d)}))
            issues.append(
                LintIssue(
                    code="G009",
                    severity=WARNING,
                    message=(
                        f"communication outlier(s) >= {EDGE_OUTLIER_FACTOR:g}x the "
                        f"median edge cost {median_comm:.3g}: {shown}{more}"
                    ),
                    tasks=tasks,
                )
            )
    return issues


# -- entry points ------------------------------------------------------------


def _run_rules(data: _GraphData) -> LintReport:
    issues: List[LintIssue] = []
    for rule in rule_catalogue():
        issues.extend(rule.fn(data))
    return LintReport(
        issues=tuple(issues),
        num_tasks=data.num_tasks,
        num_edges=len(data.edges),
    )


def lint(graph: TaskGraph) -> LintReport:
    """Lint a :class:`TaskGraph` (frozen or still building)."""
    data = _GraphData(
        comps=tuple(graph.comps),
        names=tuple(graph.name(t) for t in graph.tasks()),
        edges=tuple(graph.edges()),
    )
    return _run_rules(data)


def lint_machine(machine: MachineModel) -> LintReport:
    """Lint a :class:`~repro.machine.MachineModel` for degenerate configs.

    Machine checks carry ``M``-codes and ride the same :class:`LintReport`
    vehicle as the graph rules (``num_tasks``/``num_edges`` are zero — there
    is no graph in play):

    * ``M001`` (warning) — a single processor: every schedule is the serial
      order and comparisons against parallel baselines are vacuous;
    * ``M002`` (warning) — extreme speed skew (fastest/slowest at or above
      :data:`EXTREME_SPEED_SKEW`): the slow processors contribute noise, not
      parallelism;
    * ``M003`` (info) — a communication-free machine (``comm_scale == 0``
      and ``latency == 0``): remote messages are free, so placement quality
      degenerates to pure load balancing;
    * ``M004`` (info) — an explicit ``speeds`` vector whose entries are all
      equal: the model is homogeneous but will *not* compare or fingerprint
      equal to the plain ``MachineModel(P)`` spelling, which silently splits
      result-cache entries.
    """
    issues: List[LintIssue] = []
    if machine.num_procs == 1:
        issues.append(
            LintIssue(
                code="M001",
                severity=WARNING,
                message=(
                    "machine has a single processor: every schedule is the "
                    "serial order"
                ),
            )
        )
    if machine.speeds is not None:
        fastest = max(machine.speeds)
        slowest = min(machine.speeds)
        if slowest > 0 and fastest / slowest >= EXTREME_SPEED_SKEW:
            issues.append(
                LintIssue(
                    code="M002",
                    severity=WARNING,
                    message=(
                        f"extreme speed skew {fastest / slowest:.3g} "
                        f"(>= {EXTREME_SPEED_SKEW:g}): slowest processors "
                        f"are effectively decorative"
                    ),
                )
            )
        if len(set(machine.speeds)) == 1:
            issues.append(
                LintIssue(
                    code="M004",
                    severity=INFO,
                    message=(
                        f"speeds vector is uniform ({machine.speeds[0]:g} "
                        f"everywhere): model behaves homogeneously but is "
                        f"not equal to MachineModel({machine.num_procs}) — "
                        f"cache keys and fingerprints will differ"
                    ),
                )
            )
    if machine.comm_scale == 0.0 and machine.latency == 0.0:
        issues.append(
            LintIssue(
                code="M003",
                severity=INFO,
                message=(
                    "communication-free machine (comm_scale=0, latency=0): "
                    "remote messages cost nothing and placement reduces to "
                    "load balancing"
                ),
            )
        )
    return LintReport(issues=tuple(issues), num_tasks=0, num_edges=0)


def lint_data(
    comps: Sequence[float],
    edges: Sequence[Tuple[int, int, float]],
    names: Optional[Sequence[Optional[str]]] = None,
) -> LintReport:
    """Lint raw graph data that has not passed ``TaskGraph`` validation.

    This is the entry point for inputs :class:`TaskGraph` would reject
    outright (duplicate edges, self-loops, non-positive weights): the linter
    reports *all* problems with stable codes instead of stopping at the
    first constructor error.
    """
    resolved: List[str] = []
    for t in range(len(comps)):
        name = names[t] if names is not None and t < len(names) else None
        resolved.append(name if name is not None else f"t{t}")
    data = _GraphData(
        comps=tuple(float(c) for c in comps),
        names=tuple(resolved),
        edges=tuple((int(s), int(d), float(c)) for s, d, c in edges),
    )
    return _run_rules(data)
