"""Source-level static analysis: the A-rule engine.

The verification plane (:mod:`repro.verify`) checks runtime artifacts —
graphs before scheduling (``G`` codes) and schedules after (``S``/``F``
codes).  This package is the complementary layer: it checks *the source
itself* for the project's cross-cutting invariants, the ones every past
correctness bug violated silently — a blocking call inside the asyncio
front-end, a lock shared across ``fork()``, a result-cache key built
without :func:`repro.resultcache.make_key`, a ``_prop_cache`` write
outside the graph plane.

The machinery mirrors :mod:`repro.verify.graphlint`: every check is a
registered :class:`AnalysisRule` with a stable code (``A101``..), a
severity, and a title; :func:`rule_catalogue` lists them all (rendered in
``docs/static-analysis.md``).  Codes are grouped by invariant family:

* ``A1xx`` — concurrency: event-loop blocking, fork-shared locks,
  shared-memory lifecycle (:mod:`repro.analysis.rules_concurrency`);
* ``A2xx`` — frozenness: frozen-dataclass mutation, graph-plane
  private-cache access, post-``freeze()`` mutation
  (:mod:`repro.analysis.rules_frozen`);
* ``A3xx`` — cache/metrics discipline: hand-rolled cache keys, metric
  naming conventions, warn-once latches without a reset hook
  (:mod:`repro.analysis.rules_cachekeys`).

Analysis is two-pass: pass one parses every file and builds a
:class:`~repro.analysis.project.ProjectIndex` (project-wide facts such as
the set of frozen dataclass names), pass two runs each rule over each
file with the index in hand, so a rule can recognise
``SchedulingOptions`` as frozen even when the mutation happens two
packages away from the definition.

``repro-sched analyze <paths>`` exposes the engine on the command line
with ``--json``, ``--strict``, and a checked-in suppression baseline
(:mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.project import ProjectIndex, build_index

__all__ = [
    "ERROR",
    "WARNING",
    "INFO",
    "AnalysisIssue",
    "AnalysisReport",
    "AnalysisRule",
    "BaselineEntry",
    "FileContext",
    "analyze_paths",
    "dotted_name",
    "rule",
    "rule_catalogue",
]

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: Either spelling of a function definition node.
FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Directory names never descended into when expanding directory arguments.
#: ``fixtures`` covers the adversarial rule fixtures under
#: ``tests/fixtures/analysis/`` — deliberately-violating sources that the
#: test suite analyzes by explicit path (explicit file arguments are
#: always analyzed; only directory expansion skips).
_SKIP_DIRS = {
    ".git",
    "__pycache__",
    ".mypy_cache",
    ".ruff_cache",
    "build",
    "dist",
    "fixtures",
}


@dataclass(frozen=True)
class AnalysisIssue:
    """One finding: a stable rule code, a severity, and a source location.

    ``context`` is the dotted qualname of the enclosing function/class
    (``"<module>"`` at module scope).  Baseline suppressions match on
    ``(code, path, context)`` rather than the line number, so a finding
    stays suppressed across unrelated edits to the same file.
    """

    code: str
    severity: str
    message: str
    path: str
    line: int
    context: str = "<module>"

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "context": self.context,
        }

    def location(self) -> str:
        return f"{self.path}:{self.line}"


@dataclass(frozen=True)
class BaselineEntry:
    """One justified suppression: a finding the project accepts knowingly.

    ``context`` may be ``"*"`` to match every context in the file (for
    module-scoped idioms); ``reason`` is mandatory and human-readable —
    an unjustified suppression is a config error, not a suppression.
    """

    code: str
    path: str
    context: str
    reason: str

    def matches(self, issue: AnalysisIssue) -> bool:
        if self.code != issue.code or self.path != issue.path:
            return False
        return self.context == "*" or self.context == issue.context

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "path": self.path,
            "context": self.context,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class AnalysisReport:
    """All findings for one run, split into active and suppressed.

    ``unused_baseline`` lists stale suppressions — baseline entries that
    matched nothing; under ``--strict`` they fail the run so the baseline
    can only shrink or stay honest, never rot.
    """

    issues: Tuple[AnalysisIssue, ...]
    suppressed: Tuple[AnalysisIssue, ...] = ()
    unused_baseline: Tuple[BaselineEntry, ...] = ()
    files: int = 0
    #: Display paths of every analyzed file — baseline staleness is only
    #: judged for entries whose file was actually in this run's scope.
    file_paths: Tuple[str, ...] = ()

    @property
    def errors(self) -> Tuple[AnalysisIssue, ...]:
        return tuple(i for i in self.issues if i.severity == ERROR)

    @property
    def warnings(self) -> Tuple[AnalysisIssue, ...]:
        return tuple(i for i in self.issues if i.severity == WARNING)

    def ok(self, strict: bool = False) -> bool:
        """True when the tree is clean: no unsuppressed errors (and, under
        ``strict``, no warnings and no stale baseline entries either)."""
        if self.errors:
            return False
        return not (strict and (self.warnings or self.unused_baseline))

    def codes(self) -> Tuple[str, ...]:
        return tuple(i.code for i in self.issues)

    def to_dict(self, strict: bool = False) -> Dict[str, object]:
        return {
            "ok": self.ok(strict),
            "strict": strict,
            "files": self.files,
            "issues": [i.to_dict() for i in self.issues],
            "suppressed": [i.to_dict() for i in self.suppressed],
            "unused_baseline": [e.to_dict() for e in self.unused_baseline],
        }

    def render(self) -> str:
        """Human-readable report, one line per issue."""
        lines = [f"analyzed {self.files} file(s)"]
        if not self.issues and not self.unused_baseline:
            note = f" ({len(self.suppressed)} suppressed)" if self.suppressed else ""
            lines.append(f"  clean: no issues found{note}")
        for issue in self.issues:
            lines.append(
                f"  {issue.location()}: {issue.code} [{issue.severity}] "
                f"{issue.message}"
            )
        for entry in self.unused_baseline:
            lines.append(
                f"  {entry.path}: stale baseline entry {entry.code} "
                f"(context {entry.context!r}) matched nothing — remove it"
            )
        if self.suppressed and self.issues:
            lines.append(f"  ({len(self.suppressed)} finding(s) suppressed by baseline)")
        return "\n".join(lines)


class FileContext:
    """Everything a rule needs about one source file.

    Wraps the parsed AST with a parent map so rules can ask for the
    enclosing function/class of any node, plus the file's dotted module
    name (``repro.core.flb_array`` for ``src/repro/core/flb_array.py``)
    for package-scoped rules, and the project-wide :class:`ProjectIndex`.
    """

    def __init__(
        self, path: str, module: str, tree: ast.Module, index: ProjectIndex
    ) -> None:
        self.path = path
        self.module = module
        self.tree = tree
        self.index = index
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def walk(self) -> Iterator[ast.AST]:
        return ast.walk(self.tree)

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Enclosing nodes, innermost first (excluding ``node`` itself)."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_function(self, node: ast.AST) -> Optional[FunctionNode]:
        """Innermost ``def``/``async def`` containing ``node``, if any."""
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def enclosing_class(self, node: ast.AST) -> Optional[ast.ClassDef]:
        for anc in self.ancestors(node):
            if isinstance(anc, ast.ClassDef):
                return anc
        return None

    def qualname(self, node: ast.AST) -> str:
        """Dotted name of the scope holding ``node`` (``"<module>"`` at
        module scope) — the ``context`` key baseline entries match on."""
        parts: List[str] = []
        scope: Optional[ast.AST] = node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            scope = self._parents.get(node)
        while scope is not None:
            if isinstance(
                scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                parts.append(scope.name)
            scope = self._parents.get(scope)
        if not parts:
            return "<module>"
        return ".".join(reversed(parts))

    def issue(
        self, node: ast.AST, code: str, severity: str, message: str
    ) -> AnalysisIssue:
        """Construct an issue anchored at ``node`` in this file."""
        line = getattr(node, "lineno", 0)
        return AnalysisIssue(
            code=code,
            severity=severity,
            message=message,
            path=self.path,
            line=int(line),
            context=self.qualname(node),
        )


RuleFn = Callable[[FileContext], List[AnalysisIssue]]


@dataclass(frozen=True)
class AnalysisRule:
    """A registered source check: stable code, default severity, title."""

    code: str
    severity: str
    title: str
    fn: RuleFn = field(repr=False, compare=False)


_RULES: List[AnalysisRule] = []


def rule(code: str, severity: str, title: str) -> Callable[[RuleFn], RuleFn]:
    """Register a rule function under ``code`` in the global registry."""

    def register(fn: RuleFn) -> RuleFn:
        _RULES.append(AnalysisRule(code=code, severity=severity, title=title, fn=fn))
        return fn

    return register


def rule_catalogue() -> List[AnalysisRule]:
    """All registered rules in code order (for docs and ``--json`` output)."""
    _load_rules()
    return sorted(_RULES, key=lambda r: r.code)


def _load_rules() -> None:
    """Import the rule modules (self-registering, like graphlint's)."""
    from repro.analysis import (  # noqa: F401  (imported for registration)
        rules_cachekeys,
        rules_concurrency,
        rules_frozen,
    )


# -- shared AST helpers ------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """Resolve a ``Name``/``Attribute`` chain to ``"a.b.c"`` (else None).

    ``time.sleep`` -> ``"time.sleep"``; ``self._lock.acquire`` ->
    ``"self._lock.acquire"``; calls, subscripts, or literals in the chain
    yield ``None`` — rules treat those as unresolvable and stay silent.
    """
    parts: List[str] = []
    current: ast.AST = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def keyword_arg(call: ast.Call, name: str) -> Optional[ast.expr]:
    """The value of keyword ``name`` in ``call``, if present."""
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


# -- file collection and the two-pass driver ---------------------------------


def _module_name(path: Path) -> str:
    """Dotted module guess for ``path``: strip everything up to ``src/``.

    Files outside a ``src`` layout (tests, fixtures) keep their full
    relative dotted path, which is never under ``repro.`` — so rules
    scoped to a package (e.g. A202's ``repro.graph`` exemption) treat
    them as foreign code and stay live on test fixtures by construction.
    """
    parts = list(path.with_suffix("").parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p not in (".", ""))


def collect_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for sub in sorted(p.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    found.append(sub)
        elif p.suffix == ".py" and p.is_file():
            found.append(p)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {raw}")
    seen: Dict[Path, None] = {}
    for p in found:
        seen.setdefault(p, None)
    return list(seen)


def _display_path(path: Path) -> str:
    """Stable path string for reports and baseline matching.

    Relative to the current directory when possible (the common case:
    running from the repo root), posix separators either way.
    """
    try:
        rel = path.resolve().relative_to(Path.cwd().resolve())
        return rel.as_posix()
    except ValueError:
        return path.as_posix()


def analyze_paths(paths: Sequence[str]) -> AnalysisReport:
    """Run every registered rule over the given files/directories.

    Two passes: parse everything and build the :class:`ProjectIndex`,
    then run the rules per file.  Unparseable files report as ``A000``
    errors instead of aborting the run — the analyzer's job is to report
    every problem, not to stop at the first.
    """
    _load_rules()
    files = collect_files(paths)
    parsed: List[Tuple[Path, str, ast.Module]] = []
    issues: List[AnalysisIssue] = []
    for path in files:
        display = _display_path(path)
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, UnicodeDecodeError) as exc:
            issues.append(
                AnalysisIssue(
                    code="A000",
                    severity=ERROR,
                    message=f"cannot parse: {exc}",
                    path=display,
                    line=getattr(exc, "lineno", 0) or 0,
                )
            )
            continue
        parsed.append((path, display, tree))
    index = build_index([(display, tree) for _, display, tree in parsed])
    for path, display, tree in parsed:
        ctx = FileContext(display, _module_name(path), tree, index)
        for reg in rule_catalogue():
            issues.extend(reg.fn(ctx))
    issues.sort(key=lambda i: (i.path, i.line, i.code))
    return AnalysisReport(
        issues=tuple(issues),
        files=len(files),
        file_paths=tuple(_display_path(p) for p in files),
    )


def _rule_docs() -> List[Dict[str, Any]]:
    """Catalogue rows for ``--json`` output and the docs generator."""
    return [
        {"code": r.code, "severity": r.severity, "title": r.title}
        for r in rule_catalogue()
    ]
