"""A3xx — cache and metrics discipline rules.

A301 is a past bug class verbatim: the batch plane once built result
cache keys as inline tuples that silently omitted a key field, so one
request's cached result answered a different request.  The fix routed
every key through :func:`repro.resultcache.make_key`; this rule keeps it
that way.  A302 pins the metric naming contract documented in
:mod:`repro.obs.metrics` (counters ``*_total``, duration histograms
``*_seconds`` — size histograms must declare explicit ``buckets``).
A303 guards testability: a module-level warn-once latch without a
``reset_*`` hook makes the warning untestable after the first test that
trips it.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.analysis.engine import (
    ERROR,
    WARNING,
    AnalysisIssue,
    FileContext,
    dotted_name,
    keyword_arg,
    rule,
)

__all__: List[str] = []

#: Method names that consult or populate a mapping by key.
_KEYED_METHODS = {"get", "put", "setdefault", "pop"}

#: Receiver-name substrings marking a result/coalescing cache.
_CACHE_MARKERS = ("cache", "coalesc", "inflight", "in_flight")

#: The one module allowed to spell the key tuple out: the key factory.
_KEY_FACTORY_MODULE = "repro.resultcache"


def _receiver_is_cache(func: ast.Attribute) -> bool:
    name = dotted_name(func.value)
    if name is None:
        return False
    lowered = name.lower()
    return any(marker in lowered for marker in _CACHE_MARKERS)


@rule("A301", ERROR, "cache key built inline instead of via make_key")
def _check_inline_cache_keys(ctx: FileContext) -> List[AnalysisIssue]:
    """Flags a literal tuple used as the key of a cache-named mapping —
    ``get``/``put``/``setdefault``/``pop`` calls and subscripts alike.
    An inline tuple cannot share the key factory's validation (the
    machine must agree with ``procs``) or pick up new key fields when
    the schema grows; route it through
    :func:`repro.resultcache.make_key`."""
    if ctx.module == _KEY_FACTORY_MODULE:
        return []
    issues: List[AnalysisIssue] = []
    for node in ctx.walk():
        tuple_key: ast.AST
        if isinstance(node, ast.Call):
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _KEYED_METHODS
                and _receiver_is_cache(func)
                and node.args
                and isinstance(node.args[0], ast.Tuple)
            ):
                continue
            tuple_key = node.args[0]
        elif isinstance(node, ast.Subscript):
            if not (
                isinstance(node.value, (ast.Name, ast.Attribute))
                and isinstance(node.slice, ast.Tuple)
            ):
                continue
            name = dotted_name(node.value)
            if name is None or not any(
                marker in name.lower() for marker in _CACHE_MARKERS
            ):
                continue
            tuple_key = node.slice
        else:
            continue
        issues.append(
            ctx.issue(
                tuple_key,
                "A301",
                ERROR,
                "inline tuple used as a cache key; build keys with "
                "repro.resultcache.make_key so every field (including the "
                "machine fingerprint) is validated in one place",
            )
        )
    return issues


@rule("A302", WARNING, "metric name outside the documented conventions")
def _check_metric_names(ctx: FileContext) -> List[AnalysisIssue]:
    """Counters must end in ``_total`` and histograms in ``_seconds``
    (the convention :mod:`repro.obs.metrics` documents and the Grafana
    dashboards assume).  A histogram measuring something other than a
    duration is fine — but then it must declare explicit ``buckets``,
    which is also what makes it render sensibly."""
    issues: List[AnalysisIssue] = []
    for node in ctx.walk():
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr not in ("counter", "histogram"):
            continue
        if not node.args:
            continue
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            continue
        name = first.value
        if func.attr == "counter" and not name.endswith("_total"):
            issues.append(
                ctx.issue(
                    first,
                    "A302",
                    WARNING,
                    f"counter {name!r} does not end in _total "
                    f"(repro.obs.metrics naming convention)",
                )
            )
        elif (
            func.attr == "histogram"
            and not name.endswith("_seconds")
            and keyword_arg(node, "buckets") is None
            and len(node.args) < 2  # buckets may also be passed positionally
        ):
            issues.append(
                ctx.issue(
                    first,
                    "A302",
                    WARNING,
                    f"histogram {name!r} neither ends in _seconds nor "
                    f"declares explicit buckets; duration histograms take "
                    f"the _seconds suffix, size histograms take buckets=",
                )
            )
    return issues


def _module_level_latches(tree: ast.Module) -> Set[str]:
    """Module-scope boolean names ending in ``_warned`` (warn-once latches)."""
    latches: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant):
            if not isinstance(stmt.value.value, bool):
                continue
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id.endswith("_warned"):
                    latches.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            if (
                isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, bool)
                and stmt.target.id.endswith("_warned")
            ):
                latches.add(stmt.target.id)
    return latches


@rule("A303", WARNING, "warn-once latch without a reset_* hook")
def _check_warn_once_reset(ctx: FileContext) -> List[AnalysisIssue]:
    """A ``*_warned`` module global flips once per process; without a
    ``reset_*`` function that clears it, no test after the first can
    observe the warning (:func:`repro.api.reset_options_deprecations` is
    the pattern)."""
    latches = _module_level_latches(ctx.tree)
    if not latches:
        return []
    resettable: Set[str] = set()
    for stmt in ctx.tree.body:
        if not isinstance(stmt, ast.FunctionDef):
            continue
        if not stmt.name.startswith("reset_"):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id in latches:
                        resettable.add(target.id)
    issues: List[AnalysisIssue] = []
    for stmt in ctx.tree.body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            continue
        names: List[str] = []
        if isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        for name in names:
            if name in latches and name not in resettable:
                issues.append(
                    ctx.issue(
                        stmt,
                        "A303",
                        WARNING,
                        f"warn-once latch {name} has no module-level "
                        f"reset_* function assigning it; add one so tests "
                        f"can re-arm the warning",
                    )
                )
    return issues
