"""Suppression baseline: justified, checked-in exceptions to the A-rules.

A static analyzer that cannot say "yes, we know, and here is why" either
gets ignored or gets weakened rule by rule.  The baseline is the third
option: a JSON file of :class:`~repro.analysis.engine.BaselineEntry`
records, each carrying a mandatory human-readable ``reason``, matched on
``(code, path, context)`` — the enclosing function/class qualname, not
the line number, so suppressions survive unrelated edits to the file.

The contract, enforced by :func:`apply_baseline` + ``--strict``:

* an entry without a non-empty ``reason`` fails to load (unjustified
  suppressions are config errors);
* an entry that matches nothing is reported as *stale* and fails a
  ``--strict`` run — the baseline can shrink or stay honest, never rot;
* ``repro-sched analyze --write-baseline FILE`` snapshots the current
  findings with placeholder reasons for the author to justify.

The default file is ``tools/analysis-baseline.json`` relative to the
working directory (the repo root in CI); see ``docs/static-analysis.md``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.analysis.engine import AnalysisIssue, AnalysisReport, BaselineEntry

__all__ = [
    "ANALYSIS_BASELINE_PATH",
    "apply_baseline",
    "load_baseline",
    "write_baseline",
]

#: Where ``repro-sched analyze`` looks when ``--baseline`` is not given.
ANALYSIS_BASELINE_PATH = "tools/analysis-baseline.json"

_FORMAT_VERSION = 1


def load_baseline(path: Union[str, Path]) -> Tuple[BaselineEntry, ...]:
    """Parse a baseline file; raises ``ValueError`` on malformed entries."""
    raw = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"baseline {path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"baseline {path}: expected an object with version={_FORMAT_VERSION}"
        )
    entries_raw = doc.get("entries")
    if not isinstance(entries_raw, list):
        raise ValueError(f"baseline {path}: 'entries' must be a list")
    entries: List[BaselineEntry] = []
    for i, item in enumerate(entries_raw):
        if not isinstance(item, dict):
            raise ValueError(f"baseline {path}: entry {i} is not an object")
        try:
            entry = BaselineEntry(
                code=str(item["code"]),
                path=str(item["path"]),
                context=str(item.get("context", "*")),
                reason=str(item["reason"]),
            )
        except KeyError as exc:
            raise ValueError(
                f"baseline {path}: entry {i} is missing field {exc}"
            ) from exc
        if not entry.reason.strip():
            raise ValueError(
                f"baseline {path}: entry {i} ({entry.code} at {entry.path}) "
                f"has an empty reason — every suppression must be justified"
            )
        entries.append(entry)
    return tuple(entries)


def apply_baseline(
    report: AnalysisReport, entries: Tuple[BaselineEntry, ...]
) -> AnalysisReport:
    """Split ``report``'s issues into active and suppressed.

    An entry may suppress any number of findings (``context="*"`` covers
    a whole file); entries that match nothing come back in
    ``unused_baseline`` for staleness reporting.  Staleness is judged
    only for entries whose file was in this run's scope — a ``tests/``
    entry is not stale during a ``src/``-only run, just out of scope.
    """
    if not entries:
        return report
    analyzed = set(report.file_paths)
    active: List[AnalysisIssue] = []
    suppressed: List[AnalysisIssue] = list(report.suppressed)
    used = [False] * len(entries)
    for issue in report.issues:
        hit = False
        for i, entry in enumerate(entries):
            if entry.matches(issue):
                used[i] = True
                hit = True
        (suppressed if hit else active).append(issue)
    unused = tuple(
        e for e, u in zip(entries, used) if not u and e.path in analyzed
    )
    return AnalysisReport(
        issues=tuple(active),
        suppressed=tuple(suppressed),
        unused_baseline=report.unused_baseline + unused,
        files=report.files,
        file_paths=report.file_paths,
    )


def write_baseline(
    report: AnalysisReport, path: Union[str, Path]
) -> Tuple[BaselineEntry, ...]:
    """Snapshot the report's active findings as a baseline file.

    Reasons are written as a placeholder the author must replace —
    :func:`load_baseline` accepts them (they are non-empty) but review
    should not.
    """
    entries: List[BaselineEntry] = []
    seen: Dict[Tuple[str, str, str], None] = {}
    for issue in report.issues:
        key = (issue.code, issue.path, issue.context)
        if key in seen:
            continue
        seen[key] = None
        entries.append(
            BaselineEntry(
                code=issue.code,
                path=issue.path,
                context=issue.context,
                reason="TODO: justify this suppression",
            )
        )
    doc: Dict[str, Any] = {
        "version": _FORMAT_VERSION,
        "entries": [e.to_dict() for e in entries],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return tuple(entries)
