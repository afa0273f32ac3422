"""Project-aware source analysis: the A-rule engine behind
``repro-sched analyze <paths>``.

See :mod:`repro.analysis.engine` for the architecture and
``docs/static-analysis.md`` for the rule catalogue.
"""

from repro.analysis.baseline import (
    ANALYSIS_BASELINE_PATH,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.engine import (
    ERROR,
    INFO,
    WARNING,
    AnalysisIssue,
    AnalysisReport,
    AnalysisRule,
    BaselineEntry,
    analyze_paths,
    rule_catalogue,
)

__all__ = [
    "ERROR",
    "WARNING",
    "INFO",
    "AnalysisIssue",
    "AnalysisReport",
    "AnalysisRule",
    "BaselineEntry",
    "ANALYSIS_BASELINE_PATH",
    "analyze_paths",
    "apply_baseline",
    "load_baseline",
    "rule_catalogue",
    "write_baseline",
]
