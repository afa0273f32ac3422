"""Experiment harness: the paper's workload suite, the sweep runner, and
the registry that regenerates every ``results/*.txt``."""

from repro.bench.experiments import EXPERIMENTS, FIGURE_ALGORITHMS, Experiment
from repro.bench.runner import RunRecord, group_mean, run_sweep
from repro.bench.suite import (
    PAPER_CCRS,
    PAPER_PROBLEMS,
    PAPER_PROCS,
    Instance,
    paper_suite,
)

__all__ = [
    "paper_suite",
    "Instance",
    "PAPER_PROBLEMS",
    "PAPER_CCRS",
    "PAPER_PROCS",
    "run_sweep",
    "RunRecord",
    "group_mean",
    "EXPERIMENTS",
    "Experiment",
    "FIGURE_ALGORITHMS",
]
