"""Shared fixtures for the benchmark harness.

Sizes default to a few hundred tasks so the exhaustive-scan baselines (ETF,
DLS) finish promptly; set ``REPRO_BENCH_TASKS=2000`` (and optionally
``REPRO_BENCH_SEEDS``) to run at the paper's scale, as recorded in
EXPERIMENTS.md.
"""

import os

import pytest

from repro.bench import EXPERIMENTS, paper_suite


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


BENCH_TASKS = _env_int("REPRO_BENCH_TASKS", 300)
BENCH_SEEDS = _env_int("REPRO_BENCH_SEEDS", 2)


@pytest.fixture(scope="session")
def bench_tasks():
    return BENCH_TASKS


@pytest.fixture(scope="session")
def suite_by_problem():
    """One representative instance per (problem, ccr) at bench scale."""
    instances = paper_suite(BENCH_TASKS, seeds=1)
    return {(inst.problem, inst.ccr): inst.graph for inst in instances}


@pytest.fixture(scope="session")
def registry_run():
    """``registry_run(id)``: one registry run of that experiment at bench
    scale, shared by every shape check that reads it."""
    runs = {}

    def run(exp_id):
        if exp_id not in runs:
            runs[exp_id] = EXPERIMENTS[exp_id].run(BENCH_TASKS, BENCH_SEEDS)
        return runs[exp_id]

    return run
