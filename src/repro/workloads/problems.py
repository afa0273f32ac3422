"""Workload families by name, each sized by a target task count.

:data:`PROBLEMS` is the one table from a problem name to the generator
call that builds it: the CLI's ``--problem``/``--problems`` choices are its
names, and the paper's suite (:func:`repro.bench.suite.paper_suite`) and
the extended sweep build their instances through :func:`build_problem`.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.graph.taskgraph import TaskGraph
from repro.workloads.cholesky import cholesky, cholesky_size_for_tasks
from repro.workloads.fft import fft, fft_size_for_tasks
from repro.workloads.laplace import laplace, laplace_size_for_tasks
from repro.workloads.lu import lu, lu_chain, lu_size_for_tasks
from repro.workloads.stencil import stencil, stencil_size_for_tasks
from repro.workloads.wavefront import wavefront, wavefront_size_for_tasks

__all__ = ["PROBLEMS", "build_problem"]

#: ``PROBLEMS[name](tasks, rng, ccr, distribution)``: the family ``name``
#: at about ``tasks`` tasks.
PROBLEMS: Dict[str, Callable[[int, np.random.Generator, float, str], TaskGraph]] = {
    "lu": lambda tasks, rng, ccr, dist: lu(
        lu_size_for_tasks(tasks), rng, ccr=ccr, distribution=dist),
    "lu-chain": lambda tasks, rng, ccr, dist: lu_chain(
        lu_size_for_tasks(tasks), rng, ccr=ccr, distribution=dist),
    "laplace": lambda tasks, rng, ccr, dist: laplace(
        *laplace_size_for_tasks(tasks), rng, ccr=ccr, distribution=dist),
    "stencil": lambda tasks, rng, ccr, dist: stencil(
        *stencil_size_for_tasks(tasks), rng, ccr=ccr, distribution=dist),
    "fft": lambda tasks, rng, ccr, dist: fft(
        fft_size_for_tasks(tasks), rng, ccr=ccr, distribution=dist),
    "cholesky": lambda tasks, rng, ccr, dist: cholesky(
        cholesky_size_for_tasks(tasks), rng, ccr=ccr, distribution=dist),
    "wavefront": lambda tasks, rng, ccr, dist: wavefront(
        wavefront_size_for_tasks(tasks), rng, ccr=ccr, distribution=dist),
}


def build_problem(
    name: str, tasks: int, rng: np.random.Generator, ccr: float,
    distribution: str = "uniform",
) -> TaskGraph:
    """The family ``name`` at about ``tasks`` tasks, its weights drawn from
    ``rng`` (``distribution``) and scaled to ``ccr``."""
    if name not in PROBLEMS:
        raise ValueError(f"unknown problem {name!r}; expected one of {tuple(PROBLEMS)}")
    return PROBLEMS[name](tasks, rng, ccr, distribution)
