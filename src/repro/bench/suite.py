"""The paper's experimental workload suite (Section 6).

The paper evaluates on LU decomposition, a Laplace equation solver, and a
stencil algorithm (FFT additionally appears in the Fig. 3 speedup
discussion), each sized to about ``V = 2000`` tasks, at CCR values 0.2
(coarse grain) and 5.0 (fine grain), with 5 random-weight instances per
configuration (i.i.d. weights; see DESIGN.md §4.2 on the "unit coefficient
of variation" wording).

:func:`paper_suite` reproduces that suite.  ``target_tasks`` scales the
whole suite down for quick runs (the benchmark harness defaults to a few
hundred tasks so the exhaustive-scan baselines finish promptly; pass 2000
for the paper-sized runs recorded in EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.graph.taskgraph import TaskGraph
from repro.util.rng import spawn_rngs
from repro.workloads.problems import build_problem

__all__ = ["Instance", "paper_suite", "PAPER_PROBLEMS", "PAPER_CCRS", "PAPER_PROCS"]

#: Problems in the paper's evaluation (FFT appears in the Fig. 3 discussion).
PAPER_PROBLEMS: Tuple[str, ...] = ("lu", "laplace", "stencil", "fft")

#: Granularities used by the paper.
PAPER_CCRS: Tuple[float, ...] = (0.2, 5.0)

#: Processor counts on the x-axes of Figs. 2-4.
PAPER_PROCS: Tuple[int, ...] = (2, 4, 8, 16, 32)


@dataclass(frozen=True)
class Instance:
    """One workload instance of the suite."""

    problem: str
    ccr: float
    seed_index: int
    graph: TaskGraph

    @property
    def label(self) -> str:
        return f"{self.problem}/ccr={self.ccr:g}/#{self.seed_index}"


def paper_suite(
    target_tasks: int = 2000,
    ccrs: Sequence[float] = PAPER_CCRS,
    seeds: int = 5,
    problems: Sequence[str] = PAPER_PROBLEMS,
    distribution: str = "uniform",
    base_seed: int = 1999,  # the paper's year; any fixed value works
) -> List[Instance]:
    """Build the paper's workload suite.

    Returns ``len(problems) * len(ccrs) * seeds`` instances, each with
    independent random weights derived deterministically from ``base_seed``.
    ``problems`` may name any family of :data:`repro.workloads.PROBLEMS`.
    """
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    instances: List[Instance] = []
    streams = spawn_rngs(base_seed, len(problems) * len(ccrs) * seeds)
    i = 0
    for problem in problems:
        for ccr in ccrs:
            for seed_index in range(seeds):
                graph = build_problem(problem, target_tasks, streams[i], ccr, distribution)
                instances.append(Instance(problem, ccr, seed_index, graph))
                i += 1
    return instances
