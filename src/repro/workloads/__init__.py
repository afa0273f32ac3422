"""Workload (task-graph) generators: the paper's evaluation problems plus
randomised families for testing and scaling studies."""

from repro.workloads.base import build_weighted_graph
from repro.workloads.cholesky import cholesky, cholesky_size_for_tasks
from repro.workloads.fft import fft, fft_size_for_tasks
from repro.workloads.gallery import paper_example, simple_diamond, two_chains
from repro.workloads.laplace import laplace, laplace_size_for_tasks
from repro.workloads.lu import lu, lu_chain, lu_size_for_tasks
from repro.workloads.problems import PROBLEMS, build_problem
from repro.workloads.random_dags import (
    chain,
    erdos_dag,
    fork_join,
    in_tree,
    independent_tasks,
    layered_random,
    out_tree,
    series_parallel,
)
from repro.workloads.stencil import stencil, stencil_size_for_tasks
from repro.workloads.wavefront import wavefront, wavefront_size_for_tasks

__all__ = [
    "build_weighted_graph",
    "lu",
    "lu_chain",
    "lu_size_for_tasks",
    "laplace",
    "laplace_size_for_tasks",
    "stencil",
    "stencil_size_for_tasks",
    "wavefront",
    "wavefront_size_for_tasks",
    "fft",
    "fft_size_for_tasks",
    "cholesky",
    "cholesky_size_for_tasks",
    "layered_random",
    "erdos_dag",
    "fork_join",
    "out_tree",
    "in_tree",
    "chain",
    "independent_tasks",
    "series_parallel",
    "paper_example",
    "simple_diamond",
    "two_chains",
    "PROBLEMS",
    "build_problem",
]
