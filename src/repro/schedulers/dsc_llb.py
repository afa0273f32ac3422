"""DSC-LLB — the paper's multi-step baseline (Section 3.3).

Step 1 clusters the graph with DSC (minimising communication on an
unbounded machine); step 2 maps the clusters onto the ``P`` physical
processors with LLB.  The composition is cheap —
``O((E + V) log V)`` + ``O(C log C + V)`` — and, per the paper, trades
10–40% schedule quality against the one-step algorithms for that cost.
"""

from __future__ import annotations

from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.schedule.schedule import Schedule
from repro.schedulers.dsc import dsc
from repro.schedulers.llb import llb

__all__ = ["dsc_llb"]


def dsc_llb(
    graph: TaskGraph,
    machine: MachineModel,
    priority: str = "largest",
) -> Schedule:
    """Schedule ``graph`` with the DSC-LLB multi-step method."""
    graph.freeze()
    clustering = dsc(graph, machine)
    return llb(graph, clustering, machine=machine, priority=priority)
