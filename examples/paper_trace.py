#!/usr/bin/env python3
"""Reproduce the paper's Section 5 walkthrough: the FLB execution trace
(Table 1) on the Fig. 1 example graph, scheduled on two processors.

Run:  python examples/paper_trace.py
"""

from repro.core import OracleObserver, TraceRecorder, flb, format_trace
from repro.graph import bottom_levels, critical_path_length, to_dot, width
from repro.machine import MachineModel
from repro.schedule import render_gantt
from repro.workloads import paper_example

def main() -> None:
    graph = paper_example()
    print("The Fig. 1 task graph (reconstructed from the Table 1 trace):")
    print(f"  V = {graph.num_tasks}, E = {graph.num_edges}, "
          f"width = {width(graph)}, critical path = {critical_path_length(graph):g}")
    bl = bottom_levels(graph)
    print("  bottom levels:", {graph.name(t): bl[t] for t in graph.tasks()})
    print()

    # Run FLB with both the trace recorder and the Theorem-3 oracle attached.
    recorder = TraceRecorder(graph)
    schedule = flb(graph, MachineModel(2), observer=recorder)

    oracle = OracleObserver()
    flb(graph, MachineModel(2), observer=oracle)
    print(f"Theorem 3 verified on all {oracle.iterations} iterations "
          f"({oracle.tie_iterations} EP/non-EP tie, resolved to non-EP).\n")

    print("Execution trace (the paper's Table 1):")
    print(format_trace(recorder))
    print()
    print(render_gantt(schedule, width=70))
    print(f"\nmakespan = {schedule.makespan:g}  (paper: 14)")
    print("\nGraphviz source of the example graph:")
    print(to_dot(graph))


if __name__ == "__main__":
    main()
