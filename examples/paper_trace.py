#!/usr/bin/env python3
"""Reproduce the paper's Section 5 walkthrough: the FLB execution trace
(Table 1) on the Fig. 1 example graph, scheduled on two processors.

Run:  python examples/paper_trace.py
"""

from repro import certify
from repro.core import flb, format_trace
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

    # Schedule with FLB, then let the independent certifier replay it: its
    # F001/F002 checks hold Theorem 3 (minimum start time, non-EP tie rule)
    # on every placement.
    schedule = flb(graph, MachineModel(2))
    cert = certify(schedule, flavor="flb")
    verdict = "ok" if cert.ok else f"FAILED {', '.join(cert.codes())}"
    print(f"Theorem 3 verified on all {cert.num_tasks} placements by the "
          f"certifier's greedy replay: {verdict}.\n")

    print("Execution trace (the paper's Table 1):")
    print(format_trace(schedule))
    print()
    print(render_gantt(schedule, width=70))
    print(f"\nmakespan = {schedule.makespan:g}  (paper: 14)")
    print("\nGraphviz source of the example graph:")
    print(to_dot(graph))


if __name__ == "__main__":
    main()
