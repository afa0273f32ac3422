#!/usr/bin/env python3
"""Quickstart: build a task graph, schedule it with FLB, inspect the result.

Run:  python examples/quickstart.py
"""

import dataclasses

from repro import MachineModel, SchedulingOptions, TaskGraph, schedule_graph
from repro.metrics import summarize
from repro.schedule import render_gantt
from repro.sim import execute

def main() -> None:
    # 1. Describe the parallel program as a weighted DAG: computation cost
    #    per task, communication cost per dependency.
    g = TaskGraph()
    load = g.add_task(2.0, name="load")
    left = g.add_task(4.0, name="left")
    right = g.add_task(4.0, name="right")
    merge = g.add_task(3.0, name="merge")
    report = g.add_task(1.0, name="report")
    g.add_edge(load, left, comm=1.0)
    g.add_edge(load, right, comm=1.0)
    g.add_edge(left, merge, comm=2.0)
    g.add_edge(right, merge, comm=2.0)
    g.add_edge(merge, report, comm=0.5)
    g.freeze()

    # 2. Schedule on 2 processors with FLB (the paper's algorithm).
    options = SchedulingOptions(machine=MachineModel(2), algorithm="flb")
    schedule = schedule_graph(g, options)
    schedule.validate()

    # 3. Inspect.
    print(schedule.as_table())
    print()
    print(render_gantt(schedule, width=60))
    print()
    for key, value in summarize(schedule).items():
        print(f"  {key:>16s}: {value:.3f}")

    # 4. Cross-check by discrete-event re-execution.
    result = execute(schedule)
    assert result.matches(schedule)
    print(f"\nre-executed makespan: {result.makespan:g} (matches the schedule)")

    # 5. Compare against a baseline in one line.
    mcp = schedule_graph(g, dataclasses.replace(options, algorithm="mcp"))
    print(f"FLB vs MCP makespan: {schedule.makespan:g} vs {mcp.makespan:g}")


if __name__ == "__main__":
    main()
