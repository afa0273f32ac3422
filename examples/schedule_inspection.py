#!/usr/bin/env python3
"""Inspecting a schedule like a performance engineer: slack analysis, idle
accounting, critical chain, persistence, and SVG export.

Run:  python examples/schedule_inspection.py [output.svg]
"""

import sys

from repro.core import flb
from repro.machine import MachineModel
from repro.schedule import (
    critical_tasks,
    idle_profile,
    render_gantt,
    save_gantt_svg,
    save_schedule,
    slack_times,
)
from repro.util.rng import make_rng
from repro.util.tables import format_table
from repro.workloads import lu

def main(svg_path: str = "/tmp/lu_schedule.svg") -> None:
    graph = lu(12, make_rng(21), ccr=2.0)
    schedule = flb(graph, MachineModel(4))
    print(f"LU(12) on 4 processors with FLB: makespan {schedule.makespan:.2f}\n")
    print(render_gantt(schedule, width=72))

    # Which tasks actually pin the makespan?
    slack = slack_times(schedule)
    crit = critical_tasks(schedule)
    print(f"\nschedule-critical chain ({len(crit)} tasks):")
    print("  " + " -> ".join(graph.name(t) for t in sorted(crit, key=schedule.start_of)))

    # The most slack-rich tasks are rescheduling candidates.
    rows = sorted(
        ((graph.name(t), schedule.start_of(t), slack[t]) for t in graph.tasks()),
        key=lambda r: -r[2],
    )[:5]
    print()
    print(format_table(["task", "start", "slack"], rows, title="largest slacks"))

    # Where does each processor lose time?
    profile = idle_profile(schedule)
    rows = [
        (
            f"P{p}",
            profile.busy[p],
            profile.idle_leading[p],
            profile.idle_internal[p],
            profile.idle_trailing[p],
        )
        for p in range(4)
    ]
    print()
    print(
        format_table(
            ["proc", "busy", "lead idle", "comm stalls", "tail idle"],
            rows,
            title="idle accounting",
        )
    )

    # Persist for downstream tools, and export a vector Gantt.
    save_schedule(schedule, "/tmp/lu_schedule.json")
    save_gantt_svg(schedule, svg_path)
    print(f"\nwrote /tmp/lu_schedule.json and {svg_path}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
