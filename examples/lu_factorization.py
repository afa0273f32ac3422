#!/usr/bin/env python3
"""Domain scenario: compiling a dense LU factorisation for a distributed-
memory machine.  Shows the compile-time workflow end to end — generate the
elimination DAG, pick a processor count using FLB's speedup curve, inspect
the chosen schedule, and check its communication profile.

Run:  python examples/lu_factorization.py
"""

from repro.core import flb
from repro.graph import critical_path_length, width
from repro.machine import MachineModel
from repro.metrics import comm_stats, efficiency, speedup, utilization
from repro.schedule import render_gantt
from repro.util.rng import make_rng
from repro.util.tables import format_table
from repro.workloads import lu

def main() -> None:
    # A 40x40 elimination: 819 tasks.
    graph = lu(40, make_rng(7), ccr=0.5)
    print(
        f"LU(40): V = {graph.num_tasks}, E = {graph.num_edges}, "
        f"W = {width(graph)}, CP = {critical_path_length(graph):.1f}, "
        f"serial time = {graph.total_comp():.1f}\n"
    )

    # Sweep processor counts to choose a deployment size.
    rows = []
    schedules = {}
    for procs in (1, 2, 4, 8, 16, 32):
        s = flb(graph, MachineModel(procs))
        schedules[procs] = s
        rows.append(
            [procs, s.makespan, speedup(s), efficiency(s), s.num_procs_used()]
        )
    print(format_table(["P", "makespan", "speedup", "efficiency", "procs used"], rows))

    # Efficiency collapses past the graph's parallelism; pick the knee.
    knee = max(
        (p for p, s in schedules.items() if efficiency(s) >= 0.5),
        default=1,
    )
    chosen = schedules[knee]
    print(f"\nchosen deployment: P = {knee} (last size with efficiency >= 50%)")

    stats = comm_stats(chosen)
    print(
        f"communication: {stats.remote_messages}/{stats.total_messages} messages cross "
        f"processors ({stats.remote_fraction:.0%}), remote volume {stats.remote_volume:.1f}"
    )
    util = utilization(chosen)
    print("utilisation:", "  ".join(f"P{p}={u:.0%}" for p, u in enumerate(util)))

    # A small instance's Gantt chart to see the elimination wavefront.
    small = flb(lu(7, make_rng(7), ccr=0.5), MachineModel(4))
    print("\nLU(7) on 4 processors:")
    print(render_gantt(small, width=72))


if __name__ == "__main__":
    main()
