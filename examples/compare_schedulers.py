#!/usr/bin/env python3
"""Compare every scheduler in the registry on one realistic workload:
schedule quality (makespan, NSL vs MCP) and scheduling cost side by side.

Run:  python examples/compare_schedulers.py [V] [P]
"""

import sys

from repro.machine import MachineModel
from repro.metrics import comm_stats, speedup, time_scheduler
from repro.schedulers import SCHEDULERS
from repro.util.rng import make_rng
from repro.util.tables import format_table
from repro.workloads import lu, lu_size_for_tasks

def main(target_tasks: int = 800, procs: int = 8) -> None:
    graph = lu(lu_size_for_tasks(target_tasks), make_rng(42), ccr=1.0)
    print(
        f"workload: LU decomposition, V = {graph.num_tasks}, "
        f"E = {graph.num_edges}, CCR = 1.0, P = {procs}\n"
    )

    machine = MachineModel(procs)
    mcp_span = SCHEDULERS["mcp"](graph, machine).makespan
    rows = []
    for name in sorted(SCHEDULERS):
        scheduler = SCHEDULERS[name]
        schedule = scheduler(graph, machine)
        schedule.validate()
        ms = time_scheduler(scheduler, graph, machine, repeats=3) * 1e3
        stats = comm_stats(schedule)
        rows.append(
            [
                name,
                schedule.makespan,
                schedule.makespan / mcp_span,
                speedup(schedule),
                stats.remote_messages,
                ms,
            ]
        )
    rows.sort(key=lambda r: r[1])
    print(
        format_table(
            ["algorithm", "makespan", "NSL(vs MCP)", "speedup", "remote msgs", "time [ms]"],
            rows,
        )
    )
    print(
        "\nNSL < 1 beats MCP; the paper's headline is that FLB matches the"
        "\nexpensive one-step algorithms at a fraction of their cost."
    )


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    main(*args)
