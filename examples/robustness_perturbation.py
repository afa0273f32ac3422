#!/usr/bin/env python3
"""Extension experiment (X4): how fragile is a compile-time schedule when
run-time task and message costs deviate from the estimates?

The schedule's assignment and per-processor order are frozen (that is the
point of compile-time scheduling); execution is self-timed.  We perturb
weights with mean-preserving lognormal noise and measure the achieved
makespan through the discrete-event executor.

Run:  python examples/robustness_perturbation.py
"""

import numpy as np

from repro.core import flb
from repro.machine import MachineModel
from repro.schedulers import mcp
from repro.sim import execute_perturbed
from repro.util.rng import make_rng
from repro.util.tables import format_table
from repro.workloads import fft

def main() -> None:
    graph = fft(128, make_rng(11), ccr=1.0)
    procs = 8
    draws = 40
    print(f"workload: FFT(128), V = {graph.num_tasks}, P = {procs}, {draws} draws per cell\n")

    rows = []
    for name, scheduler in (("flb", flb), ("mcp", mcp)):
        planned = scheduler(graph, MachineModel(procs))
        for cv in (0.1, 0.25, 0.5):
            achieved = [
                execute_perturbed(planned, make_rng(1000 + i), cv, cv).makespan
                for i in range(draws)
            ]
            arr = np.asarray(achieved) / planned.makespan
            rows.append(
                [
                    name,
                    cv,
                    planned.makespan,
                    arr.mean(),
                    arr.std(),
                    arr.max(),
                ]
            )
    print(
        format_table(
            ["algorithm", "noise cv", "planned", "mean rel.", "std rel.", "worst rel."],
            rows,
            title="achieved makespan relative to planned, under weight noise",
        )
    )
    print(
        "\nreading: 'mean rel.' near 1.0 means the schedule absorbs noise well;"
        "\nthe growth with cv shows how much slack compile-time schedules need."
    )


if __name__ == "__main__":
    main()
