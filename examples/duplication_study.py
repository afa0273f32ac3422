#!/usr/bin/env python3
"""Extension study: what does task duplication buy, and what does it cost?

The paper's Section 1 places duplication-based schedulers (DSH and friends)
above list schedulers in quality and far above them in cost.  This example
measures both sides on fork-heavy workloads, where duplicating ancestors
pays the most.

Run:  python examples/duplication_study.py
"""

from repro.core import flb
from repro.duplication import dsh
from repro.machine import MachineModel
from repro.metrics import time_scheduler
from repro.util.rng import make_rng
from repro.util.tables import format_table
from repro.workloads import fft, lu, out_tree, paper_example

def main() -> None:
    print("Paper's Fig. 1 example, P = 4:")
    machine = MachineModel(4)
    d = dsh(paper_example(), machine)
    f = flb(paper_example(), machine)
    print(f"  FLB makespan {f.makespan:g}; DSH makespan {d.makespan:g} "
          f"(duplicated {d.total_copies() - 8} task copies)")
    for t in range(8):
        copies = d.copies_of(t)
        if len(copies) > 1:
            where = ", ".join(f"P{c.proc}@{c.start:g}" for c in copies)
            print(f"  task t{t} duplicated: {where}")
    print()

    workloads = [
        ("out_tree(5,2) ccr=5", lambda: out_tree(5, 2, make_rng(0), ccr=5.0)),
        ("lu(14) ccr=5", lambda: lu(14, make_rng(1), ccr=5.0)),
        ("lu(14) ccr=0.2", lambda: lu(14, make_rng(1), ccr=0.2)),
        ("fft(64) ccr=5", lambda: fft(64, make_rng(2), ccr=5.0)),
    ]
    rows = []
    machine = MachineModel(8)
    for label, builder in workloads:
        g = builder()
        f = flb(g, machine)
        d = dsh(g, machine)
        t_f = time_scheduler(flb, g, machine, repeats=1)
        t_d = time_scheduler(dsh, g, machine, repeats=1)
        rows.append(
            [
                label,
                f.makespan,
                d.makespan,
                d.makespan / f.makespan,
                d.duplication_ratio(),
                t_d / t_f,
            ]
        )
    print(
        format_table(
            ["workload", "FLB", "DSH", "DSH/FLB", "copies/task", "cost ratio"],
            rows,
            title="duplication trade-off at P = 8",
        )
    )
    print(
        "\nreading: DSH/FLB < 1 is the quality gain from duplication;"
        "\n'cost ratio' is how much more compile time it charges — the"
        "\ntrade-off the paper's taxonomy describes."
    )


if __name__ == "__main__":
    main()
