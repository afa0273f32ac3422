#!/usr/bin/env python3
"""Domain scenario: a time-stepped stencil kernel at different granularities.

The paper's Fig. 3/4 story in miniature: the same stencil pipeline is
scheduled at CCR 0.2 (coarse grain — communication cheap relative to
computation) and CCR 5.0 (fine grain), showing how granularity drives both
achievable speedup and the value of DSC's communication-zeroing clustering.

Run:  python examples/stencil_pipeline.py
"""

from repro.core import flb
from repro.machine import MachineModel
from repro.metrics import speedup
from repro.schedulers import dsc, dsc_llb
from repro.util.rng import make_rng
from repro.util.tables import format_series_chart, format_table
from repro.workloads import stencil

def main() -> None:
    procs_list = (1, 2, 4, 8, 16, 32)
    rows = []
    series = {}
    for ccr in (0.2, 5.0):
        graph = stencil(40, 50, make_rng(3), ccr=ccr)
        speedups = [speedup(flb(graph, MachineModel(p))) for p in procs_list]
        series[f"CCR={ccr:g}"] = speedups
        rows.append([f"CCR={ccr:g}", *(f"{s:.2f}" for s in speedups)])
        clustering = dsc(graph)
        print(
            f"CCR={ccr:g}: DSC folds {graph.num_tasks} tasks into "
            f"{clustering.num_clusters} clusters "
            f"(virtual makespan {clustering.makespan:.1f} vs serial {graph.total_comp():.1f})"
        )
    print()
    print(format_table(["grain", *(f"P={p}" for p in procs_list)], rows,
                       title="FLB speedup on stencil(40x50)"))
    print()
    print(format_series_chart(list(procs_list), series,
                              title="speedup vs P", x_label="P", y_label="speedup"))

    # Fine grain also widens the FLB vs DSC-LLB gap the paper reports.
    print()
    for ccr in (0.2, 5.0):
        graph = stencil(40, 50, make_rng(3), ccr=ccr)
        f = flb(graph, MachineModel(8)).makespan
        d = dsc_llb(graph, MachineModel(8)).makespan
        print(f"CCR={ccr:g}: FLB {f:8.1f}  DSC-LLB {d:8.1f}  (DSC-LLB/FLB = {d/f:.3f})")


if __name__ == "__main__":
    main()
