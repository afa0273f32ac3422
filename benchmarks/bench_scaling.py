"""X1 — complexity-scaling check for the paper's
``O(V (log W + log P) + E)`` claim.

On layered random graphs of fixed width (constant ``W``) with ``V`` and
``E`` growing linearly, FLB's time per task must stay near-constant, and
doubling ``P`` must cost at most the ``log P`` term.  ETF at the same sizes
grows like ``W * P`` per task, which is what makes it unusable at scale —
contrasted here at the smallest size only.

Run as a script to produce the large-V curve for the array kernel
(``results/scaling.txt``)::

    PYTHONPATH=src python benchmarks/bench_scaling.py          # 10^3 .. 10^6
    PYTHONPATH=src python benchmarks/bench_scaling.py --max-v 100000
"""

import pytest

from repro.core import flb
from repro.machine import MachineModel
from repro.metrics import time_scheduler
from repro.schedulers import SCHEDULERS
from repro.util.rng import make_rng
from repro.workloads import layered_random

WIDTH = 25
SIZES = (500, 1000, 2000, 4000)


def _graph(v):
    return layered_random(v // WIDTH, WIDTH, make_rng(7), edge_density=0.15, ccr=1.0)


@pytest.mark.parametrize("v", SIZES)
def bench_flb_scaling_v(benchmark, v):
    graph = _graph(v)
    benchmark.extra_info["V"] = graph.num_tasks
    benchmark.extra_info["E"] = graph.num_edges
    schedule = benchmark(flb, graph, MachineModel(16))
    assert schedule.complete


@pytest.mark.parametrize("procs", [2, 16, 128])
def bench_flb_scaling_p(benchmark, procs):
    graph = _graph(2000)
    schedule = benchmark(flb, graph, MachineModel(procs))
    assert schedule.complete


def test_scaling_near_linear_in_v():
    """Time per task from V=500 to V=4000 may grow only modestly (constant
    W, so only cache effects and the log terms move)."""
    per_task = {}
    for v in (500, 4000):
        g = _graph(v)
        per_task[v] = time_scheduler(flb, g, MachineModel(16), repeats=3) / g.num_tasks
    assert per_task[4000] < 3.0 * per_task[500]


def test_scaling_gentle_in_p():
    """64x more processors must cost far less than 64x more time."""
    g = _graph(2000)
    t2 = time_scheduler(flb, g, MachineModel(2), repeats=3)
    t128 = time_scheduler(flb, g, MachineModel(128), repeats=3)
    assert t128 < 4.0 * t2


def test_scaling_flb_beats_etf_at_scale():
    """At V=1000, P=16, FLB must be at least an order of magnitude cheaper
    than ETF (the motivating cost gap)."""
    g = _graph(1000)
    t_flb = time_scheduler(flb, g, MachineModel(16), repeats=3)
    t_etf = time_scheduler(SCHEDULERS["etf"], g, MachineModel(16), repeats=1)
    assert t_etf > 10.0 * t_flb


def run_scaling_curve(max_v=1_000_000, procs=16, out=None):
    """Time the array kernel on square stencil grids from 10^3 up to
    ``max_v`` tasks and write the per-task curve to ``out``.

    Square grids (``cells = steps = sqrt(V)``) keep the shape family fixed
    while V grows, so time/V directly tests the paper's
    ``O(V (log W + log P) + E)`` bound: with bounded degree (E ~ 3V) and
    slowly-growing W, the per-task cost must stay near-flat.  Returns the
    list of row dicts so callers (and the CI artifact step) can assert on
    the flatness ratio.
    """
    import gc
    import math
    import time as _time
    from pathlib import Path

    from repro.core.flb_array import flb_array
    from repro.util.rng import make_rng as _make_rng
    from repro.util.tables import format_table
    from repro.workloads import stencil

    sizes = [v for v in (1_000, 10_000, 100_000, 1_000_000) if v <= max_v]
    rows = []
    for v in sizes:
        side = int(math.isqrt(v))
        graph = stencil(side, side, _make_rng(7))
        repeats = 3 if v <= 10_000 else 2
        best = float("inf")
        # The million-object graph makes generational GC sweeps dominate
        # the timed region at large V; they are allocator noise, not kernel
        # cost, so collect once up front and keep GC off while timing.
        gc.collect()
        gc.disable()
        try:
            for _ in range(repeats):
                t0 = _time.perf_counter()
                schedule = flb_array(graph, MachineModel(procs))
                best = min(best, _time.perf_counter() - t0)
        finally:
            gc.enable()
        assert schedule.complete
        rows.append({
            "V": graph.num_tasks,
            "E": graph.num_edges,
            "seconds": best,
            "us_per_task": best / graph.num_tasks * 1e6,
            "tasks_per_s": graph.num_tasks / best,
        })
        print(f"V={graph.num_tasks:>9,}  {best:8.3f}s  "
              f"{rows[-1]['us_per_task']:6.2f} us/task  "
              f"{rows[-1]['tasks_per_s']:>9,.0f} tasks/s")

    flat = None
    lo = next((r for r in rows if r["V"] >= 9_000), None)
    hi = rows[-1] if rows[-1]["V"] >= 100_000 else None
    if lo is not None and hi is not None and hi["V"] > lo["V"]:
        flat = hi["us_per_task"] / lo["us_per_task"]

    lines = [
        "== scaling: FLB array kernel cost scaling in V ==",
        f"square 1-D stencil grids, P={procs}, bounded degree (E ~ 3V)",
        format_table(
            ["V", "E", "time [s]", "us/task", "tasks/s"],
            [[r["V"], r["E"], r["seconds"], r["us_per_task"],
              r["tasks_per_s"]] for r in rows],
        ),
    ]
    if flat is not None:
        lines.append(
            f"time/V from V={lo['V']:,} to V={hi['V']:,}: {flat:.2f}x "
            f"({'flat within 2x — near-linear' if flat < 2.0 else 'NOT flat'})"
        )
    text = "\n".join(lines) + "\n"
    if out is not None:
        out = Path(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        print(f"wrote {out}")
    print(text)
    return rows


if __name__ == "__main__":
    import argparse
    from pathlib import Path

    _parser = argparse.ArgumentParser(
        description="FLB array-kernel V-scaling curve (10^3 .. 10^6 tasks)"
    )
    _parser.add_argument("--max-v", type=int, default=1_000_000)
    _parser.add_argument("--procs", type=int, default=16)
    _parser.add_argument(
        "-o", "--output",
        default=str(Path(__file__).resolve().parents[1] / "results" / "scaling.txt"),
    )
    _args = _parser.parse_args()
    run_scaling_curve(
        max_v=_args.max_v, procs=_args.procs, out=_args.output,
    )
