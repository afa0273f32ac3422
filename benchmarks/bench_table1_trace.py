"""Table 1 — FLB execution trace on the Fig. 1 example graph (P = 2).

Benchmarks FLB on the paper's 8-task example and verifies, inside the
benchmark file itself, that the recorded trace matches the published Table 1
row for row (the exhaustive per-cell checks live in
``tests/test_flb_trace.py``).
"""


from repro.bench import run_table1
from repro.core import TraceRecorder, flb
from repro.machine import MachineModel
from repro.workloads import paper_example

#: (task, proc, start, finish) per iteration, transcribed from Table 1.
TABLE1_PLACEMENTS = [
    (0, 0, 0.0, 2.0),
    (3, 0, 2.0, 5.0),
    (1, 1, 3.0, 5.0),
    (2, 0, 5.0, 7.0),
    (4, 1, 5.0, 8.0),
    (5, 0, 7.0, 10.0),
    (6, 1, 8.0, 10.0),
    (7, 0, 12.0, 14.0),
]


def test_table1_placements_reproduced():
    report = run_table1()
    assert report.data["placements"] == TABLE1_PLACEMENTS
    assert report.data["makespan"] == 14.0


def test_table1_report_renders():
    report = run_table1()
    assert "t7 -> p0, [12 - 14]" in report.text
    assert "makespan 14" in report.text


def bench_flb_paper_example(benchmark):
    graph = paper_example()
    schedule = benchmark(flb, graph, MachineModel(2))
    assert schedule.makespan == 14.0


def bench_flb_paper_example_with_trace(benchmark):
    graph = paper_example()

    def run():
        recorder = TraceRecorder(graph)
        flb(graph, MachineModel(2), observer=recorder)
        return recorder

    recorder = benchmark(run)
    assert len(recorder.rows) == 8
