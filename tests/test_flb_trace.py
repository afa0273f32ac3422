"""Exact reproduction of the paper's Table 1 (FLB execution trace).

These tests pin every row of the published trace: the contents and order of
the per-processor EP lists (with their EMT / bottom-level / LMT
annotations), the non-EP list, and each placement decision.
"""

import pytest

from repro.core import TraceRecorder, flb, format_trace
from repro.machine import MachineModel
from repro.workloads import paper_example


@pytest.fixture(scope="module")
def trace():
    g = paper_example()
    recorder = TraceRecorder(g)
    flb(g, MachineModel(2), observer=recorder)
    return recorder


def ep_list(row, proc):
    return [(e.task, e.emt, e.bottom_level, e.lmt) for e in row.ep_tasks.get(proc, [])]


class TestTable1Rows:
    def test_row_count(self, trace):
        assert len(trace.rows) == 8

    def test_iteration_0(self, trace):
        row = trace.rows[0]
        assert row.ep_tasks == {}
        assert row.non_ep_tasks == [(0, 0.0)]
        assert (row.task, row.proc, row.start, row.finish) == (0, 0, 0.0, 2.0)
        assert not row.is_ep

    def test_iteration_1(self, trace):
        row = trace.rows[1]
        # EP on p0: t3[2; 12/3], t1[2; 11/3], t2[2; 9/6] in that order.
        assert ep_list(row, 0) == [
            (3, 2.0, 12.0, 3.0),
            (1, 2.0, 11.0, 3.0),
            (2, 2.0, 9.0, 6.0),
        ]
        assert ep_list(row, 1) == []
        assert row.non_ep_tasks == []
        assert (row.task, row.proc, row.start, row.finish) == (3, 0, 2.0, 5.0)
        assert row.is_ep

    def test_iteration_2(self, trace):
        row = trace.rows[2]
        # t1 demoted to non-EP (PRT(p0)=5 > LMT(t1)=3).
        assert ep_list(row, 0) == [(2, 2.0, 9.0, 6.0)]
        assert row.non_ep_tasks == [(1, 3.0)]
        assert (row.task, row.proc, row.start, row.finish) == (1, 1, 3.0, 5.0)
        assert not row.is_ep

    def test_iteration_3(self, trace):
        row = trace.rows[3]
        # t4 enabled by p1, t5 by p0 (the paper's EP tie-break).
        assert ep_list(row, 0) == [(2, 2.0, 9.0, 6.0), (5, 6.0, 8.0, 6.0)]
        assert ep_list(row, 1) == [(4, 5.0, 6.0, 7.0)]
        assert row.non_ep_tasks == []
        assert (row.task, row.proc, row.start, row.finish) == (2, 0, 5.0, 7.0)
        assert row.is_ep

    def test_iteration_4(self, trace):
        row = trace.rows[4]
        # t5 demoted (PRT(p0)=7 > 6); t6 newly ready, EP on p0.
        assert ep_list(row, 0) == [(6, 7.0, 6.0, 8.0)]
        assert ep_list(row, 1) == [(4, 5.0, 6.0, 7.0)]
        assert row.non_ep_tasks == [(5, 6.0)]
        assert (row.task, row.proc, row.start, row.finish) == (4, 1, 5.0, 8.0)
        assert row.is_ep

    def test_iteration_5(self, trace):
        row = trace.rows[5]
        assert ep_list(row, 0) == [(6, 7.0, 6.0, 8.0)]
        assert ep_list(row, 1) == []
        assert row.non_ep_tasks == [(5, 6.0)]
        # EP candidate t6 and non-EP candidate t5 both start at 7; the
        # non-EP task is preferred.
        assert (row.task, row.proc, row.start, row.finish) == (5, 0, 7.0, 10.0)
        assert not row.is_ep

    def test_iteration_6(self, trace):
        row = trace.rows[6]
        # t6 demoted (PRT(p0)=10 > LMT 8); scheduled on earliest-idle p1.
        assert row.ep_tasks == {}
        assert row.non_ep_tasks == [(6, 8.0)]
        assert (row.task, row.proc, row.start, row.finish) == (6, 1, 8.0, 10.0)

    def test_iteration_7(self, trace):
        row = trace.rows[7]
        assert ep_list(row, 0) == [(7, 12.0, 2.0, 13.0)]
        assert row.non_ep_tasks == []
        assert (row.task, row.proc, row.start, row.finish) == (7, 0, 12.0, 14.0)
        assert row.is_ep


class TestRendering:
    def test_format_trace_matches_paper_annotations(self, trace):
        text = format_trace(trace)
        # Spot-check the annotated cells against Table 1 in the paper.
        assert "t3[2;12/3]" in text
        assert "t1[2;11/3]" in text
        assert "t2[2;9/6]" in text
        assert "t4[5;6/7]" in text
        assert "t5[6;8/6]" in text
        assert "t6[7;6/8]" in text
        assert "t7[12;2/13]" in text
        assert "t0 -> p0, [0 - 2]" in text
        assert "t7 -> p0, [12 - 14]" in text

    def test_format_trace_explicit_procs(self, trace):
        text = format_trace(trace, procs=[1, 0])
        assert text.index("EP tasks on p1") < text.index("EP tasks on p0")

    def test_format_trace_headers(self, trace):
        lines = format_trace(trace).splitlines()
        assert "non-EP tasks" in lines[0]
        assert "scheduling" in lines[0]
