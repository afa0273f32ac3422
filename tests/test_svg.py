"""Tests for the SVG Gantt renderer."""

import xml.dom.minidom

import pytest

from repro.core import flb
from repro.machine import MachineModel
from repro.schedule import render_gantt_svg, save_gantt_svg
from repro.schedulers import mcp_insertion
from repro.util.rng import make_rng
from repro.workloads import independent_tasks, lu, paper_example


def svg_for(graph, procs=2):
    return render_gantt_svg(flb(graph, MachineModel(procs)))


class TestSvgGantt:
    def test_well_formed_xml(self):
        doc = xml.dom.minidom.parseString(svg_for(paper_example()))
        assert doc.documentElement.tagName == "svg"

    def test_one_rect_per_task_plus_lanes(self):
        g = paper_example()
        svg = svg_for(g)
        doc = xml.dom.minidom.parseString(svg)
        rects = doc.getElementsByTagName("rect")
        # background + 2 lanes + 8 tasks
        assert len(rects) == 1 + 2 + g.num_tasks

    def test_tooltips_carry_times(self):
        svg = svg_for(paper_example())
        assert "<title>t0: [0, 2) on P0" in svg
        assert "t7: [12, 14) on P0" in svg

    def test_critical_tasks_highlighted(self):
        svg = svg_for(paper_example())
        assert "(critical)" in svg
        assert "#c0392b" in svg

    def test_highlight_disabled(self):
        s = flb(paper_example(), MachineModel(2))
        svg = render_gantt_svg(s, highlight_critical=False)
        assert "(critical)" not in svg

    def test_escapes_names(self):
        from repro.graph import TaskGraph

        g = TaskGraph()
        g.add_task(1.0, name="a<b&c")
        g.freeze()
        svg = render_gantt_svg(flb(g, MachineModel(1)))
        assert "a&lt;b&amp;c" in svg
        xml.dom.minidom.parseString(svg)

    def test_inserted_schedule_renders(self):
        g = lu(7, make_rng(0), ccr=5.0)
        svg = render_gantt_svg(mcp_insertion(g, MachineModel(3)))
        xml.dom.minidom.parseString(svg)

    def test_width_validation(self):
        s = flb(paper_example(), MachineModel(2))
        with pytest.raises(ValueError):
            render_gantt_svg(s, width=50)

    def test_save(self, tmp_path):
        s = flb(independent_tasks(4), MachineModel(2))
        path = tmp_path / "gantt.svg"
        save_gantt_svg(s, path, width=400)
        assert path.read_text().startswith("<svg")

    def test_axis_labels_present(self):
        s = flb(paper_example(), MachineModel(2))
        svg = render_gantt_svg(s)
        assert ">14<" in svg  # makespan tick
        assert ">0<" in svg
