"""Tests for the graph linter (repro.verify.graphlint)."""

import pytest

from repro.exceptions import CycleError, GraphError
from repro.graph.io import raw_graph_data
from repro.graph.taskgraph import TaskGraph
from repro.verify import find_cycle, lint, lint_data, rule_catalogue
from repro.verify.graphlint import ERROR, INFO, WARNING
from repro.workloads.gallery import paper_example, simple_diamond, two_chains


def codes(report):
    return set(report.codes())


class TestFindCycle:
    def test_acyclic_returns_none(self):
        assert find_cycle(3, [(0, 1), (1, 2)]) is None

    def test_simple_cycle_witness(self):
        witness = find_cycle(3, [(0, 1), (1, 2), (2, 0)])
        assert witness is not None
        assert witness[0] == witness[-1]
        # The witness is a real closed walk along graph edges.
        edges = {(0, 1), (1, 2), (2, 0)}
        for a, b in zip(witness, witness[1:]):
            assert (a, b) in edges

    def test_self_loop_witness(self):
        assert find_cycle(2, [(1, 1)]) == [1, 1]

    def test_cycle_off_the_main_path(self):
        # DAG prefix feeding a cycle deeper in: 0->1->2->3->2.
        witness = find_cycle(4, [(0, 1), (1, 2), (2, 3), (3, 2)])
        assert witness is not None
        assert set(witness) == {2, 3}

    def test_out_of_range_edges_ignored(self):
        assert find_cycle(2, [(0, 5), (-1, 1)]) is None

    def test_empty_graph(self):
        assert find_cycle(0, []) is None


class TestCycleErrorWitness:
    def test_freeze_names_a_real_cycle(self):
        g = TaskGraph()
        for name in "abc":
            g.add_task(1.0, name=name)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 0, 1.0)
        with pytest.raises(CycleError) as exc:
            g.freeze()
        msg = str(exc.value)
        # The error names the actual cycle path, not just "stuck" tasks.
        assert "->" in msg
        assert "a" in msg and "b" in msg and "c" in msg

    def test_freeze_witness_with_dag_prefix(self):
        g = TaskGraph()
        for _ in range(5):
            g.add_task(1.0)
        g.add_edge(0, 1, 1.0)  # honest DAG prefix
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 3, 1.0)
        g.add_edge(3, 4, 1.0)
        g.add_edge(4, 2, 1.0)  # cycle 2->3->4->2
        with pytest.raises(CycleError) as exc:
            g.freeze()
        msg = str(exc.value)
        assert "t0" not in msg and "t1" not in msg


class TestRules:
    def test_clean_graphs(self):
        for g in (paper_example(), simple_diamond()):
            report = lint(g)
            assert report.ok()
            assert report.ok(strict=True)
            assert report.issues == ()

    def test_g001_cycle(self):
        report = lint_data([1.0, 1.0], [(0, 1, 1.0), (1, 0, 1.0)])
        assert "G001" in codes(report)
        assert not report.ok()

    def test_g002_self_edge(self):
        report = lint_data([1.0, 1.0], [(1, 1, 0.5)])
        assert "G002" in codes(report)

    def test_g003_duplicate_edge(self):
        report = lint_data([1.0, 1.0], [(0, 1, 1.0), (0, 1, 2.0)])
        assert "G003" in codes(report)

    @pytest.mark.parametrize("comp", [0.0, -1.0, float("nan"), float("inf")])
    def test_g004_bad_comp(self, comp):
        report = lint_data([1.0, comp], [(0, 1, 1.0)])
        issues = [i for i in report.issues if i.code == "G004"]
        assert issues and issues[0].severity == ERROR
        assert 1 in issues[0].tasks

    @pytest.mark.parametrize("comm", [-1.0, float("nan"), float("inf")])
    def test_g005_bad_comm(self, comm):
        report = lint_data([1.0, 1.0], [(0, 1, comm)])
        assert "G005" in codes(report)

    def test_g006_isolated_task(self):
        report = lint_data([1.0, 1.0, 1.0], [(0, 1, 1.0)])
        issues = [i for i in report.issues if i.code == "G006"]
        assert issues and issues[0].severity == WARNING
        assert issues[0].tasks == (2,)
        # Warnings do not fail the default gate but do fail strict.
        assert report.ok()
        assert not report.ok(strict=True)

    def test_g006_not_fired_for_edge_free_graph(self):
        # A bag of independent tasks is unusual but coherent; flagging
        # every task would be noise.
        report = lint_data([1.0, 1.0, 1.0], [])
        assert "G006" not in codes(report)

    def test_g007_components(self):
        report = lint(two_chains())
        assert "G007" in codes(report)
        assert report.ok()  # warning only

    def test_g008_zero_cost_source(self):
        report = lint_data(
            [1.0, 1.0, 1.0],
            [(0, 1, 0.0), (0, 2, 0.0), (1, 2, 3.0)],
        )
        issues = [i for i in report.issues if i.code == "G008"]
        assert issues and issues[0].severity == INFO
        assert 0 in issues[0].tasks

    def test_g008_zero_cost_sink(self):
        report = lint_data(
            [1.0, 1.0, 1.0],
            [(0, 1, 3.0), (0, 2, 0.0), (1, 2, 0.0)],
        )
        assert any(
            i.code == "G008" and 2 in i.tasks for i in report.issues
        )

    def test_g009_extreme_ccr(self):
        report = lint_data([1.0, 1.0], [(0, 1, 500.0)])
        assert "G009" in codes(report)

    def test_g009_outlier_edge(self):
        edges = [*((0, i, 1.0) for i in range(1, 40)), (0, 40, 100000.0)]
        report = lint_data([1.0] * 41, edges)
        issues = [i for i in report.issues if i.code == "G009"]
        assert any("outlier" in i.message for i in issues)


class TestReport:
    def test_catalogue_covers_all_codes(self):
        cat = rule_catalogue()
        assert [r.code for r in cat] == sorted(r.code for r in cat)
        assert {r.code for r in cat} >= {
            "G001", "G002", "G003", "G004", "G005",
            "G006", "G007", "G008", "G009",
        }
        assert all(r.severity in (ERROR, WARNING, INFO) for r in cat)

    def test_to_dict_shape(self):
        report = lint_data([1.0, 1.0], [(0, 1, float("nan"))])
        doc = report.to_dict()
        assert doc["ok"] is False
        assert doc["num_tasks"] == 2
        assert doc["num_edges"] == 1
        assert doc["issues"][0]["code"] == "G005"
        assert isinstance(doc["issues"][0]["tasks"], list)

    def test_render_mentions_codes(self):
        report = lint_data([1.0, -1.0], [(0, 1, 1.0)])
        text = report.render()
        assert "G004" in text and "error" in text

    def test_nan_comm_rejected_by_taskgraph(self):
        # add_edge rejects NaN outright; raw data that never reaches a
        # TaskGraph still gets G005 from lint_data.
        g = TaskGraph()
        g.add_task(1.0)
        g.add_task(1.0)
        with pytest.raises(GraphError, match="finite"):
            g.add_edge(0, 1, float("nan"))
        assert "G005" in codes(lint_data([1.0, 1.0], [(0, 1, float("nan"))]))


class TestRawGraphData:
    def test_roundtrip_of_valid_doc(self):
        from repro.graph.io import to_json

        g = paper_example()
        comps, edges, names = raw_graph_data(to_json(g))
        assert len(comps) == g.num_tasks
        assert len(edges) == g.num_edges
        assert lint_data(comps, edges, names).ok()

    def test_malformed_doc_still_lintable(self):
        doc = {
            "format": "repro-taskgraph",
            "version": 1,
            "tasks": [
                {"id": 0, "comp": 1.0},
                {"id": 1, "comp": -2.0},
            ],
            "edges": [
                {"src": 0, "dst": 1, "comm": 1.0},
                {"src": 0, "dst": 1, "comm": 1.0},
                {"src": 1, "dst": 0, "comm": 2.0},
            ],
        }
        import json

        comps, edges, names = raw_graph_data(json.dumps(doc))
        report = lint_data(comps, edges, names)
        assert {"G001", "G003", "G004"} <= codes(report)

    def test_unreadable_doc_raises(self):
        from repro.exceptions import GraphError

        with pytest.raises(GraphError):
            raw_graph_data("not json at all {")
        with pytest.raises(GraphError):
            raw_graph_data('{"format": "something-else"}')


class TestLintWorkloads:
    @pytest.mark.parametrize("problem", ["lu", "fft", "stencil", "cholesky"])
    def test_generated_workloads_are_clean(self, problem):
        from repro.cli import _build_problem

        report = lint(_build_problem(problem, 150, 1.0, 0))
        assert report.errors == ()
