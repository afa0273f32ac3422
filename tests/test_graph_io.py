"""Tests for task-graph serialisation (JSON / TG text / DOT)."""

import pytest

from repro.exceptions import GraphError
from repro.graph import (
    from_json,
    from_tg_text,
    load_json,
    save_json,
    to_dot,
    to_json,
    to_tg_text,
)
from repro.util.rng import make_rng
from repro.workloads import erdos_dag, paper_example


def graphs_equal(a, b) -> bool:
    if a.num_tasks != b.num_tasks or a.num_edges != b.num_edges:
        return False
    for t in a.tasks():
        if a.comp(t) != b.comp(t) or a.name(t) != b.name(t):
            return False
    return set(a.edges()) == set(b.edges())


class TestJson:
    def test_roundtrip_paper_example(self):
        g = paper_example()
        assert graphs_equal(g, from_json(to_json(g)))

    def test_roundtrip_random(self):
        g = erdos_dag(25, 0.2, make_rng(5), ccr=3.0)
        assert graphs_equal(g, from_json(to_json(g)))

    def test_file_roundtrip(self, tmp_path):
        g = paper_example()
        path = tmp_path / "g.json"
        save_json(g, path)
        assert graphs_equal(g, load_json(path))

    def test_rejects_garbage(self):
        with pytest.raises(GraphError):
            from_json("not json at all {")
        with pytest.raises(GraphError):
            from_json('{"format": "something-else"}')

    def test_rejects_sparse_ids(self):
        doc = (
            '{"format": "repro-taskgraph", "version": 1,'
            ' "tasks": [{"id": 0, "comp": 1.0}, {"id": 2, "comp": 1.0}],'
            ' "edges": []}'
        )
        with pytest.raises(GraphError):
            from_json(doc)


    @pytest.mark.parametrize("comp,comm", [
        ("NaN", "1.0"), ("Infinity", "1.0"), ("1.0", "NaN"), ("1.0", "Infinity"),
    ])
    def test_rejects_non_finite_literals(self, comp, comm):
        # json.loads accepts NaN/Infinity; the graph constructor must not.
        doc = (
            '{"format": "repro-taskgraph", "version": 1,'
            f' "tasks": [{{"id": 0, "comp": {comp}}}, {{"id": 1, "comp": 1.0}}],'
            f' "edges": [{{"src": 0, "dst": 1, "comm": {comm}}}]}}'
        )
        with pytest.raises(GraphError, match="finite"):
            from_json(doc)


class TestTgText:
    def test_roundtrip(self):
        g = paper_example()
        assert graphs_equal(g, from_tg_text(to_tg_text(g)))

    def test_comments_and_blanks_ignored(self):
        text = """
        # a fixture
        t 0 1.5 first
        t 1 2.5 second

        e 0 1 0.5
        """
        g = from_tg_text(text)
        assert g.num_tasks == 2
        assert g.comp(0) == 1.5
        assert g.name(1) == "second"
        assert g.comm(0, 1) == 0.5

    def test_duplicate_task_rejected(self):
        with pytest.raises(GraphError):
            from_tg_text("t 0 1.0\nt 0 2.0\n")

    def test_malformed_rejected(self):
        with pytest.raises(GraphError):
            from_tg_text("t zero 1.0\n")
        with pytest.raises(GraphError):
            from_tg_text("x 0 1.0\n")
        with pytest.raises(GraphError):
            from_tg_text("t 0\n")

    def test_sparse_ids_rejected(self):
        with pytest.raises(GraphError):
            from_tg_text("t 1 1.0\n")


class TestDot:
    def test_contains_nodes_and_edges(self):
        dot = to_dot(paper_example())
        assert dot.startswith("digraph")
        assert '"t0' in dot
        assert "0 -> 1" in dot
        assert dot.rstrip().endswith("}")
