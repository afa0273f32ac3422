"""Tests for task-graph serialisation (JSON / TG text / DOT)."""

import json

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
from repro.graph.io import raw_graph_data
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


def _doc():
    return {
        "format": "repro-taskgraph", "version": 1,
        "tasks": [{"id": 0, "comp": 1.0, "name": "a"},
                  {"id": 1, "comp": 2.0, "name": "b"}],
        "edges": [{"src": 0, "dst": 1, "comm": 0.5}],
    }


def _set(section, index, field, value):
    def mutate(doc):
        doc[section][index][field] = value
    return mutate


def _drop(section, index, field):
    def mutate(doc):
        del doc[section][index][field]
    return mutate


def _replace(section, value):
    def mutate(doc):
        doc[section] = value
    return mutate


def _entry(section, index, value):
    def mutate(doc):
        doc[section][index] = value
    return mutate


#: Malformed documents and the text their GraphError must carry (the
#: field and the entry index).  Each used to escape as KeyError/TypeError/
#: AttributeError or be silently coerced into a different graph.
MALFORMED = {
    "task without comp": (_drop("tasks", 1, "comp"), "tasks[1] has no 'comp'"),
    "task without id": (_drop("tasks", 0, "id"), "tasks[0] has no 'id'"),
    "edge without comm": (_drop("edges", 0, "comm"), "edges[0] has no 'comm'"),
    "tasks not a list": (_replace("tasks", {"id": 0}), "'tasks' must be a list"),
    "edges not a list": (_replace("edges", "0->1"), "'edges' must be a list"),
    "task not an object": (_entry("tasks", 1, [1, 2.0]), "tasks[1] must be an object"),
    "edge not an object": (_entry("edges", 0, 7), "edges[0] must be an object"),
    "integer name": (_set("tasks", 1, "name", 5), "tasks[1]: 'name' must be a string or null"),
    "float id": (_set("tasks", 1, "id", 1.7), "tasks[1]: 'id' must be an integer, got 1.7"),
    "float src": (_set("edges", 0, "src", 0.9), "edges[0]: 'src' must be an integer, got 0.9"),
    "bool dst": (_set("edges", 0, "dst", True), "edges[0]: 'dst' must be an integer, got true"),
    "string comp": (_set("tasks", 0, "comp", "2"), "tasks[0]: 'comp' must be a number, got \"2\""),
    "bool comp": (_set("tasks", 1, "comp", True), "tasks[1]: 'comp' must be a number, got true"),
    "null comm": (_set("edges", 0, "comm", None), "edges[0]: 'comm' must be a number, got null"),
    "huge id": (_set("tasks", 1, "id", 10**30), "task ids must be dense"),
    "huge src": (_set("edges", 0, "src", 10**30), "integer task ids"),
}


class TestStrictDocuments:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_document_is_a_named_error(self, case):
        mutate, message = MALFORMED[case]
        doc = _doc()
        mutate(doc)
        for source in (doc, json.dumps(doc)):
            with pytest.raises(GraphError) as exc:
                from_json(source)
            assert message in str(exc.value)

    def test_parsed_document_equals_text(self):
        g = erdos_dag(25, 0.2, make_rng(5), ccr=3.0)
        text = to_json(g)
        assert from_json(json.loads(text)).fingerprint() == from_json(text).fingerprint()

    def test_integral_comp_accepted_as_number(self):
        doc = _doc()
        doc["tasks"][1]["comp"] = 2
        assert from_json(doc).comp(1) == 2.0

    def test_unordered_ids_are_reordered(self):
        doc = _doc()
        doc["tasks"].reverse()
        g = from_json(doc)
        assert [g.name(t) for t in g.tasks()] == ["a", "b"]
        assert g.comps == (1.0, 2.0)

    def test_raw_graph_data_stays_tolerant(self):
        doc = _doc()
        doc["tasks"][1]["comp"] = "2"
        doc["edges"][0]["src"] = 0.9
        comps, edges, names = raw_graph_data(json.dumps(doc))
        assert comps == [1.0, 2.0] and edges == [(0, 1, 0.5)]


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
