"""The bulk graph-ingest path: ``TaskGraph.from_arrays`` and every reader
built on it (``from_json`` on text or a parsed document, ``from_tg_text``,
``graphstore.decode_graph``).

Three properties are pinned here:

* **equivalence** — every bulk reader builds exactly the graph the
  per-edge ``add_task``/``add_edge``/``freeze`` path builds (content,
  ``edges()`` order and float sum, CSR, topological order, fingerprint,
  copies, FLB schedule), in the same frozen form: the edge arrays, with
  the edge dict and tuple views left to first use;
* **error parity** — a defective input raises the same exception class and
  message through the bulk path as through the per-edge path;
* **the fingerprint is unchanged** — the batched digest equals the
  per-edge reference implementation below, byte for byte.

The ``perfgate`` test holds the ingest budget: building and fingerprinting
a V=2000 graph from its parsed document costs no more than scheduling it.
"""

import hashlib
import json
import math
import statistics
import struct

import numpy as np
import pytest

from repro.bench.perfgate import paired_rounds
from repro.bench.suite import paper_suite
from repro.core.flb_array import flb_array
from repro.exceptions import CycleError, GraphError
from repro.graph.io import from_json, from_tg_text, to_json, to_tg_text
from repro.graph.taskgraph import TaskGraph
from repro.graphstore import GraphStore, decode_graph, encode_graph
from repro.machine.model import MachineModel
from repro.util.rng import make_rng
from repro.verify import certify
from repro.workloads import erdos_dag, paper_example, stencil, stencil_size_for_tasks


def reference_fingerprint(graph):
    """The per-edge digest loop ``TaskGraph.fingerprint`` used to run."""
    h = hashlib.blake2b(digest_size=16)
    n = graph.num_tasks
    h.update(b"repro-taskgraph-v1")
    h.update(struct.pack("<Q", n))
    h.update(struct.pack(f"<{n}d", *graph.comps))
    for t in range(n):
        name = graph.name(t).encode()
        h.update(struct.pack("<I", len(name)))
        h.update(name)
    h.update(struct.pack("<Q", graph.num_edges))
    for src, dst, comm in sorted(graph.edges()):
        h.update(struct.pack("<QQd", src, dst, comm))
    return h.hexdigest()


def per_edge_graph(comps, names, edges):
    """The graph built one ``add_task``/``add_edge`` call at a time."""
    g = TaskGraph()
    for comp, name in zip(comps, names):
        g.add_task(comp, name=name)
    for src, dst, comm in edges:
        g.add_edge(src, dst, comm)
    return g.freeze()


def per_edge_from_doc(doc):
    """A repro-taskgraph document read one entry at a time."""
    tasks = doc.get("tasks", [])
    by_id = {int(entry["id"]): entry for entry in tasks}
    if sorted(by_id) != list(range(len(tasks))):
        raise GraphError("task ids must be dense 0..V-1")
    entries = [by_id[t] for t in range(len(tasks))]
    return per_edge_graph(
        [float(e["comp"]) for e in entries],
        [e.get("name") for e in entries],
        [(e["src"], e["dst"], float(e["comm"])) for e in doc.get("edges", [])],
    )


def _graphs():
    graphs = [("paper_example", paper_example())]
    for seed in range(3):
        graphs.append((f"erdos_dag/{seed}",
                       erdos_dag(40, 0.15, make_rng(seed), ccr=2.0)))
    for inst in paper_suite(120, seeds=2):
        graphs.append((f"{inst.problem}/ccr{inst.ccr}/{inst.seed_index}",
                       inst.graph))
    return graphs


GRAPHS = _graphs()


def _readers(g):
    text = to_json(g)
    return {
        "from_json(text)": from_json(text),
        "from_json(doc)": from_json(json.loads(text)),
        "from_tg_text": from_tg_text(to_tg_text(g)),
        "decode_graph": decode_graph(encode_graph(g)),
    }


def _assert_same_graph(got, want, copies=True):
    assert got.frozen
    assert got.comps == want.comps
    assert [got.name(t) for t in got.tasks()] == [want.name(t) for t in want.tasks()]
    assert list(got.edges()) == list(want.edges())
    assert got.num_edges == want.num_edges
    assert got.total_comm() == want.total_comm()
    for src, dst, comm in want.edges():
        assert got.has_edge(src, dst) and got.comm(src, dst) == comm
    for field in ("pred_ptr", "pred_ids", "pred_comm",
                  "succ_ptr", "succ_ids", "succ_comm"):
        assert np.array_equal(getattr(got.csr(), field),
                              getattr(want.csr(), field)), field
    assert [got.succs(t) for t in got.tasks()] == [want.succs(t) for t in want.tasks()]
    assert [got.preds(t) for t in got.tasks()] == [want.preds(t) for t in want.tasks()]
    assert got.topological_order == want.topological_order
    assert got.entry_tasks == want.entry_tasks
    assert got.exit_tasks == want.exit_tasks
    assert got.fingerprint() == want.fingerprint()
    if copies:
        for clone in (got.copy(), got.copy(mutable=True).freeze()):
            _assert_same_graph(clone, want, copies=False)


class TestBulkReadersMatchPerEdgeBuild:
    @pytest.mark.parametrize("label,graph", GRAPHS, ids=[label for label, _ in GRAPHS])
    def test_every_reader_builds_the_per_edge_graph(self, label, graph):
        edges = list(graph.edges())
        want = per_edge_graph(graph.comps, graph._names, edges)
        # The graph codec stores the successor CSR, so a decoded graph's
        # edges come back in (src, dst) order.
        want_decoded = per_edge_graph(graph.comps, graph._names, sorted(edges))
        machine = MachineModel(4)
        reference = flb_array(want, machine=machine)
        for reader, got in _readers(graph).items():
            _assert_same_graph(got, want_decoded if reader == "decode_graph" else want)
            schedule = flb_array(got, machine=machine)
            assert schedule.makespan == reference.makespan, reader
            for t in want.tasks():
                assert (schedule.proc_of(t), schedule.start_of(t),
                        schedule.finish_of(t)) == (
                    reference.proc_of(t), reference.start_of(t),
                    reference.finish_of(t)), (reader, t)

    def test_from_arrays_keeps_edge_insertion_order(self):
        g = TaskGraph.from_arrays([1.0, 2.0, 3.0], [1, 0], [2, 1], [0.5, 0.25])
        assert list(g.edges()) == [(1, 2, 0.5), (0, 1, 0.25)]
        assert g.comm(0, 1) == 0.25 and g.has_edge(1, 2)

    def test_unnamed_tasks_stay_unnamed(self):
        g = TaskGraph.from_arrays([1.0, 1.0], [0], [1], [0.0], [None, "b"])
        assert g._names == [None, "b"]
        assert g.name(0) == "t0"

    def test_edgeless_graph(self):
        g = TaskGraph.from_arrays([1.0, 2.0], [], [], [])
        assert g.num_edges == 0
        assert g.entry_tasks == g.exit_tasks == (0, 1)
        assert g.fingerprint() == reference_fingerprint(g)


class TestOneFrozenRepresentation:
    def test_inline_request_path_builds_no_views(self):
        # The inline request: ingest, fingerprint, publish, FLB and its
        # certificate read arrays only; nothing builds the edge dictionary
        # or the per-task tuples.
        doc = json.loads(to_json(stencil(*stencil_size_for_tasks(300), make_rng(0))))
        graph = from_json(doc)
        with GraphStore() as store:
            store.register(graph, fingerprint=graph.fingerprint())
            schedule = flb_array(graph, machine=MachineModel(8))
            assert certify(schedule, "flb").ok
        assert graph._edges is None
        assert graph._succs is None and graph._preds is None

    def test_builder_freezes_to_the_from_arrays_state(self):
        g = paper_example()
        built = per_edge_graph(g.comps, g._names, list(g.edges()))
        bulk = TaskGraph.from_arrays(g.comps, *map(list, zip(*g.edges())), g._names)
        for graph in (built, bulk):
            assert graph._edges is None
            assert graph._succs is None and graph._preds is None
        for a, b in zip(built.edge_arrays(), bulk.edge_arrays()):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert built.succs(0) == bulk.succs(0) and built._succs is not None
        assert built.comm(0, 1) == bulk.comm(0, 1) and built._edges is not None

    def test_the_graph_owns_its_arrays(self):
        comps = np.array([1.0, 2.0, 3.0])
        src = np.array([0, 1], dtype=np.int64)
        dst = np.array([1, 2], dtype=np.int64)
        comm = np.array([0.5, 0.25])
        g = TaskGraph.from_arrays(comps, src, dst, comm)
        for given, kept in zip((src, dst, comm), g.edge_arrays()):
            assert not np.shares_memory(given, kept)
        assert not np.shares_memory(comps, g.comps_array())
        src[0], comm[0], comps[0] = 2, 9.0, 9.0
        assert list(g.edges()) == [(0, 1, 0.5), (1, 2, 0.25)]
        assert g.comps == (1.0, 2.0, 3.0)


class TestFingerprintMatchesPerEdgeDigest:
    @pytest.mark.parametrize("label,graph", GRAPHS, ids=[label for label, _ in GRAPHS])
    def test_frozen_and_mutable(self, label, graph):
        assert graph.fingerprint() == reference_fingerprint(graph)
        mutable = graph.copy(mutable=True)
        assert not mutable.frozen
        assert mutable.fingerprint() == reference_fingerprint(graph)

    def test_non_ascii_and_default_names(self):
        g = TaskGraph()
        g.add_task(1.5, name="Зада́ча")
        g.add_task(2.5)
        g.add_task(0.5, name="")
        g.add_task(1.0, name="tâche-✓")
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 0.0)
        assert g.fingerprint() == reference_fingerprint(g)
        assert g.freeze().fingerprint() == reference_fingerprint(g)

    def test_empty_mutable_graph(self):
        g = TaskGraph()
        assert g.fingerprint() == reference_fingerprint(g)


def _base_doc():
    return {
        "format": "repro-taskgraph", "version": 1,
        "tasks": [{"id": t, "comp": 1.0 + t, "name": f"n{t}"} for t in range(5)],
        "edges": [{"src": 0, "dst": 1, "comm": 0.5},
                  {"src": 0, "dst": 2, "comm": 1.5},
                  {"src": 1, "dst": 3, "comm": 2.0},
                  {"src": 2, "dst": 3, "comm": 0.0},
                  {"src": 3, "dst": 4, "comm": 1.0}],
    }


def _defect(path, value):
    def mutate(doc):
        section, index, field = path
        doc[section][index][field] = value
    return mutate


def _append_edge(src, dst, comm):
    def mutate(doc):
        doc["edges"].append({"src": src, "dst": dst, "comm": comm})
    return mutate


SINGLE_DEFECTS = {
    "zero comp": _defect(("tasks", 2, "comp"), 0.0),
    "negative comp": _defect(("tasks", 4, "comp"), -1.5),
    "nan comp": _defect(("tasks", 1, "comp"), math.nan),
    "inf comp": _defect(("tasks", 0, "comp"), math.inf),
    "nan comm": _defect(("edges", 3, "comm"), math.nan),
    "inf comm": _defect(("edges", 1, "comm"), math.inf),
    "negative comm": _defect(("edges", 2, "comm"), -0.5),
    "unknown src": _defect(("edges", 2, "src"), 99),
    "unknown dst": _defect(("edges", 4, "dst"), -1),
    "self-loop": _defect(("edges", 1, "dst"), 0),
    "duplicate edge": _append_edge(1, 3, 7.0),
    "sparse ids": _defect(("tasks", 4, "id"), 7),
    "duplicate ids": _defect(("tasks", 3, "id"), 1),
    "cycle": _append_edge(4, 1, 1.0),
    "lone-surrogate name": _defect(("tasks", 3, "name"), "\ud800"),
}


def _outcome(build, *args):
    """``("ok", fingerprint)`` of the built graph, or its error's class and
    message."""
    try:
        return "ok", build(*args).fingerprint()
    except GraphError as exc:
        return type(exc), str(exc)


class TestErrorParity:
    @pytest.mark.parametrize("name", sorted(SINGLE_DEFECTS))
    def test_single_defect_documents(self, name):
        doc = _base_doc()
        SINGLE_DEFECTS[name](doc)
        with pytest.raises(GraphError) as per_edge:
            per_edge_from_doc(doc)
        with pytest.raises(GraphError) as bulk:
            from_json(doc)
        assert type(bulk.value) is type(per_edge.value)
        assert str(bulk.value) == str(per_edge.value)
        with pytest.raises(GraphError) as from_text:
            from_json(json.dumps(doc))
        assert str(from_text.value) == str(per_edge.value)
        if name == "cycle":
            assert isinstance(bulk.value, CycleError)

    def test_first_defect_wins_like_the_per_edge_loop(self):
        # Random arrays with several defects each: the bulk path must
        # report the one the sequential add_task/add_edge calls hit first.
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            comps = rng.choice([1.0, 2.5, 0.0, -1.0, math.nan, math.inf],
                               p=[0.45, 0.45, 0.025, 0.025, 0.025, 0.025],
                               size=n).tolist()
            e = int(rng.integers(0, 8))
            src = rng.integers(-1, n + 1, size=e).tolist()
            dst = rng.integers(-1, n + 1, size=e).tolist()
            comm = rng.choice([0.0, 1.0, -2.0, math.nan, math.inf],
                              p=[0.4, 0.45, 0.05, 0.05, 0.05], size=e).tolist()
            bulk = _outcome(TaskGraph.from_arrays, comps, src, dst, comm)
            per_edge = _outcome(per_edge_graph, comps, [None] * n,
                                list(zip(src, dst, comm)))
            assert bulk == per_edge, (comps, src, dst, comm)

    def test_name_and_length_errors(self):
        with pytest.raises(GraphError, match="names must parallel comps"):
            TaskGraph.from_arrays([1.0, 2.0], [], [], [], ["a"])
        with pytest.raises(GraphError, match="task name must be a string"):
            TaskGraph.from_arrays([1.0], [], [], [], [5])
        with pytest.raises(GraphError, match="task name must be a string"):
            TaskGraph().add_task(1.0, name=5)
        with pytest.raises(GraphError, match="one entry per edge"):
            TaskGraph.from_arrays([1.0, 2.0], [0], [1], [])

    def test_unencodable_names_fail_like_add_task(self):
        # A name with no UTF-8 form is refused, naming the task, by
        # add_task, set_name and from_arrays alike — and from_arrays still
        # reports the defect the per-task loop meets first.
        with pytest.raises(GraphError, match="task 0: name '\\\\ud800' cannot"):
            TaskGraph().add_task(1.0, name="\ud800")
        g = TaskGraph()
        g.add_tasks([1.0, 2.0])
        with pytest.raises(GraphError, match="task 1: name .* UTF-8"):
            g.set_name(1, "a\udfffb")
        assert g.name(1) == "t1"
        cases = [
            ([1.0, 2.0, 3.0], [None, "ok", "\ud800"]),
            ([1.0, -1.0, 3.0], [None, None, "\ud800"]),
            ([1.0, -1.0, 3.0], ["\ud800", None, None]),
            ([1.0, 2.0], [5, "\ud800"]),
            ([1.0, 2.0], ["\ud800", 5]),
            ([1.0, 2.0, 3.0], ["é", "\x00\ud800", "\udc80"]),
        ]
        for comps, names in cases:
            bulk = _outcome(TaskGraph.from_arrays, comps, [], [], [], names)
            per_edge = _outcome(per_edge_graph, comps, names, [])
            assert bulk == per_edge and bulk[0] is GraphError, (names, bulk)

    def test_float_ids_are_rejected_not_truncated(self):
        with pytest.raises(GraphError, match="integer task ids"):
            TaskGraph.from_arrays([1.0, 2.0], [0.9], [1], [1.0])


@pytest.mark.perfgate
def test_ingest_within_kernel_time():
    """Building and fingerprinting a V=2000 stencil from its parsed
    document costs no more than one FLB run on it, in the median of paired
    rounds.  The kernel arm runs cold, as a request's does: each round
    schedules a graph fresh from ``from_json``, built before the timing
    starts."""
    doc = json.loads(to_json(stencil(*stencil_size_for_tasks(2000), make_rng(0))))
    machine = MachineModel(8)
    rounds = 9
    fresh = iter([from_json(doc) for _ in range(rounds)])
    ratios = paired_rounds(
        lambda: from_json(doc).fingerprint(),
        lambda: flb_array(next(fresh), machine=machine),
        rounds,
    )
    ratio = statistics.median(ratios)
    assert ratio <= 1.0, (
        f"ingest/kernel {ratio:.2f} in the median round "
        f"(rounds {[round(r, 2) for r in ratios]})"
    )
