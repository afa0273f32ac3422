"""Tests for the TaskGraph model."""

import pytest

from repro.exceptions import CycleError, FrozenGraphError, GraphError
from repro.graph import TaskGraph


def diamond() -> TaskGraph:
    """a -> {b, c} -> d."""
    g = TaskGraph()
    a = g.add_task(1.0, name="a")
    b = g.add_task(2.0, name="b")
    c = g.add_task(3.0, name="c")
    d = g.add_task(4.0, name="d")
    g.add_edge(a, b, 1.0)
    g.add_edge(a, c, 2.0)
    g.add_edge(b, d, 3.0)
    g.add_edge(c, d, 4.0)
    return g


class TestConstruction:
    def test_add_task_returns_dense_ids(self):
        g = TaskGraph()
        assert [g.add_task(1.0) for _ in range(4)] == [0, 1, 2, 3]
        assert g.num_tasks == 4

    def test_add_tasks_bulk(self):
        g = TaskGraph()
        assert g.add_tasks([1.0, 2.0, 3.0]) == [0, 1, 2]
        assert g.comps == (1.0, 2.0, 3.0)

    def test_add_tasks_with_names(self):
        g = TaskGraph()
        ids = g.add_tasks([1.0, 2.0], names=["load", "solve"])
        assert [g.name(t) for t in ids] == ["load", "solve"]

    def test_add_tasks_names_length_mismatch(self):
        g = TaskGraph()
        with pytest.raises(GraphError):
            g.add_tasks([1.0, 2.0], names=["only-one"])
        assert g.num_tasks == 0  # a rejected bulk add must not half-apply

    def test_add_tasks_names_accepts_lazy_iterables(self):
        g = TaskGraph()
        ids = g.add_tasks(iter([1.0, 2.0, 3.0]), names=(f"t{i}" for i in range(3)))
        assert [g.name(t) for t in ids] == ["t0", "t1", "t2"]

    def test_comp_must_be_positive(self):
        g = TaskGraph()
        for comp in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(GraphError):
                g.add_task(comp)
        with pytest.raises(GraphError, match="finite"):
            g.add_tasks([1.0, float("inf")])

    def test_comm_must_be_nonnegative(self):
        g = TaskGraph()
        a, b = g.add_task(1.0), g.add_task(1.0)
        g.add_edge(a, b, 0.0)  # zero comm is allowed
        # A NaN comm would let both ends of the edge start at t=0 on
        # different processors, and the certifier cannot see it.
        for comm in (-0.5, float("inf"), float("nan")):
            with pytest.raises(GraphError):
                g.add_edge(b, a, comm)

    def test_self_loop_rejected(self):
        g = TaskGraph()
        a = g.add_task(1.0)
        with pytest.raises(GraphError):
            g.add_edge(a, a, 1.0)

    def test_duplicate_edge_rejected(self):
        g = TaskGraph()
        a, b = g.add_task(1.0), g.add_task(1.0)
        g.add_edge(a, b, 1.0)
        with pytest.raises(GraphError):
            g.add_edge(a, b, 2.0)

    def test_unknown_task_rejected(self):
        g = TaskGraph()
        a = g.add_task(1.0)
        with pytest.raises(GraphError):
            g.add_edge(a, 5, 1.0)

    def test_names(self):
        g = TaskGraph()
        a = g.add_task(1.0, name="alpha")
        b = g.add_task(1.0)
        assert g.name(a) == "alpha"
        assert g.name(b) == "t1"
        g.set_name(b, "beta")
        assert g.name(b) == "beta"


class TestFreeze:
    def test_freeze_idempotent(self):
        g = diamond()
        assert g.freeze() is g
        assert g.freeze() is g
        assert g.frozen

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            TaskGraph().freeze()

    def test_cycle_detected(self):
        g = TaskGraph()
        a, b, c = g.add_task(1.0), g.add_task(1.0), g.add_task(1.0)
        g.add_edge(a, b)
        g.add_edge(b, c)
        g.add_edge(c, a)
        with pytest.raises(CycleError):
            g.freeze()

    def test_mutation_after_freeze_rejected(self):
        g = diamond().freeze()
        with pytest.raises(FrozenGraphError):
            g.add_task(1.0)
        with pytest.raises(FrozenGraphError):
            g.add_edge(0, 3, 1.0)
        with pytest.raises(FrozenGraphError):
            g.set_name(0, "x")

    def test_adjacency_requires_freeze(self):
        g = diamond()
        with pytest.raises(GraphError):
            g.succs(0)
        g.freeze()
        assert g.succs(0) == (1, 2)
        assert g.preds(3) == (1, 2)

    def test_topological_order_valid(self):
        g = diamond().freeze()
        order = g.topological_order
        pos = {t: i for i, t in enumerate(order)}
        for src, dst, _ in g.edges():
            assert pos[src] < pos[dst]

    def test_entry_exit(self):
        g = diamond().freeze()
        assert g.entry_tasks == (0,)
        assert g.exit_tasks == (3,)

    def test_isolated_task_is_entry_and_exit(self):
        g = TaskGraph()
        g.add_task(1.0)
        g.freeze()
        assert g.entry_tasks == (0,)
        assert g.exit_tasks == (0,)


class TestQueries:
    def test_degrees(self):
        g = diamond().freeze()
        assert g.in_degree(0) == 0
        assert g.out_degree(0) == 2
        assert g.in_degree(3) == 2
        assert g.out_degree(3) == 0

    def test_edges_iteration(self):
        g = diamond().freeze()
        edges = set((s, d, c) for s, d, c in g.edges())
        assert edges == {(0, 1, 1.0), (0, 2, 2.0), (1, 3, 3.0), (2, 3, 4.0)}
        assert g.num_edges == 4

    def test_comm_lookup(self):
        g = diamond().freeze()
        assert g.comm(0, 2) == 2.0
        assert g.has_edge(0, 2)
        assert not g.has_edge(2, 0)
        with pytest.raises(KeyError):
            g.comm(2, 0)

    def test_totals(self):
        g = diamond()
        assert g.total_comp() == 10.0
        assert g.total_comm() == 10.0

    def test_repr(self):
        g = diamond()
        assert "V=4" in repr(g) and "building" in repr(g)
        g.freeze()
        assert "frozen" in repr(g)


class TestCopyRelabel:
    def test_copy_frozen(self):
        g = diamond().freeze()
        g2 = g.copy()
        assert g2.frozen
        assert g2.num_tasks == g.num_tasks
        assert set(g2.edges()) == set(g.edges())

    def test_copy_mutable(self):
        g = diamond().freeze()
        g2 = g.copy(mutable=True)
        assert not g2.frozen
        g2.add_task(5.0)
        assert g2.num_tasks == 5
        assert g.num_tasks == 4

    def test_relabeled_preserves_structure(self):
        g = diamond().freeze()
        perm = [3, 1, 0, 2]  # old id -> new id
        g2 = g.relabeled(perm)
        assert g2.num_tasks == 4
        assert g2.comp(perm[0]) == g.comp(0)
        for src, dst, comm in g.edges():
            assert g2.comm(perm[src], perm[dst]) == comm

    def test_relabeled_rejects_non_permutation(self):
        g = diamond().freeze()
        with pytest.raises(GraphError):
            g.relabeled([0, 0, 1, 2])


class TestCsr:
    def test_requires_freeze(self):
        g = diamond()
        with pytest.raises(GraphError):
            g.csr()

    def test_matches_dict_adjacency(self):
        g = diamond().freeze()
        csr = g.csr()
        assert len(csr.pred_ptr) == g.num_tasks + 1
        assert csr.pred_ptr[0] == 0 and csr.pred_ptr[-1] == g.num_edges
        assert len(csr.succ_ids) == len(csr.succ_comm) == g.num_edges
        for t in g.tasks():
            lo, hi = csr.pred_ptr[t], csr.pred_ptr[t + 1]
            assert tuple(csr.pred_ids[lo:hi]) == g.preds(t)
            assert list(csr.pred_comm[lo:hi]) == [
                g.comm(p, t) for p in g.preds(t)
            ]
            lo, hi = csr.succ_ptr[t], csr.succ_ptr[t + 1]
            assert tuple(csr.succ_ids[lo:hi]) == g.succs(t)
            assert list(csr.succ_comm[lo:hi]) == [
                g.comm(t, s) for s in g.succs(t)
            ]

    def test_in_degrees(self):
        g = diamond().freeze()
        assert g.csr().in_degrees() == [g.in_degree(t) for t in g.tasks()]

    def test_matches_on_random_graph(self):
        from repro.util.rng import make_rng
        from repro.workloads import layered_random

        g = layered_random(5, 6, make_rng(11), edge_density=0.4, ccr=1.0)
        g.freeze()
        csr = g.csr()
        for t in g.tasks():
            lo, hi = csr.pred_ptr[t], csr.pred_ptr[t + 1]
            assert tuple(csr.pred_ids[lo:hi]) == g.preds(t)

    def test_copy_recompiles(self):
        g = diamond().freeze()
        g2 = g.copy(mutable=True)
        e = g2.add_task(9.0, name="e")
        g2.add_edge(3, e, 1.5)
        g2.freeze()
        csr = g2.csr()
        lo, hi = csr.pred_ptr[e], csr.pred_ptr[e + 1]
        assert tuple(csr.pred_ids[lo:hi]) == (3,)
        assert csr.pred_comm[lo] == 1.5


class TestFrozenArraysAreReadOnly:
    def test_every_handed_out_array_refuses_writes(self):
        # A writable memo let one caller corrupt every later schedule of
        # the graph (reversing the bottom levels of a 200-task LU graph
        # moved FLB's makespan from 101.84 to 102.88), and a write to
        # comps_array() would publish a different graph under the old
        # fingerprint.
        import pickle

        import numpy as np

        from repro.core.flb_array import _kernel_inputs, flb_array
        from repro.graph.properties import (
            bottom_levels_array,
            subgraph_hash_array,
            top_levels_array,
        )
        from repro.machine.model import MachineModel
        from repro.util.rng import make_rng
        from repro.workloads import lu, lu_size_for_tasks

        def graph():
            return lu(lu_size_for_tasks(200), make_rng(0)).freeze()

        g = graph()
        machine = MachineModel(4)
        neg_bl, pred_delay = _kernel_inputs(g, machine)
        csr = g.csr()
        arrays = {
            "comps": g.comps_array(),
            "bl": bottom_levels_array(g),
            "tl": top_levels_array(g),
            "subh": subgraph_hash_array(g),
            "neg_bl": neg_bl,
            "pred_delay": pred_delay,
        }
        arrays.update(zip(("src", "dst", "comm"), g.edge_arrays()))
        for field in ("pred_ptr", "pred_ids", "pred_comm",
                      "succ_ptr", "succ_ids", "succ_comm"):
            arrays[field] = getattr(csr, field)
        for name, array in arrays.items():
            before = array.copy()
            with pytest.raises(ValueError, match="read-only"):
                array[:] = array[::-1]
            assert np.array_equal(array, before), name
        # A graph sent to a worker process arrives the same way.
        clone = pickle.loads(pickle.dumps(g))
        for array in (clone.comps_array(), clone.csr().succ_ids,
                      *clone.edge_arrays(), clone.memo_get("bl_arr")):
            assert not array.flags.writeable
        got, want = flb_array(g, machine), flb_array(graph(), machine)
        assert got.makespan == want.makespan
        assert [got.entry(t) for t in g.tasks()] == [want.entry(t) for t in g.tasks()]
