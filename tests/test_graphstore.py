"""The shared-memory graph registry: codec fidelity, registry lifecycle,
worker-side attach/LRU, and — crucially — *no leaked segments*, ever."""

import gc
import os
import struct

import pytest

from repro import graphstore
from repro.graphstore import (
    GraphStore,
    GraphStoreError,
    attach,
    decode_graph,
    encode_graph,
)
from repro.exceptions import GraphError
from repro.graph.taskgraph import TaskGraph
from repro.machine import MachineModel
from repro.schedulers import SCHEDULERS
from repro.util.rng import make_rng
from repro.workloads import layered_random, lu

_HAS_DEV_SHM = os.path.isdir("/dev/shm")


@pytest.fixture(autouse=True)
def _fresh_worker_cache():
    graphstore.clear_worker_cache()
    yield
    graphstore.clear_worker_cache()


class TestCodec:
    def test_roundtrip_preserves_content(self):
        g = layered_random(6, 5, make_rng(4), edge_density=0.4, ccr=5.0)
        g2 = decode_graph(encode_graph(g))
        assert g2.frozen
        assert g2.num_tasks == g.num_tasks
        assert g2.num_edges == g.num_edges
        assert g2.comps == g.comps
        assert [g2.name(t) for t in g2.tasks()] == [g.name(t) for t in g.tasks()]
        assert sorted(g2.edges()) == sorted(g.edges())
        assert g2.topological_order == g.topological_order
        assert g2.fingerprint() == g.fingerprint()

    def test_roundtrip_schedules_bit_identically(self):
        g = lu(8, make_rng(1), ccr=1.0)
        g2 = decode_graph(encode_graph(g))
        for algo in ("flb", "fcp", "mcp"):
            s1 = SCHEDULERS[algo](g, MachineModel(4))
            s2 = SCHEDULERS[algo](g2, MachineModel(4))
            assert s1.makespan == s2.makespan
            assert all(
                s1.proc_of(t) == s2.proc_of(t) and s1.start_of(t) == s2.start_of(t)
                for t in range(g.num_tasks)
            )

    def test_unnamed_tasks_stay_unnamed(self):
        g = TaskGraph()
        g.add_task(1.0)
        g.add_task(2.0, name="named")
        g.add_edge(0, 1)
        g.freeze()
        g2 = decode_graph(encode_graph(g))
        assert g2._names == [None, "named"]

    def test_unfrozen_graph_rejected(self):
        g = TaskGraph()
        g.add_task(1.0)
        with pytest.raises(GraphStoreError, match="frozen"):
            encode_graph(g)

    def test_bad_magic_rejected(self):
        blob = bytearray(encode_graph(lu(4, make_rng(0))))
        blob[:4] = b"NOPE"
        with pytest.raises(GraphStoreError, match="magic"):
            decode_graph(bytes(blob))

    def test_truncated_rejected(self):
        blob = encode_graph(lu(4, make_rng(0)))
        with pytest.raises(GraphStoreError):
            decode_graph(blob[: len(blob) // 2])

    @pytest.mark.parametrize("section,index,value,message", [
        ("comps", 0, float("inf"), "positive and finite"),
        ("comps", 3, float("nan"), "positive and finite"),
        ("succ_comm", 2, float("nan"), "non-negative and finite"),
        ("succ_comm", 0, float("inf"), "non-negative and finite"),
        ("succ_ids", 1, 10**6, "unknown task id"),
        ("succ_ids", 0, None, "self-loop"),
    ])
    def test_patched_segment_rejected(self, section, index, value, message):
        # Decode must validate, not trust the bytes: a corrupted weight or
        # successor id fails like the constructor would, never yielding a
        # graph with comp(0) == inf or a NaN edge.
        g = lu(4, make_rng(0), ccr=1.0)
        n, e = g.num_tasks, g.num_edges
        offsets = {  # encode_graph's layout after the 30-byte header
            "comps": 30,
            "succ_ids": 30 + 8 * n + 8 * (n + 1) + 16 * e + 8 * (n + 1),
            "succ_comm": 30 + 8 * n + 8 * (n + 1) + 16 * e + 8 * (n + 1) + 8 * e,
        }
        if value is None:  # point task 0's first successor back at itself
            value = 0
        blob = bytearray(encode_graph(g))
        fmt = "<d" if section in ("comps", "succ_comm") else "<q"
        struct.pack_into(fmt, blob, offsets[section] + 8 * index, value)
        with pytest.raises(GraphError, match=message):
            decode_graph(bytes(blob))
        with pytest.raises(GraphStoreError):
            decode_graph(bytes(blob))

    def test_corrupt_successor_index_rejected(self):
        g = lu(4, make_rng(0))
        blob = bytearray(encode_graph(g))
        succ_ptr_at = 30 + 8 * g.num_tasks + 8 * (g.num_tasks + 1) + 16 * g.num_edges
        struct.pack_into("<q", blob, succ_ptr_at + 8, -3)
        with pytest.raises(GraphStoreError, match="successor index"):
            decode_graph(bytes(blob))

    def test_padding_tolerated(self):
        # Shared-memory segments round up to page size; trailing bytes must
        # be ignored.
        g = lu(4, make_rng(0))
        blob = encode_graph(g) + b"\x00" * 4096
        assert decode_graph(blob).fingerprint() == g.fingerprint()


class TestRegistry:
    def test_register_is_idempotent_per_content(self):
        g = lu(6, make_rng(0))
        with GraphStore() as store:
            key = store.register(g)
            assert store.register(g) == key
            assert store.register(g.copy()) == key  # same content, same segment
            assert len(store) == 1
            assert store.fingerprint_of(key) == g.fingerprint()

    def test_distinct_graphs_distinct_segments(self):
        with GraphStore() as store:
            k1 = store.register(lu(5, make_rng(0)))
            k2 = store.register(lu(5, make_rng(1)))
            assert k1 != k2
            assert len(store) == 2
            assert store.total_bytes() > 0

    def test_register_requires_frozen(self):
        g = TaskGraph()
        g.add_task(1.0)
        with GraphStore() as store, pytest.raises(GraphStoreError, match="frozen"):
            store.register(g)

    def test_register_after_close_raises(self):
        store = GraphStore()
        store.close()
        with pytest.raises(GraphStoreError, match="closed"):
            store.register(lu(4, make_rng(0)))

    def test_release_unlinks_one(self):
        with GraphStore() as store:
            k1 = store.register(lu(5, make_rng(0)))
            store.register(lu(5, make_rng(1)))
            store.release(k1)
            assert len(store) == 1
            with pytest.raises(GraphStoreError):
                attach(k1)
            store.release("no-such-segment")  # no-op

    def test_close_is_idempotent(self):
        store = GraphStore()
        store.register(lu(4, make_rng(0)))
        store.close()
        store.close()
        assert store.closed


class TestAttach:
    def test_attach_returns_equivalent_graph(self):
        g = lu(7, make_rng(2), ccr=0.5)
        with GraphStore() as store:
            key = store.register(g)
            g2 = attach(key)
            assert g2.fingerprint() == g.fingerprint()
            machine = MachineModel(4)
            assert (SCHEDULERS["flb"](g2, machine).makespan
                    == SCHEDULERS["flb"](g, machine).makespan)

    def test_attach_unknown_key_raises(self):
        with pytest.raises(GraphStoreError, match="does not exist"):
            attach("repro_tg_deadbeefdeadbeef_0_0")

    def test_attach_memoises_per_process(self):
        g = lu(6, make_rng(0))
        with GraphStore() as store:
            key = store.register(g)
            first = attach(key)
            second = attach(key)
            assert second is first  # decoded exactly once
            info = graphstore.worker_cache_info()
            assert info["hits"] == 1 and info["misses"] == 1

    def test_cached_graph_survives_store_close(self):
        # The LRU holds a decoded copy; jobs in flight keep working even
        # after the supervisor unlinked the segment.
        with GraphStore() as store:
            key = store.register(lu(6, make_rng(0)))
            g = attach(key)
        assert attach(key) is g

    def test_lru_bound_evicts_oldest(self):
        graphs = [lu(5, make_rng(seed)) for seed in range(3)]
        with GraphStore() as store:
            keys = [store.register(g) for g in graphs]
            for key in keys:
                attach(key, cache_size=2)
            info = graphstore.worker_cache_info()
            assert info["size"] == 2
            # keys[0] was evicted: attaching again re-decodes (a miss).
            attach(keys[0], cache_size=2)
            assert graphstore.worker_cache_info()["misses"] == 4


@pytest.mark.skipif(not _HAS_DEV_SHM, reason="requires /dev/shm (Linux)")
class TestNoLeaks:
    def test_register_then_close_leaves_no_segment(self):
        before = graphstore.list_segments()
        store = GraphStore()
        key = store.register(lu(10, make_rng(0)))
        assert any(key == name for name in graphstore.list_segments())
        store.close()
        assert graphstore.list_segments() == before

    def test_gc_finalizer_unlinks_forgotten_store(self):
        before = graphstore.list_segments()
        store = GraphStore()
        store.register(lu(6, make_rng(0)))
        assert graphstore.list_segments() != before
        del store
        gc.collect()
        assert graphstore.list_segments() == before

    def test_context_manager_unlinks_on_error(self):
        before = graphstore.list_segments()
        with pytest.raises(RuntimeError), GraphStore() as store:
            store.register(lu(6, make_rng(0)))
            raise RuntimeError("boom")
        assert graphstore.list_segments() == before
