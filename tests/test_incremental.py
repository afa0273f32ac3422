"""Warm-start incremental rescheduling: hashes, differ, replay, wiring.

Four layers of guarantees, strongest first:

* **Hash stability** — the upward subgraph hash is a pure function of a
  task's ancestor closure: invariant under edge insertion order and under
  ``relabeled()`` permutations (with explicit names), and a mutation
  dirties *exactly* the mutated task's descendant closure.  The
  incremental (diff-seeded) hashes equal a from-scratch sweep bitwise.
* **Replay equivalence** — a 200-pair fuzz: warm-starting from the base
  schedule is bit-identical to the
  cold run on the mutated graph, and warm results pass the independent
  certifier.  This is exact ``==``, never ``approx`` — warm-start is a
  pure execution shortcut, not an approximation.
* **Fallback discipline** — every non-reusable case (wrong machine,
  wrong tie rule, incomplete base, dirtied entry) silently runs cold
  with the right ``incr_fallback_total`` reason, never a wrong schedule.
* **Wiring** — ``SchedulingOptions(warm_start=True)`` round-trips
  through :func:`repro.api.schedule_graph`, the batch plane
  (``BatchJob.base_fingerprint`` → ``BatchResult.warm``), the base-LRU,
  the serve payload, and the trace report's cache/warm sections.
"""

import numpy as np
import pytest

from repro.api import SchedulingOptions, schedule_graph
from repro.batch import BatchJob, BatchScheduler, schedule_many
from repro.core.flb_array import flb_array
from repro.graph.properties import (
    bottom_levels,
    subgraph_hash_array,
    subgraph_hashes,
)
from repro.graph.taskgraph import TaskGraph
from repro.incremental import (
    GraphDiff,
    ScheduleBaseCache,
    base_cache,
    diff_prefix,
    incremental_subgraph_hashes,
)
from repro.machine import MachineModel
from repro.obs.metrics import MetricsRegistry
from repro.util.rng import make_rng
from repro.verify import certify as certify_schedule
from repro.verify import greedy_flavor
from repro.workloads import erdos_dag, layered_random, lu, stencil

from tests.test_fastpath_equivalence import assert_bit_identical


# ---------------------------------------------------------------------------
# Graph-mutation helpers (TaskGraph is append-only once built, so mutants
# are rebuilt from scratch with targeted overrides)
# ---------------------------------------------------------------------------


def _rebuild(graph, comp=None, comm=None, name=None, extra_tasks=(),
             extra_edges=(), edge_order=None):
    """A fresh graph equal to ``graph`` except for the given overrides.

    ``comp``/``name`` map task id to a new value; ``comm`` maps ``(src,
    dst)`` to a new cost; ``extra_tasks`` appends ``(comp, name)`` pairs
    and ``extra_edges`` appends ``(src, dst, comm)`` triples.
    ``edge_order`` permutes the edge *insertion* order (ids unchanged).
    """
    comp = comp or {}
    comm = comm or {}
    name = name or {}
    out = TaskGraph()
    for t in range(graph.num_tasks):
        out.add_task(comp.get(t, graph.comp(t)), name.get(t, graph._names[t]))
    for c, nm in extra_tasks:
        out.add_task(c, nm)
    edges = list(graph.edges())
    if edge_order is not None:
        edges = [edges[i] for i in edge_order]
    for s, d, c in edges:
        out.add_edge(s, d, comm.get((s, d), c))
    for s, d, c in extra_edges:
        out.add_edge(s, d, c)
    return out.freeze()


def _descendants(graph, task):
    """``task`` plus everything reachable from it."""
    seen = {task}
    stack = [task]
    while stack:
        for s in graph.succs(stack.pop()):
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return seen


def _mutate(graph, rng, kind):
    """One of the five serving-traffic mutation shapes; returns the mutant
    and the id of the directly-touched task (or None for appends)."""
    t = int(rng.integers(graph.num_tasks))
    if kind == "comp-down":
        return _rebuild(graph, comp={t: graph.comp(t) * 0.5}), t
    if kind == "comp-up":
        return _rebuild(graph, comp={t: graph.comp(t) * 2.0 + 1.0}), t
    if kind == "comm":
        edges = list(graph.edges())
        if not edges:
            return _rebuild(graph, comp={t: graph.comp(t) + 1.0}), t
        s, d, c = edges[int(rng.integers(len(edges)))]
        return _rebuild(graph, comm={(s, d): c + 1.0}), d
    if kind == "append":
        new_id = graph.num_tasks
        srcs = rng.choice(graph.num_tasks, size=min(2, graph.num_tasks),
                          replace=False)
        return _rebuild(
            graph, extra_tasks=[(3.0, None)],
            extra_edges=[(int(s), new_id, 1.0) for s in srcs],
        ), None
    if kind == "rename":
        return _rebuild(graph, name={t: f"renamed-{t}"}), t
    raise AssertionError(kind)


# ---------------------------------------------------------------------------
# Subgraph-hash stability
# ---------------------------------------------------------------------------


class TestSubgraphHashes:
    def test_deterministic_across_builds(self):
        g1 = erdos_dag(40, 0.2, make_rng(1), ccr=1.0)
        g2 = erdos_dag(40, 0.2, make_rng(1), ccr=1.0)
        assert subgraph_hashes(g1) == subgraph_hashes(g2)

    def test_invariant_under_edge_insertion_order(self):
        g = erdos_dag(40, 0.2, make_rng(2), ccr=1.0)
        perm = make_rng(3).permutation(g.num_edges)
        shuffled = _rebuild(g, edge_order=perm.tolist())
        assert subgraph_hashes(g) == subgraph_hashes(shuffled)

    def test_invariant_under_relabeling_with_explicit_names(self):
        # Default names are id-derived ("t{id}"), so relabel invariance is
        # only promised once tasks carry explicit names — same contract as
        # TaskGraph.fingerprint().
        g = _rebuild(
            erdos_dag(30, 0.25, make_rng(4), ccr=1.0),
            name={t: f"task-{t}" for t in range(30)},
        )
        rng = make_rng(5)
        perm = rng.permutation(g.num_tasks).tolist()
        relabeled = g.relabeled(perm)
        h1 = subgraph_hashes(g)
        h2 = subgraph_hashes(relabeled)
        for old in range(g.num_tasks):
            assert h1[old] == h2[perm[old]]

    @pytest.mark.parametrize("kind", ["comp-down", "comm", "rename"])
    def test_mutation_dirties_exactly_descendants(self, kind):
        g = layered_random(6, 6, make_rng(6), edge_density=0.3, ccr=1.0)
        mutant, touched = _mutate(g, np.random.default_rng(7), kind)
        h_base = subgraph_hashes(g)
        h_new = subgraph_hashes(mutant)
        changed = {t for t in range(g.num_tasks) if h_base[t] != h_new[t]}
        assert changed == _descendants(mutant, touched)

    @pytest.mark.parametrize(
        "kind", ["comp-down", "comp-up", "comm", "append", "rename"]
    )
    def test_incremental_hashes_match_full_sweep(self, kind):
        for i in range(20):
            g = erdos_dag(10 + i * 3, 0.2, make_rng(100 + i), ccr=1.0)
            mutant, _ = _mutate(g, np.random.default_rng(200 + i), kind)
            fresh = _rebuild(mutant)  # no cache: full from-scratch sweep
            dirty = incremental_subgraph_hashes(mutant, g)
            assert subgraph_hashes(mutant) == subgraph_hashes(fresh)
            # The mask covers every hash that actually changed.
            h_base, h_new = subgraph_hashes(g), subgraph_hashes(mutant)
            vc = min(g.num_tasks, mutant.num_tasks)
            for t in range(vc):
                if h_base[t] != h_new[t]:
                    assert dirty[t]

    def test_hash_array_matches_list(self):
        g = lu(6, make_rng(8))
        arr = subgraph_hash_array(g)
        lst = subgraph_hashes(g)
        assert arr.shape == (g.num_tasks,)
        assert [bytes(x) for x in arr] == lst


# ---------------------------------------------------------------------------
# The differ
# ---------------------------------------------------------------------------


class TestDiffPrefix:
    def test_identical_graph_reuses_everything(self):
        g = stencil(6, 10, make_rng(9))
        base = flb_array(g, MachineModel(4))
        diff = diff_prefix(base, _rebuild(g))
        assert isinstance(diff, GraphDiff)
        assert diff.reuse_steps == g.num_tasks
        assert diff.changed == 0 and diff.dirty == 0
        assert diff.reuse_fraction == 1.0

    def test_dirty_entry_task_kills_the_prefix(self):
        g = stencil(6, 10, make_rng(10))
        entry = g.entry_tasks[0]
        base = flb_array(g, MachineModel(4))
        mutant = _rebuild(g, comp={entry: g.comp(entry) * 0.5})
        assert diff_prefix(base, mutant).reuse_steps == 0

    def test_late_mutation_keeps_a_large_prefix(self):
        g = stencil(8, 30, make_rng(11))
        base = flb_array(g, MachineModel(4))
        exit_task = g.exit_tasks[0]
        mutant = _rebuild(g, comp={exit_task: g.comp(exit_task) * 0.5})
        diff = diff_prefix(base, mutant)
        assert diff.reuse_fraction > 0.5
        assert diff.reuse_steps < g.num_tasks

    def test_unrelated_graph_is_harmless(self):
        g = stencil(6, 10, make_rng(12))
        other = lu(7, make_rng(13))
        base = flb_array(g, MachineModel(4))
        diff = diff_prefix(base, other)
        assert 0 <= diff.reuse_steps <= other.num_tasks


# ---------------------------------------------------------------------------
# Replay equivalence: warm == cold, bit for bit
# ---------------------------------------------------------------------------


_KINDS = ("comp-down", "comp-up", "comm", "append", "rename")


class TestWarmColdEquivalence:
    def test_fuzz_200_pairs_bit_identical_and_certified(self):
        flavor = greedy_flavor("flb")
        served = 0
        fallbacks = 0
        for i in range(200):
            rng = make_rng(40_000 + i)
            nrng = np.random.default_rng(41_000 + i)
            if i % 3 == 0:
                g = erdos_dag(10 + (i * 7) % 50, 0.08 + (i % 5) * 0.06,
                              rng, ccr=(0.2, 1.0, 5.0)[i % 3])
            elif i % 3 == 1:
                g = layered_random(2 + i % 6, 2 + i % 5, rng,
                                   edge_density=0.15 + (i % 4) * 0.2)
            else:
                g = stencil(3 + i % 5, 3 + i % 6, rng, ccr=1.0)
            mutant, _ = _mutate(g, nrng, _KINDS[i % len(_KINDS)])
            procs = (1, 2, 3, 8)[i % 4]
            prefer = (i // 2) % 2 == 0
            base = flb_array(g, MachineModel(procs), prefer_non_ep_on_tie=prefer)
            cold = flb_array(_rebuild(mutant), MachineModel(procs),
                             prefer_non_ep_on_tie=prefer)
            stats = {}
            warm = flb_array(mutant, MachineModel(procs), prefer_non_ep_on_tie=prefer,
                             base=base, warm_stats=stats)
            assert_bit_identical(cold, warm, f"pair {i}: cold vs warm")
            if "fallback" in stats:
                fallbacks += 1
                assert stats["fallback"] == "no-clean-prefix"
            else:
                served += 1
                assert stats["reused"] >= 1
                if prefer:
                    cert = certify_schedule(warm, flavor=flavor)
                    assert cert.ok, (
                        f"pair {i}: {[v.code for v in cert.violations]}"
                    )
        # The sweep must actually exercise the warm path, not fall back
        # its way to a vacuous pass.
        assert served >= 80, f"only {served}/200 pairs warm-served"

    @pytest.mark.parametrize(
        "machine",
        [
            MachineModel(3, latency=0.5),
            MachineModel(4, comm_scale=2.5),
            MachineModel(4, speeds=(1.0, 2.0, 0.5, 1.5)),
        ],
    )
    def test_machine_variants_replay_bit_identical(self, machine):
        g = layered_random(7, 6, make_rng(14), edge_density=0.3, ccr=2.0)
        exit_task = g.exit_tasks[0]
        mutant = _rebuild(g, comp={exit_task: g.comp(exit_task) * 0.5})
        base = flb_array(g, machine=machine)
        cold = flb_array(_rebuild(mutant), machine=machine)
        warm = flb_array(mutant, machine=machine, base=base)
        assert_bit_identical(cold, warm, "machine variant")


# ---------------------------------------------------------------------------
# Fallback discipline
# ---------------------------------------------------------------------------


class TestFallbacks:
    def _base(self, g, **kwargs):
        return flb_array(g, MachineModel(4), **kwargs)

    def _attempt(self, g, base, **kwargs):
        reg = MetricsRegistry()
        stats = {}
        schedule = flb_array(g, MachineModel(4), base=base,
                             warm_stats=stats, metrics=reg, **kwargs)
        return schedule, stats, reg

    def test_machine_mismatch_falls_back(self):
        g = stencil(5, 8, make_rng(15))
        base = flb_array(g, machine=MachineModel(4, latency=0.5))
        schedule, stats, reg = self._attempt(_rebuild(g), base)
        assert stats["fallback"] == "machine-mismatch"
        assert reg.total("incr_fallback_total") == 1.0
        assert reg.total("incr_attempts_total") == 1.0
        assert_bit_identical(self._base(_rebuild(g)), schedule, "mismatch")

    def test_tie_rule_mismatch_falls_back(self):
        g = stencil(5, 8, make_rng(16))
        base = self._base(g, prefer_non_ep_on_tie=False)
        _, stats, reg = self._attempt(_rebuild(g), base,
                                      prefer_non_ep_on_tie=True)
        assert stats["fallback"] == "tie-rule-mismatch"
        assert reg.total("incr_fallback_total") == 1.0

    def test_incomplete_base_falls_back(self):
        from repro.schedule import Schedule

        g = stencil(5, 8, make_rng(17)).freeze()
        partial = Schedule(g, MachineModel(4))
        partial.place(g.entry_tasks[0], 0, 0.0)
        _, stats, _ = self._attempt(_rebuild(g), partial)
        assert stats["fallback"] == "base-incomplete"

    def test_dirty_entry_falls_back_with_no_clean_prefix(self):
        g = stencil(5, 8, make_rng(18))
        entry = g.entry_tasks[0]
        base = self._base(g)
        mutant = _rebuild(g, comp={entry: g.comp(entry) * 2.0})
        schedule, stats, reg = self._attempt(mutant, base)
        assert stats["fallback"] == "no-clean-prefix"
        assert reg.total("incr_fallback_total") == 1.0
        assert_bit_identical(self._base(_rebuild(mutant)), schedule, "dirty")

    def test_warm_success_records_reuse_metrics(self):
        g = stencil(5, 20, make_rng(19))
        exit_task = g.exit_tasks[0]
        base = self._base(g)
        mutant = _rebuild(g, comp={exit_task: g.comp(exit_task) * 0.5})
        _, stats, reg = self._attempt(mutant, base)
        assert "fallback" not in stats
        assert stats["reused"] + stats["replayed"] == stats["total"]
        assert reg.total("incr_warm_total") == 1.0
        assert reg.total("incr_reused_tasks_total") == stats["reused"]


# ---------------------------------------------------------------------------
# The base LRU
# ---------------------------------------------------------------------------


class TestScheduleBaseCache:
    def _schedule(self, seed):
        g = lu(4, make_rng(seed))
        return flb_array(g, MachineModel(2))

    def test_exact_hit_and_stats(self):
        c = ScheduleBaseCache(capacity=2)
        s = self._schedule(1)
        c.put("fp-a", s)
        assert c.get("fp-a") is s
        assert c.stats()["hits"] == 1 and c.stats()["misses"] == 0

    def test_latest_fallback_counts_as_miss(self):
        c = ScheduleBaseCache(capacity=2)
        s1, s2 = self._schedule(1), self._schedule(2)
        c.put("fp-a", s1)
        c.put("fp-b", s2)
        assert c.get("unknown") is s2  # newest base, best delta guess
        assert c.get(None) is s2
        assert c.stats()["hits"] == 0 and c.stats()["misses"] == 2

    def test_lru_eviction(self):
        c = ScheduleBaseCache(capacity=2)
        c.put("a", self._schedule(1))
        c.put("b", self._schedule(2))
        c.get("a")  # refresh a
        c.put("c", self._schedule(3))  # evicts b
        assert c.get("b") is not None  # falls back to latest (c), a miss
        assert c.stats()["evictions"] == 1
        assert len(c) == 2

    def test_empty_cache_returns_none(self):
        c = ScheduleBaseCache()
        assert c.get("anything") is None
        assert c.get() is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ScheduleBaseCache(capacity=0)


# ---------------------------------------------------------------------------
# End-to-end wiring: api / batch / serve / report
# ---------------------------------------------------------------------------


@pytest.fixture(autouse=True)
def _clean_base_cache():
    base_cache().clear()
    yield
    base_cache().clear()


class TestApiWiring:
    def test_schedule_graph_warm_start_round_trip(self):
        g = stencil(6, 15, make_rng(20))
        exit_task = g.exit_tasks[0]
        mutant = _rebuild(g, comp={exit_task: g.comp(exit_task) * 0.5})
        opts = SchedulingOptions(machine=MachineModel(4), warm_start=True)
        schedule_graph(g, opts)  # populates the base LRU
        assert len(base_cache()) == 1
        warm = schedule_graph(mutant, opts)
        cold = schedule_graph(_rebuild(mutant),
                              SchedulingOptions(machine=MachineModel(4)))
        assert_bit_identical(cold, warm, "schedule_graph warm")

    def test_explicit_base_beats_cache(self):
        g = stencil(6, 15, make_rng(21))
        base = flb_array(g, MachineModel(4))
        exit_task = g.exit_tasks[0]
        mutant = _rebuild(g, comp={exit_task: g.comp(exit_task) * 0.5})
        warm = schedule_graph(
            mutant, SchedulingOptions(machine=MachineModel(4)), base=base
        )
        cold = schedule_graph(_rebuild(mutant),
                              SchedulingOptions(machine=MachineModel(4)))
        assert_bit_identical(cold, warm, "explicit base")

    def test_certified_warm_start(self):
        g = stencil(6, 15, make_rng(22))
        exit_task = g.exit_tasks[0]
        mutant = _rebuild(g, comp={exit_task: g.comp(exit_task) * 0.5})
        opts = SchedulingOptions(machine=MachineModel(4), warm_start=True,
                                 certify=True)
        schedule_graph(g, opts)
        schedule = schedule_graph(mutant, opts)  # raises if cert fails
        assert schedule.complete


class TestBatchWiring:
    def test_base_fingerprint_serves_warm(self):
        g = stencil(6, 15, make_rng(23))
        exit_task = g.exit_tasks[0]
        mutant = _rebuild(g, comp={exit_task: g.comp(exit_task) * 0.5})
        reg = MetricsRegistry()
        opts = SchedulingOptions(warm_start=True, metrics=reg)
        r1 = schedule_many([BatchJob(graph=g, machine=MachineModel(4))], workers=1,
                           options=opts)
        assert r1[0].ok and r1[0].warm is None
        r2 = schedule_many(
            [BatchJob(graph=mutant, machine=MachineModel(4),
                      base_fingerprint=g.fingerprint())],
            workers=1, options=opts,
        )
        assert r2[0].ok
        assert r2[0].warm is not None and "fallback" not in r2[0].warm
        assert reg.total("incr_warm_total") == 1.0
        cold = schedule_graph(_rebuild(mutant),
                              SchedulingOptions(machine=MachineModel(4)))
        assert r2[0].makespan == cold.makespan

    def test_warm_off_leaves_results_unannotated(self):
        g = stencil(5, 8, make_rng(24))
        res = schedule_many(
            [BatchJob(graph=g, machine=MachineModel(4))], workers=1,
            options=SchedulingOptions(),
        )
        assert res[0].ok and res[0].warm is None

    def test_batch_scheduler_stats_expose_base_cache(self):
        g = stencil(5, 8, make_rng(25))
        with BatchScheduler(
            options=SchedulingOptions(warm_start=True)
        ) as bs:
            bs.run([BatchJob(graph=g, machine=MachineModel(4))])
            stats = bs.stats()
        assert stats["warm_size"] == 1
        assert "warm_hits" in stats and "warm_evictions" in stats


class TestServeWiring:
    def test_base_fingerprint_reaches_job_and_enables_warm_start(self):
        import asyncio
        import json

        from repro.batch import BatchResult
        from repro.graph.io import to_json
        from repro.serve import SchedulingService, ServeConfig

        captured = []

        def runner(job, options):
            captured.append((job, options))
            return BatchResult(
                tag=job.tag, algo=job.algo, procs=job.machine.num_procs,
                num_tasks=15, makespan=10.0, speedup=1.5,
                procs_used=job.machine.num_procs,
                seconds=0.001,
                warm={"reused": 10, "replayed": 5, "total": 15,
                      "dirty": 1, "fraction": 10 / 15},
            )

        service = SchedulingService(
            config=ServeConfig(max_backlog=8), runner=runner
        )
        try:
            doc = json.loads(to_json(lu(5, make_rng(0))))
            reg = service.register_graph({"graph": doc})
            fp = reg["fingerprint"]

            async def body():
                service.start()
                result = await service.submit(
                    {"fingerprint": fp, "procs": 4, "base_fingerprint": fp}
                )
                await service.drain()
                return result

            result = asyncio.run(body())
            job, options = captured[0]
            assert job.base_fingerprint == fp
            assert options.warm_start is True
            assert result["warm"]["reused"] == 10
        finally:
            service.close()

    def test_bad_base_fingerprint_type_is_rejected(self):
        import json

        from repro.graph.io import to_json
        from repro.serve import (
            BadRequestError,
            SchedulingService,
            ServeConfig,
        )

        service = SchedulingService(config=ServeConfig(max_backlog=8))
        try:
            doc = json.loads(to_json(lu(5, make_rng(0))))
            fp = service.register_graph({"graph": doc})["fingerprint"]
            with pytest.raises(BadRequestError):
                service._prepare(
                    {"fingerprint": fp, "procs": 4, "base_fingerprint": 7}
                )
        finally:
            service.close()


class TestReportWiring:
    def test_trace_report_gains_cache_and_warm_sections(self, tmp_path):
        from repro.obs.report import render_report, summarize_trace
        from repro.obs.trace import read_trace
        from repro.resultcache import ResultCache

        g = stencil(6, 15, make_rng(26))
        exit_task = g.exit_tasks[0]
        mutant = _rebuild(g, comp={exit_task: g.comp(exit_task) * 0.5})
        reg = MetricsRegistry()
        cache = ResultCache(16)
        opts = SchedulingOptions(warm_start=True, metrics=reg)
        schedule_many([BatchJob(graph=g, machine=MachineModel(4))], workers=1, options=opts,
                      cache=cache)
        schedule_many(
            [BatchJob(graph=mutant, machine=MachineModel(4),
                      base_fingerprint=g.fingerprint())],
            workers=1, options=opts, cache=cache,
        )
        schedule_many([BatchJob(graph=_rebuild(mutant), machine=MachineModel(4))], workers=1,
                      options=opts, cache=cache)  # result-cache hit

        path = tmp_path / "trace.jsonl"
        reg.write_trace(str(path))
        events = read_trace(str(path))
        summary = summarize_trace(events)
        assert summary["cache"]["batches"] == 3
        assert summary["cache"]["hits"] == 1
        assert summary["cache"]["hit_rate"] > 0
        assert summary["warm"]["served"] == 1
        assert summary["warm"]["mean_reuse"] > 0.5
        assert summary["warm"]["fallbacks"] == {}
        text = render_report(events)
        assert "serving cache:" in text
        assert "warm-start:" in text

    def test_copy_preserves_fingerprint_and_hash_caches(self):
        g = stencil(5, 8, make_rng(27))
        fp = g.fingerprint()
        hashes = subgraph_hashes(g)
        clone = g.copy()
        assert clone._fingerprint == fp
        assert clone._prop_cache.get("subh") == hashes
        assert clone.fingerprint() == fp
