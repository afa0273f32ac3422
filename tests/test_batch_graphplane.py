"""The zero-copy graph plane end to end: keyed dispatch equivalence, the
inline-pickle fallback, result-cache serving semantics, BatchScheduler
lifecycle, segment-leak guarantees, CLI stats, and the ``perfgate``
throughput floors (shared-graph sweep vs. the old inline-pickle path)."""

import os
import statistics
import time

import pytest

from repro import graphstore
from repro.api import SchedulingOptions
from repro.batch import (
    INLINE_ONESHOT_MAX,
    BatchJob,
    BatchScheduler,
    batch_stats,
    schedule_many,
)
from repro.cli import main
from repro.graphstore import GraphStoreError
from repro.machine.model import MachineModel
from repro.resultcache import ResultCache
from repro.schedulers import SCHEDULERS
from repro.util.rng import make_rng
from repro.workloads import lu, lu_size_for_tasks, stencil

_HAS_DEV_SHM = os.path.isdir("/dev/shm")


def _summaries(results):
    return [
        (r.tag, r.algo, r.procs, r.num_tasks, r.makespan, r.speedup, r.procs_used)
        for r in results
    ]


# Module-level so forked workers resolve it after monkeypatching SCHEDULERS.
def _sleepy_scheduler(graph, machine):
    time.sleep(30.0)
    return SCHEDULERS["flb"](graph, machine)


def _sweep_jobs(graph, procs=(2, 3, 5), algos=("flb", "fcp", "mcp")):
    return [
        BatchJob(graph=graph, machine=MachineModel(p), algo=a, tag=f"{p}/{a}")
        for p in procs
        for a in algos
    ]


class TestKeyedDispatch:
    def test_keyed_matches_inline_bit_identically(self):
        g = lu(8, make_rng(0), ccr=1.0)
        jobs = _sweep_jobs(g)
        inline = schedule_many(jobs, workers=2, share_graphs=False)
        keyed = schedule_many(jobs, workers=2, share_graphs=True)
        assert all(r.ok for r in keyed)
        assert _summaries(inline) == _summaries(keyed)

    def test_repeated_graph_is_shared_once(self):
        g = lu(8, make_rng(0))
        stats = {}
        schedule_many(_sweep_jobs(g), workers=2, stats_out=stats)
        assert stats["shared_graphs"] == 1
        assert stats["keyed_jobs"] == stats["dispatched"]
        assert stats["inline_graph_jobs"] == 0
        assert stats["shared_bytes"] > 0

    def test_small_oneshot_graph_stays_inline(self):
        graphs = [lu(5, make_rng(seed)) for seed in range(3)]
        assert all(g.num_tasks + g.num_edges < INLINE_ONESHOT_MAX for g in graphs)
        jobs = [BatchJob(graph=g, machine=MachineModel(2), algo="flb", tag=str(i))
                for i, g in enumerate(graphs)]
        stats = {}
        results = schedule_many(jobs, workers=2, stats_out=stats)
        assert all(r.ok for r in results)
        assert stats["shared_graphs"] == 0
        assert stats["inline_graph_jobs"] == 3

    def test_share_graphs_true_forces_sharing(self):
        jobs = [BatchJob(graph=lu(5, make_rng(seed)), machine=MachineModel(2), tag=str(seed))
                for seed in range(2)]
        stats = {}
        results = schedule_many(jobs, workers=2, share_graphs=True, stats_out=stats)
        assert all(r.ok for r in results)
        assert stats["shared_graphs"] == 2

    def test_large_oneshot_graph_is_shared(self):
        g = lu(lu_size_for_tasks(400), make_rng(0))
        assert g.num_tasks + g.num_edges >= INLINE_ONESHOT_MAX
        stats = {}
        (res,) = schedule_many(
            [BatchJob(graph=g, machine=MachineModel(2)),
             BatchJob(graph=g, machine=MachineModel(4))],
            workers=2, stats_out=stats,
        )[:1]
        assert res.ok
        assert stats["shared_graphs"] == 1

    def test_graph_key_job_roundtrip(self):
        g = stencil(6, 5, make_rng(1), ccr=0.2)
        direct = SCHEDULERS["etf"](g, MachineModel(4)).makespan
        with BatchScheduler(workers=2) as bs:
            key = bs.register(g)
            out = bs.run([
                BatchJob(graph=None, machine=MachineModel(4), algo="etf", graph_key=key, tag="k"),
                BatchJob(graph=None, machine=MachineModel(4), algo="flb", graph_key=key),
            ])
        assert all(r.ok for r in out)
        assert out[0].makespan == direct
        assert out[0].num_tasks == g.num_tasks

    def test_unknown_graph_key_is_job_error_not_batch_poison(self):
        g = lu(5, make_rng(0))
        results = schedule_many(
            [
                BatchJob(graph=None, machine=MachineModel(2), graph_key="repro_tg_bogus_0_0"),
                BatchJob(graph=g, machine=MachineModel(2)),
            ],
            workers=2,
        )
        assert not results[0].ok
        assert "does not exist" in results[0].error
        assert results[1].ok

    def test_coalescing_duplicate_jobs(self):
        # Within-batch duplicates are part of the caching plane: with a
        # cache in play, identical (graph, procs, algo) requests dispatch
        # once and share the outcome.
        g = lu(8, make_rng(0))
        jobs = [BatchJob(graph=g, machine=MachineModel(2), algo="flb", tag=f"req{i}")
                for i in range(5)]
        stats = {}
        results = schedule_many(jobs, workers=2, cache=ResultCache(8),
                                stats_out=stats)
        assert stats["dispatched"] == 1
        assert stats["coalesced"] == 4
        assert [r.tag for r in results] == [f"req{i}" for i in range(5)]
        assert len({r.makespan for r in results}) == 1
        assert sum(1 for r in results if r.cached) == 4

    def test_no_coalescing_without_cache(self):
        # Without a cache every job dispatches individually — plain
        # schedule_many keeps per-job timing/queue accounting.
        g = lu(8, make_rng(0))
        jobs = [BatchJob(graph=g, machine=MachineModel(2), algo="flb", tag=str(i))
                for i in range(3)]
        stats = {}
        results = schedule_many(jobs, workers=2, stats_out=stats)
        assert stats["dispatched"] == 3 and stats["coalesced"] == 0
        assert not any(r.cached for r in results)

    def test_machine_jobs_coalesce_by_fingerprint(self):
        # Custom machines used to bypass the cache entirely; the machine
        # fingerprint is now part of the key, so identical machine jobs
        # coalesce while distinct machines never share a dispatch.
        g = lu(6, make_rng(0))
        machine = MachineModel(3, comm_scale=2.0)
        jobs = [BatchJob(graph=g, machine=machine, tag=str(i))
                for i in range(2)]
        jobs.append(BatchJob(graph=g, machine=MachineModel(3), tag="plain"))
        stats = {}
        results = schedule_many(jobs, workers=2, cache=ResultCache(8),
                                stats_out=stats)
        assert all(r.ok for r in results)
        assert stats["dispatched"] == 2 and stats["coalesced"] == 1
        assert results[0].makespan == results[1].makespan
        assert results[2].makespan != results[0].makespan


class TestResultCache:
    def test_second_batch_hits_without_dispatch(self):
        g = lu(8, make_rng(0))
        jobs = _sweep_jobs(g)
        cache = ResultCache(64)
        first = schedule_many(jobs, workers=2, cache=cache)
        stats = {}
        second = schedule_many(jobs, workers=2, cache=cache, stats_out=stats)
        assert stats["dispatched"] == 0  # O(1) hits, no worker touched
        assert stats["cache_hits"] == len(jobs)
        assert all(r.cached and r.seconds == 0.0 and r.queue_seconds == 0.0
                   for r in second)
        assert not any(r.cached for r in first)
        assert _summaries(first) == _summaries(second)
        assert cache.hits == len(jobs) and cache.misses == len(jobs)

    def test_keys_are_built_only_with_a_cache(self, monkeypatch):
        # Without a cache nothing reads a key, so no graph is hashed for
        # one; with a cache, keys, hits and coalescing are as before.
        from repro.graph.taskgraph import TaskGraph
        from repro.resultcache import make_key

        calls = []
        real_fingerprint = TaskGraph.fingerprint

        def counting_fingerprint(graph):
            calls.append(graph)
            return real_fingerprint(graph)

        monkeypatch.setattr(TaskGraph, "fingerprint", counting_fingerprint)
        graphs = [lu(6, make_rng(seed)) for seed in range(3)]
        jobs = [BatchJob(graph=g, machine=MachineModel(p), tag=f"{n}/{p}")
                for n, g in enumerate(graphs) for p in (2, 3)]
        uncached = schedule_many(jobs, workers=1)
        assert all(r.ok for r in uncached)
        assert calls == []

        cache = ResultCache(16)
        stats = {}
        first = schedule_many(jobs + jobs[:2], workers=1, cache=cache,
                              stats_out=stats)
        assert {id(g) for g in calls} == {id(g) for g in graphs}
        assert stats["dispatched"] == len(jobs) and stats["coalesced"] == 2
        assert _summaries(first[: len(jobs)]) == _summaries(uncached)
        for job in jobs:
            key = make_key(real_fingerprint(job.graph), job.machine, job.algo,
                           False, False)
            assert cache.get(key) is not None
        stats = {}
        again = schedule_many(jobs, workers=1, cache=cache, stats_out=stats)
        assert stats["cache_hits"] == len(jobs)
        assert all(r.cached for r in again)

    def test_cache_works_on_serial_path(self):
        g = lu(6, make_rng(0))
        cache = ResultCache(8)
        (r1,) = schedule_many([BatchJob(graph=g, machine=MachineModel(3))], workers=1, cache=cache)
        (r2,) = schedule_many([BatchJob(graph=g, machine=MachineModel(3))], workers=1, cache=cache)
        assert not r1.cached and r2.cached
        assert r2.makespan == r1.makespan

    def test_validate_flag_is_part_of_the_key(self):
        g = lu(6, make_rng(0))
        cache = ResultCache(8)
        schedule_many([BatchJob(graph=g, machine=MachineModel(3))], cache=cache)
        (res,) = schedule_many([BatchJob(graph=g, machine=MachineModel(3))], cache=cache,
                               options=SchedulingOptions(validate=True))
        assert not res.cached  # different validate -> different key
        assert len(cache) == 2

    def test_machine_jobs_cache_under_their_fingerprint(self):
        # Custom machines used to bypass the cache; they now key on the
        # machine fingerprint, so a repeat is a hit while a different
        # model for the same procs never shares the entry.
        g = lu(6, make_rng(0))
        cache = ResultCache(8)
        job = BatchJob(graph=g, machine=MachineModel(3, latency=1.0))
        (first,) = schedule_many([job], cache=cache)
        (again,) = schedule_many([job], cache=cache)
        assert len(cache) == 1
        assert again.cached and again.makespan == first.makespan
        other = BatchJob(graph=g, machine=MachineModel(3, latency=2.0))
        (miss,) = schedule_many([other], cache=cache)
        assert not miss.cached
        assert len(cache) == 2

    def test_failures_are_not_cached(self):
        g = lu(6, make_rng(0))
        cache = ResultCache(8)
        bad = BatchJob(graph=g, machine=MachineModel(2), algo="no-such-algo")
        schedule_many([bad], cache=cache)
        assert len(cache) == 0
        (again,) = schedule_many([bad], cache=cache)
        assert not again.ok and not again.cached

    def test_eviction_is_bounded_and_counted(self):
        cache = ResultCache(2)
        graphs = [lu(5, make_rng(seed)) for seed in range(4)]
        for g in graphs:
            schedule_many([BatchJob(graph=g, machine=MachineModel(2))], cache=cache)
        assert len(cache) == 2
        assert cache.evictions == 2
        assert cache.stats()["capacity"] == 2

    def test_zero_capacity_disables(self):
        g = lu(5, make_rng(0))
        cache = ResultCache(0)
        schedule_many([BatchJob(graph=g, machine=MachineModel(2))], cache=cache)
        schedule_many([BatchJob(graph=g, machine=MachineModel(2))], cache=cache)
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_batch_stats_reports_counters(self):
        g = lu(6, make_rng(0))
        cache = ResultCache(8)
        results = schedule_many(_sweep_jobs(g, procs=(2,), algos=("flb", "fcp")),
                                cache=cache)
        stats = batch_stats(results, 0.5, cache)
        assert stats["jobs"] == 2 and stats["ok"] == 2
        assert stats["cache_misses"] == 2 and stats["cache_hits"] == 0
        assert stats["tasks_per_s"] > 0 and stats["jobs_per_s"] == pytest.approx(4.0)


class TestBatchScheduler:
    def test_serving_loop_accumulates_stats(self):
        g = lu(8, make_rng(0))
        jobs = _sweep_jobs(g, procs=(2, 4), algos=("flb",))
        with BatchScheduler(workers=2) as bs:
            first = bs.run(jobs)
            second = bs.run(jobs)
            stats = bs.stats()
        assert _summaries(first) == _summaries(second)
        assert all(r.cached for r in second)
        assert stats["jobs"] == 4
        assert stats["cache_hits"] == 2
        assert stats["results"] == 4 and stats["failed"] == 0
        assert stats["store_graphs"] == 1 and stats["store_bytes"] > 0

    def test_closed_scheduler_refuses_runs(self):
        bs = BatchScheduler(workers=1)
        bs.close()
        with pytest.raises(GraphStoreError, match="closed"):
            bs.run([BatchJob(graph=lu(5, make_rng(0)), machine=MachineModel(2))])

    def test_register_is_idempotent(self):
        g = lu(6, make_rng(0))
        with BatchScheduler() as bs:
            assert bs.register(g) == bs.register(g.copy())


@pytest.mark.skipif(not _HAS_DEV_SHM, reason="requires /dev/shm (Linux)")
class TestNoLeakedSegments:
    def test_schedule_many_unlinks_on_return(self):
        before = graphstore.list_segments()
        g = lu(lu_size_for_tasks(300), make_rng(0))
        results = schedule_many(_sweep_jobs(g), workers=2)
        assert all(r.ok for r in results)
        assert graphstore.list_segments() == before

    def test_timeout_sigkill_does_not_leak(self, monkeypatch):
        monkeypatch.setitem(SCHEDULERS, "sleepy", _sleepy_scheduler)
        before = graphstore.list_segments()
        g = lu(lu_size_for_tasks(300), make_rng(0))
        jobs = [
            BatchJob(graph=g, machine=MachineModel(2), algo="sleepy"),
            BatchJob(graph=g, machine=MachineModel(2), algo="flb"),
        ]
        results = schedule_many(jobs, workers=2, options=SchedulingOptions(timeout=0.3), grace=1.0)
        assert results[0].error_kind == "timeout"
        assert results[1].ok
        assert graphstore.list_segments() == before

    def test_batchscheduler_exit_unlinks(self):
        before = graphstore.list_segments()
        with BatchScheduler(workers=2) as bs:
            bs.register(lu(lu_size_for_tasks(300), make_rng(0)))
            assert graphstore.list_segments() != before
        assert graphstore.list_segments() == before


class TestCli:
    def test_batch_stats_flag(self, capsys):
        code = main(
            ["batch", "--problems", "lu", "--procs", "2", "4", "--algos",
             "flb", "fcp", "--tasks", "120", "--workers", "2", "--stats"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4/4 ok" in out
        assert "graph plane:" in out
        assert "result cache:" in out

    def test_batch_no_share_still_correct(self, capsys):
        code = main(
            ["batch", "--problems", "lu", "--procs", "2", "--algos", "flb",
             "--tasks", "120", "--workers", "2", "--no-share", "--stats"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 keyed" in out


#: Paired rounds of the keyed-vs-inline sweep perfgate.
SWEEP_ROUNDS = 10


def _best_jobs_per_s(fn, jobs, repeats=2):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return jobs / best


def _bench_tasks(default=300):
    try:
        return int(os.environ.get("REPRO_BENCH_TASKS", default))
    except ValueError:
        return default


@pytest.mark.perfgate
def test_shared_graph_sweep_not_slower_than_inline():
    """Smoke floor for the graph plane itself (no result cache): a
    repeated-graph sweep dispatched by key must not be slower than the old
    inline-pickle dispatch, and must return bit-identical summaries.

    The transport win scales with graph size (register/attach overhead is
    fixed, per-job pickle cost is linear), so below ~500 tasks the two paths
    are within noise of each other.  This check therefore runs at >= 800
    tasks regardless of REPRO_BENCH_TASKS, where the keyed path wins by
    ~1.2x and a strict floor stays meaningful (see
    results/batch_payload.txt).

    The two arms run back to back in each round (alternating which goes
    first), and the verdict is ``keyed_jps >= inline_jps`` in the median
    round: one sweep takes ~0.05-0.2 s and a shared host's speed changes
    between runs, so arms timed in separate blocks, or each arm's best
    sweep taken alone, let a change of host speed decide the verdict."""
    g = lu(lu_size_for_tasks(max(_bench_tasks(), 800)), make_rng(0), ccr=1.0)
    jobs = [BatchJob(graph=g, machine=MachineModel(p), algo=a, tag=f"{p}/{a}")
            for p in (2, 3, 4, 6, 8, 12, 16, 24, 32, 48)
            for a in ("flb", "fcp")]
    assert len(jobs) >= 20
    share = {"inline": False, "keyed": True}
    jps = {arm: [] for arm in share}
    captured = {}
    for round_ in range(SWEEP_ROUNDS):
        for arm in sorted(share, reverse=bool(round_ % 2)):
            t0 = time.perf_counter()
            captured[arm] = schedule_many(jobs, workers=2, share_graphs=share[arm])
            jps[arm].append(len(jobs) / (time.perf_counter() - t0))
    assert _summaries(captured["inline"]) == _summaries(captured["keyed"])
    keyed_over_inline = sorted(k / i for k, i in zip(jps["keyed"], jps["inline"]))
    assert statistics.median(keyed_over_inline) >= 1.0, keyed_over_inline


@pytest.mark.perfgate
def test_graph_plane_serving_beats_inline_2x():
    """The acceptance floor: serving a repeated-graph sweep (1 graph x >= 20
    jobs per pass, several passes) through the graph plane + result cache
    achieves >= 2x the jobs/s of the old per-job inline-pickle path, with
    bit-identical summaries; cache hits return in O(1) without dispatching
    a worker."""
    g = lu(lu_size_for_tasks(_bench_tasks()), make_rng(0), ccr=1.0)
    jobs = [BatchJob(graph=g, machine=MachineModel(p), algo=a, tag=f"{p}/{a}")
            for p in (2, 3, 4, 6, 8, 12, 16, 24, 32, 48)
            for a in ("flb", "fcp")]
    assert len(jobs) >= 20
    passes = 4
    captured = {}

    def run_old():
        captured["old"] = [
            schedule_many(jobs, workers=2, share_graphs=False)
            for _ in range(passes)
        ]

    def run_new():
        with BatchScheduler(workers=2) as bs:
            out = [bs.run(jobs) for _ in range(passes)]
            captured["stats"] = bs.stats()
        captured["new"] = out

    old_jps = _best_jobs_per_s(run_old, passes * len(jobs))
    new_jps = _best_jobs_per_s(run_new, passes * len(jobs))

    for old_pass, new_pass in zip(captured["old"], captured["new"]):
        assert _summaries(old_pass) == _summaries(new_pass)
    # Passes 2..N are pure cache hits: answered without dispatching.
    assert all(r.cached for batch in captured["new"][1:] for r in batch)
    assert captured["stats"]["dispatched"] == len(jobs)
    assert captured["stats"]["cache_hits"] == (passes - 1) * len(jobs)
    assert new_jps >= 2.0 * old_jps, (new_jps, old_jps)
