"""Batch dispatch payload and throughput: inline pickle vs the graph plane.

pytest-benchmark timings of the repeated-graph sweep in
:mod:`repro.bench.payload` at bench scale (``REPRO_BENCH_TASKS``, default
300).  The bytes/job and jobs/s table of ``results/batch_payload.txt`` is
the registry's ``batch_payload`` entry
(``repro-sched experiment batch_payload``).
"""

from repro.batch import schedule_many
from repro.bench.payload import payload_bytes, sweep_jobs
from repro.resultcache import ResultCache


def bench_dispatch_inline(benchmark, suite_by_problem):
    graph = suite_by_problem[("lu", 0.2)]
    jobs = sweep_jobs(graph)
    benchmark.extra_info["bytes_per_job"] = round(payload_bytes(graph)[0])
    benchmark(lambda: schedule_many(jobs, workers=2, share_graphs=False))


def bench_dispatch_keyed(benchmark, suite_by_problem):
    graph = suite_by_problem[("lu", 0.2)]
    jobs = sweep_jobs(graph)
    benchmark.extra_info["bytes_per_job"] = round(payload_bytes(graph)[1])
    benchmark(lambda: schedule_many(jobs, workers=2, share_graphs=True))


def bench_result_cache_hits(benchmark, suite_by_problem):
    graph = suite_by_problem[("lu", 0.2)]
    jobs = sweep_jobs(graph)
    cache = ResultCache(64)
    schedule_many(jobs, workers=2, cache=cache)  # warm: all misses
    benchmark(lambda: schedule_many(jobs, workers=2, cache=cache))
