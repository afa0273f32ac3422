#!/bin/sh
# Fast-path performance smoke: the perfgate-marked checks plus a brief
# perfbench run of every workload checked against the perf ledger.
# Designed to finish in about a minute; see docs/performance.md and
# ROADMAP.md (tier-1).
#
# Usage: tools/perf_smoke.sh          (from the repo root)
set -eu
cd "$(dirname "$0")/.."
export PYTHONPATH=src

# Equivalence + the 4x-over-seed floor at smoke scale (REPRO_BENCH_TASKS=300;
# the seed is the structured loop kept in tests/flb_oracle.py),
# plus the batch graph-plane floors: keyed dispatch >= inline throughput with
# bit-identical summaries, and keyed+cache serving >= 2x the inline path,
# plus the observability budget: metrics-enabled runs within 5% of disabled,
# plus the warm-start floor: incremental rescheduling of a 10^5-task graph
# with <= 1% mutated >= 5x faster than cold, bit-identical and certified,
# plus the ingest budget: from_json(doc) + fingerprint of a V=2000 stencil
# costs no more than one FLB run on it, plus the certify budget: the FLB
# certificate of a fresh graph's schedule costs no more than the cold run
# that produced it, for that stencil and for the eight V=120 suite graphs
# (P=8), plus the placement floor: MCP on the CSR evaluator runs at least
# 2x faster than the dict-path oracle on the V=120 suite at P=32, plus the
# cold-graph budget: FLB on a graph fresh from from_json (V=2015 LU, V=2000
# stencil, 20,000-task chain) costs at most 1.3x a run with its priorities
# memoized.  All but the warm-start floor take the median of paired rounds
# (repro.bench.perfgate.paired_rounds).
python -m pytest -m perfgate -q benchmarks/bench_throughput.py \
    tests/test_batch_graphplane.py tests/test_obs_overhead.py \
    benchmarks/bench_incremental.py tests/test_ingest.py \
    tests/test_certify_bulk.py tests/test_placement_csr.py \
    tests/test_properties.py -p no:cacheprovider

# Every BENCHMARK.json workload, run briefly through perfbench, against the
# newest record of it in benchmarks/ledger.json: exit 1 when an end-to-end
# metric is worse by more than its bound.  The fresh records land in
# results/ so CI can upload them.
mkdir -p results
python benchmarks/perf_gate.py > results/perfbench-smoke.jsonl

# Optional verification pass (REPRO_SMOKE_CERTIFY=1): lint the smoke
# workloads and re-certify the fast path's schedules against the
# independent checker (repro.verify) before trusting the numbers above.
if [ "${REPRO_SMOKE_CERTIFY:-0}" = "1" ]; then
    for prob in lu fft stencil; do
        python -m repro.cli lint --problem "$prob" --tasks 300
        python -m repro.cli certify --problem "$prob" --tasks 300 \
            --procs 8 --algo flb
    done
    # Speed-scaled machine through the F003 replay certificate: a
    # related-machines HEFT run must certify on a 4x-skew model.
    python -m repro.cli certify --problem lu --tasks 300 \
        --procs 4 --algo heft --speeds 4.0 2.0 1.0 1.0 --comm-scale 2.0
    echo "perf smoke certification OK"
fi

# Metrics-enabled batch through the CLI: the emitted Prometheus text and
# JSONL trace must be well-formed (parse_prometheus/read_trace raise on any
# malformed output), and the trace must render through `repro-sched report`.
# Artifacts land in results/ so CI can upload them.
python -m repro.cli batch --problems lu stencil --procs 4 8 --algos flb fcp \
    --tasks 300 --workers 2 \
    --metrics-out results/metrics.prom --trace-out results/trace.jsonl
python - <<'EOF'
from repro.obs import parse_prometheus, read_trace

samples = parse_prometheus(open("results/metrics.prom").read())
assert samples.get('repro_batch_jobs_total{status="ok"}', 0) >= 8, samples
events = read_trace("results/trace.jsonl")
jobs = [e for e in events if e["name"] == "batch.job"]
assert len(jobs) >= 8, len(jobs)
for e in jobs:
    a = e["attrs"]
    drift = abs(sum(a["phases"].values()) - a["wall"])
    assert drift < 1e-6, (a["tag"], drift)
print(f"observability smoke OK: {len(samples)} samples, {len(jobs)} job events")
EOF
python -m repro.cli report results/trace.jsonl > /dev/null

# Serving front-end over real sockets: register/schedule by fingerprint,
# coalescing, 429 shedding, metrics scrape, SIGTERM drain.
tools/serve_smoke.sh

echo "perf smoke OK"
