#!/bin/sh
# Serving smoke: boot the real HTTP front-end (`repro-sched serve`) on an
# ephemeral port and exercise the whole contract over actual sockets:
#
#   * register a generated graph, then schedule it by fingerprint;
#   * schedule the same graph inline with certify (same makespan), and get
#     a 400 for an inline graph with a non-integer edge endpoint;
#   * an inline graph whose schedule overflows (two independent comp-1e308
#     tasks: the speedup is infinite) is a 422 invalid-schedule, and is
#     not cached when sent again;
#   * N identical concurrent requests collapse to ONE computation
#     (in-flight coalescing + result cache — every response agrees on the
#     makespan);
#   * one more identical request is answered from the result cache at
#     admission (`cached`), and /metrics counts it at once
#     (repro_serve_cached_total, repro_resultcache_hits);
#   * a burst past --max-backlog is shed fast with 429 + Retry-After;
#   * /metrics parses through repro.obs.parse_prometheus and carries the
#     serve_* family;
#   * SIGTERM drains gracefully (exit 0, "drained" in the log).
#
# Usage: tools/serve_smoke.sh          (from the repo root)
set -eu
cd "$(dirname "$0")/.."
export PYTHONPATH=src

mkdir -p results
LOG=results/serve_smoke.log

python -m repro.cli generate --problem lu --tasks 2000 -o results/serve_graph.json

python -u -m repro.cli serve --port 0 --max-backlog 2 >"$LOG" 2>&1 &
SERVER_PID=$!
trap 'kill -9 "$SERVER_PID" 2>/dev/null || true' EXIT

# The server prints "serving on HOST:PORT" once the socket is bound; with
# --port 0 the OS picks the port, so scrape it from the log.
PORT=""
i=0
while [ $i -lt 100 ]; do
    PORT=$(sed -n 's/^serving on .*:\([0-9][0-9]*\)$/\1/p' "$LOG")
    [ -n "$PORT" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died early:"; cat "$LOG"; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
[ -n "$PORT" ] || { echo "server never reported its port:"; cat "$LOG"; exit 1; }

SERVE_PORT="$PORT" python - <<'EOF'
import concurrent.futures
import json
import os
import urllib.error
import urllib.request

from repro.obs import parse_prometheus

base = f"http://127.0.0.1:{os.environ['SERVE_PORT']}"


def post(path, payload):
    req = urllib.request.Request(
        base + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), dict(err.headers)


# -- register + schedule by fingerprint --------------------------------------
doc = json.load(open("results/serve_graph.json"))
status, reg, _ = post("/v1/graphs", {"graph": doc})
assert status == 200, reg
fp = reg["fingerprint"]

status, body, _ = post("/v1/schedule", {"fingerprint": fp, "procs": 4})
assert status == 200, body
assert body["makespan"] > 0, body

# -- inline graph, certified: the same answer as the keyed request -----------
status, inline, _ = post("/v1/schedule",
                         {"graph": doc, "procs": 4, "certify": True})
assert status == 200, inline
assert inline["certified"] is True, inline
assert inline["makespan"] == body["makespan"], (inline, body)

# -- a malformed inline graph is a 400, never a schedule ---------------------
bad = json.loads(json.dumps(doc))
bad["edges"][0]["src"] = 0.5
status, err, _ = post("/v1/schedule", {"graph": bad, "procs": 4})
assert status == 400, (status, err)

# -- an overflowing schedule is a 422, and is never cached -------------------
overflow = {"format": "repro-taskgraph", "version": 1, "edges": [],
            "tasks": [{"id": t, "comp": 1e308} for t in range(2)]}
for _ in range(2):
    status, err, _ = post("/v1/schedule", {"graph": overflow, "procs": 2})
    assert status == 422, (status, err)
    assert err["error_kind"] == "invalid-schedule", err
    assert not err["cached"], err

# -- coalescing: N identical concurrent requests, ONE computation ------------
# The first in-flight request computes; overlapping duplicates attach to its
# future (coalesced) and stragglers hit the result cache (cached).  Either
# way exactly one response did the work, and all report the same makespan.
N = 8
payload = {"fingerprint": fp, "procs": 6, "tenant": "smoke"}
with concurrent.futures.ThreadPoolExecutor(N) as pool:
    replies = list(pool.map(lambda _: post("/v1/schedule", payload), range(N)))
assert all(s == 200 for s, _, _ in replies), [s for s, _, _ in replies]
bodies = [b for _, b, _ in replies]
computed = [b for b in bodies if not b.get("coalesced") and not b.get("cached")]
assert len(computed) == 1, [  # exactly one request paid for the schedule
    (b.get("coalesced"), b.get("cached")) for b in bodies]
assert len({b["makespan"] for b in bodies}) == 1, bodies

# -- the same request once more: a result-cache hit, answered at admission ---
status, again, _ = post("/v1/schedule", payload)
assert status == 200, again
assert again["cached"] is True and not again["coalesced"], again
assert again["makespan"] == bodies[0]["makespan"], (again, bodies[0])
with urllib.request.urlopen(base + "/metrics", timeout=30) as resp:
    samples = parse_prometheus(resp.read().decode())
assert samples.get("repro_serve_cached_total", 0) >= 1, samples
assert samples.get("repro_resultcache_hits", 0) >= 1, samples

# -- shedding: burst past --max-backlog=2 => fast 429 + Retry-After ----------
sheds = []
for round_ in range(6):
    reqs = [{"fingerprint": fp, "procs": 8 + round_ * 32 + i} for i in range(32)]
    with concurrent.futures.ThreadPoolExecutor(32) as pool:
        burst = list(pool.map(lambda p: post("/v1/schedule", p), reqs))
    assert all(s in (200, 429) for s, _, _ in burst), [s for s, _, _ in burst]
    sheds += [(b, h) for s, b, h in burst if s == 429]
    if sheds:
        break
assert sheds, "burst never overflowed the bounded queue"
for body, headers in sheds:
    assert int(headers["Retry-After"]) >= 1, headers
    assert body["retry_after"] >= 1, body

# -- metrics + health --------------------------------------------------------
with urllib.request.urlopen(base + "/metrics", timeout=30) as resp:
    samples = parse_prometheus(resp.read().decode())
assert any(k.startswith("repro_serve_requests_total") for k in samples), samples
assert sum(v for k, v in samples.items()
           if k.startswith("repro_serve_shed_total")) >= len(sheds), samples
with urllib.request.urlopen(base + "/healthz", timeout=30) as resp:
    health = json.loads(resp.read())
assert health["status"] == "ok", health

print(f"serve client OK: coalesced+cached={N - 1}, shed={len(sheds)}, "
      f"metrics samples={len(samples)}")
EOF

# -- graceful drain on SIGTERM ----------------------------------------------
kill -TERM "$SERVER_PID"
STATUS=0
wait "$SERVER_PID" || STATUS=$?
trap - EXIT
[ "$STATUS" -eq 0 ] || { echo "server exited $STATUS on SIGTERM:"; cat "$LOG"; exit 1; }
grep -q "drained" "$LOG" || { echo "no drain banner in log:"; cat "$LOG"; exit 1; }

echo "serve smoke OK"
