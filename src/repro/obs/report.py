"""Human-readable run reports from trace files (``repro-sched report``).

Takes the JSONL trace written by ``repro-sched batch --trace-out`` (or any
:meth:`~repro.obs.MetricsRegistry.write_trace` output) and answers the
operational questions the raw log obscures: where did the batch's wall
clock go per phase, which algorithms dominated, how many jobs failed and
why, and how effective the caches were.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.obs.trace import JOB_EVENT, PHASE_NAMES, RUN_EVENT

__all__ = ["summarize_trace", "render_report"]


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


def summarize_trace(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate a trace into the report's numbers (machine-readable form).

    Returns a dict with ``jobs`` (count/ok/failed/cached, wall stats),
    ``phases`` (per-phase total seconds, share of summed wall, mean),
    ``algos`` (per-algorithm job count and wall), ``failures`` (count per
    ``error_kind``), ``cache`` (serving-cache effectiveness aggregated from
    ``batch.run`` events: per-run hit and coalescing totals plus the
    result cache's cumulative counters and hit rate), ``warm``
    (warm-start rescheduling outcomes from ``batch.job`` events: jobs
    served from a base schedule, mean reuse fraction, fallback counts
    per reason) and ``spans`` (every non-job event name: count, total
    seconds).
    """
    jobs = [e for e in events if e["name"] == JOB_EVENT]
    walls = sorted(float(e["attrs"].get("wall", e["dur"])) for e in jobs)
    total_wall = sum(walls)

    phase_total: Dict[str, float] = {}
    phase_jobs: Dict[str, int] = {}
    algo_stats: Dict[str, Dict[str, float]] = {}
    failures: Dict[str, int] = {}
    cached = 0
    for e in jobs:
        attrs = e["attrs"]
        for phase, secs in attrs.get("phases", {}).items():
            phase_total[phase] = phase_total.get(phase, 0.0) + float(secs)
            phase_jobs[phase] = phase_jobs.get(phase, 0) + 1
        algo = str(attrs.get("algo", "?"))
        stats = algo_stats.setdefault(algo, {"jobs": 0.0, "wall": 0.0})
        stats["jobs"] += 1
        stats["wall"] += float(attrs.get("wall", e["dur"]))
        if attrs.get("cached"):
            cached += 1
        if not attrs.get("ok", True):
            kind = str(attrs.get("error_kind") or "unknown")
            failures[kind] = failures.get(kind, 0) + 1

    # Warm-start outcomes ride on batch.job events ("warm" attribute).
    warm_served = 0
    warm_fallbacks: Dict[str, int] = {}
    warm_fractions: List[float] = []
    for e in jobs:
        warm = e["attrs"].get("warm")
        if not isinstance(warm, dict) or not warm:
            continue
        fallback = warm.get("fallback")
        if fallback is not None:
            key = str(fallback)
            warm_fallbacks[key] = warm_fallbacks.get(key, 0) + 1
        else:
            warm_served += 1
            warm_fractions.append(float(warm.get("fraction", 0.0)))

    # Serving-cache effectiveness rides on batch.run events: per-run
    # hit/coalescing totals are additive; the embedded "cache" stats are
    # cumulative, so the last run carries the end-of-trace truth.
    runs = [e for e in events if e["name"] == RUN_EVENT]
    cache_info: Dict[str, Any] = {}
    if runs:
        cache_info = {
            "batches": len(runs),
            "hits": sum(int(e["attrs"].get("cache_hits", 0)) for e in runs),
            "coalesced": sum(int(e["attrs"].get("coalesced", 0)) for e in runs),
        }
        last_stats = None
        for e in runs:
            if isinstance(e["attrs"].get("cache"), dict):
                last_stats = e["attrs"]["cache"]
        if last_stats is not None:
            lookups = int(last_stats.get("hits", 0)) + int(last_stats.get("misses", 0))
            cache_info.update(
                evictions=int(last_stats.get("evictions", 0)),
                size=int(last_stats.get("size", 0)),
                capacity=int(last_stats.get("capacity", 0)),
                hit_rate=(
                    int(last_stats.get("hits", 0)) / lookups if lookups else 0.0
                ),
            )

    spans: Dict[str, Dict[str, float]] = {}
    for e in events:
        if e["name"] == JOB_EVENT:
            continue
        stats = spans.setdefault(str(e["name"]), {"count": 0.0, "seconds": 0.0})
        stats["count"] += 1
        stats["seconds"] += float(e["dur"])

    ordered: List[Tuple[str, float]] = []
    for phase in PHASE_NAMES:  # canonical order first, extras after
        if phase in phase_total:
            ordered.append((phase, phase_total[phase]))
    for phase in sorted(phase_total):
        if phase not in PHASE_NAMES:
            ordered.append((phase, phase_total[phase]))

    return {
        "jobs": {
            "count": len(jobs),
            "ok": len(jobs) - sum(failures.values()),
            "failed": sum(failures.values()),
            "cached": cached,
            "wall_total": total_wall,
            "wall_mean": total_wall / len(jobs) if jobs else 0.0,
            "wall_p50": _percentile(walls, 0.50),
            "wall_p95": _percentile(walls, 0.95),
            "wall_max": walls[-1] if walls else 0.0,
        },
        "phases": [
            {
                "phase": phase,
                "seconds": secs,
                "share": secs / total_wall if total_wall > 0 else 0.0,
                "mean": secs / phase_jobs.get(phase, 1),
            }
            for phase, secs in ordered
        ],
        "algos": [
            {"algo": algo, "jobs": int(st["jobs"]), "wall": st["wall"]}
            for algo, st in sorted(algo_stats.items())
        ],
        "failures": dict(sorted(failures.items())),
        "cache": cache_info,
        "warm": {
            "served": warm_served,
            "mean_reuse": (
                sum(warm_fractions) / len(warm_fractions)
                if warm_fractions else 0.0
            ),
            "fallbacks": dict(sorted(warm_fallbacks.items())),
        },
        "spans": [
            {"name": name, "count": int(st["count"]), "seconds": st["seconds"]}
            for name, st in sorted(spans.items())
        ],
    }


def render_report(events: List[Dict[str, Any]]) -> str:
    """Render the human report (``repro-sched report``'s default output)."""
    from repro.util.tables import format_table

    summary = summarize_trace(events)
    blocks: List[str] = []

    jobs = summary["jobs"]
    if jobs["count"]:
        blocks.append(
            f"jobs: {jobs['count']} ({jobs['ok']} ok, {jobs['failed']} failed, "
            f"{jobs['cached']} cached) — wall mean {jobs['wall_mean'] * 1e3:.2f}ms, "
            f"p50 {jobs['wall_p50'] * 1e3:.2f}ms, p95 {jobs['wall_p95'] * 1e3:.2f}ms, "
            f"max {jobs['wall_max'] * 1e3:.2f}ms"
        )
        blocks.append(
            format_table(
                ["phase", "total [ms]", "share", "mean/job [ms]"],
                [
                    [
                        row["phase"],
                        row["seconds"] * 1e3,
                        f"{row['share'] * 100:.1f}%",
                        row["mean"] * 1e3,
                    ]
                    for row in summary["phases"]
                ],
                title="where the wall-clock went",
            )
        )
        blocks.append(
            format_table(
                ["algorithm", "jobs", "wall [ms]"],
                [
                    [row["algo"], row["jobs"], row["wall"] * 1e3]
                    for row in summary["algos"]
                ],
                title="per algorithm",
            )
        )
        if summary["failures"]:
            blocks.append(
                format_table(
                    ["error kind", "jobs"],
                    [[kind, count] for kind, count in summary["failures"].items()],
                    title="failures",
                )
            )
    else:
        blocks.append("no batch.job events in this trace")
    cache = summary["cache"]
    if cache:
        line = (
            f"serving cache: {cache['hits']} hit(s), "
            f"{cache['coalesced']} coalesced across {cache['batches']} batch(es)"
        )
        if "hit_rate" in cache:
            line += (
                f" — cumulative hit rate {cache['hit_rate'] * 100:.1f}%, "
                f"{cache['evictions']} eviction(s), "
                f"{cache['size']}/{cache['capacity']} entries"
            )
        blocks.append(line)
    warm = summary["warm"]
    if warm["served"] or warm["fallbacks"]:
        line = (
            f"warm-start: {warm['served']} job(s) replayed from a base "
            f"schedule (mean reuse {warm['mean_reuse'] * 100:.1f}%)"
        )
        if warm["fallbacks"]:
            falls = ", ".join(
                f"{reason}: {count}"
                for reason, count in warm["fallbacks"].items()
            )
            line += f"; cold fallbacks — {falls}"
        blocks.append(line)
    if summary["spans"]:
        blocks.append(
            format_table(
                ["span", "count", "total [ms]"],
                [
                    [row["name"], row["count"], row["seconds"] * 1e3]
                    for row in summary["spans"]
                ],
                title="other spans",
            )
        )
    return "\n\n".join(blocks)
