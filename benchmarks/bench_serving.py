"""Serving front-end under offered load: a smoke-sized sweep.

The load generator lives in :mod:`repro.bench.serving`; the full curve of
``results/serving.txt`` is the registry's ``serving`` entry
(``repro-sched experiment serving``).
"""

from repro.bench.serving import offered_load


def test_sweep_smoke():
    """A miniature sweep: the service stays up, sheds are well-formed, and
    at least the low-rate step achieves goodput."""
    steps, meta = offered_load(rates=(5, 40), window=1.0, max_backlog=4,
                               tasks=400)
    assert steps[0].ok > 0
    assert all(s.other == 0 for s in steps)  # nothing but 200s and 429s
    for s in steps:
        assert all(h >= 1 for h in s.retry_hints)
    assert "repro_serve_requests_total" in meta["metrics_text"]
