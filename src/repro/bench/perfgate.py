"""The timing protocol of the relative perfgate checks.

A perfgate check compares two arms on this host: the array kernel against
the seed loop, the certifier against the kernel, metrics on against
metrics off, and so on.  :func:`paired_rounds` times the two arms back to
back, round by round, so a change in host speed moves both arms of a round
alike and cancels in whatever the check reads from that round.

Absolute numbers are perfbench's (``BENCHMARK.json``); the ledger of them
is ``benchmarks/perf_gate.py`` (``docs/performance.md``).
"""

from __future__ import annotations

import gc
import time
from typing import Callable, List, Tuple

__all__ = ["paired_rounds"]


def paired_rounds(
    numerator: Callable[[], object],
    denominator: Callable[[], object],
    rounds: int,
) -> List[Tuple[float, float]]:
    """Per-round ``(seconds of numerator(), seconds of denominator())``.

    Each round runs both zero-argument arms back to back, alternating which
    goes first, with ``gc.collect()`` before each arm, so neither arm pays
    for the other's garbage.  Callers assert on the median round: on a host
    whose speed drifts for seconds at a time, two arms timed in separate
    blocks, or read as separate minima, can each catch a different speed;
    the two halves of one round rarely do.  Most read the ratio
    (``statistics.median(a / b for a, b in rounds)``); a bound with an
    absolute term reads both times of the round.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    arms = (numerator, denominator)
    times = []
    for r in range(rounds):
        seconds = [0.0, 0.0]
        for arm in (0, 1) if r % 2 == 0 else (1, 0):
            gc.collect()
            t0 = time.perf_counter()
            arms[arm]()
            seconds[arm] = time.perf_counter() - t0
        times.append((seconds[0], seconds[1]))
    return times
