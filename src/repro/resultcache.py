"""Content-addressed result cache for batch serving.

Schedulers in this repo are deterministic: the same graph content, the same
machine, and the same algorithm always produce the same schedule — so a
result cache keyed by ``(graph fingerprint, machine fingerprint, algo)``
returns *exact* answers, not approximations.  For a serving front-end (the
ROADMAP north-star), repeated requests are the common case: a cache hit
answers in ``O(1)`` without dispatching a worker, without touching the
graph plane, and with bit-identical summary numbers.

The key carries every field that shapes the answer *or its report*:
``validate``/``certify`` because a certified result answers strictly more
than an uncertified one.

:class:`ResultCache` is a bounded LRU with hit/miss/eviction counters.
:func:`repro.batch.schedule_many` consults it before dispatch and inserts
successful results after; failures are never cached (timeouts and worker
deaths are not deterministic, and a transiently failing scheduler should be
re-tried, not remembered).  The machine is part of the key: every key
carries the :meth:`~repro.machine.model.MachineModel.fingerprint` of the
machine the schedule was computed for (which covers its processor count),
so two machines with equal ``num_procs`` but different
``speeds``/``latency``/``comm_scale`` can never collide.

The cache is shared across batches by :class:`repro.batch.BatchScheduler`;
counters surface through ``BatchScheduler.stats()``,
``repro.batch.batch_stats`` and ``repro-sched batch --stats``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, Optional, Tuple

from repro.machine.model import MachineModel

__all__ = ["ResultCache", "CacheKey", "make_key", "DEFAULT_CACHE_SIZE"]

#: Default bound for :class:`ResultCache`; one entry is a few hundred bytes
#: (a scalar ``BatchResult``), so the default costs well under a megabyte.
DEFAULT_CACHE_SIZE = 1024

#: Cache key: (graph fingerprint, machine fingerprint, algo, validate,
#: certify); the machine fingerprint is
#: :meth:`repro.machine.model.MachineModel.fingerprint`.
CacheKey = Tuple[str, str, str, bool, bool]


def make_key(
    fingerprint: str,
    machine: MachineModel,
    algo: str,
    validate: bool,
    certify: bool,
) -> CacheKey:
    """Build a :data:`CacheKey` (the one place its field order is spelled)."""
    return (fingerprint, machine.fingerprint(), algo, validate, certify)


class ResultCache:
    """Bounded LRU mapping ``(fingerprint, machine fingerprint, algo,
    validate, certify)`` to a successful :class:`~repro.batch.BatchResult`.

    ``capacity=0`` disables the cache (every lookup misses nothing — no
    counters move, nothing is stored), which keeps call sites free of
    ``if cache`` branching.
    """

    __slots__ = ("_capacity", "_data", "hits", "misses", "evictions")

    def __init__(self, capacity: int = DEFAULT_CACHE_SIZE) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self._capacity = capacity
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def enabled(self) -> bool:
        return self._capacity > 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Optional[Hashable]) -> Optional[object]:
        """Look up a key; counts a hit or a miss.  ``None`` keys (uncacheable
        jobs) and a disabled cache return ``None`` without counting."""
        if key is None or not self._capacity:
            return None
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Optional[Hashable], value: object) -> None:
        """Insert/refresh a key, evicting the least recently used entry
        beyond capacity."""
        if key is None or not self._capacity:
            return
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self._capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop all entries (counters are kept; see :meth:`reset_stats`)."""
        self._data.clear()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._data),
            "capacity": self._capacity,
        }

    def __repr__(self) -> str:
        return (
            f"<ResultCache {len(self._data)}/{self._capacity} "
            f"hits={self.hits} misses={self.misses} evictions={self.evictions}>"
        )
