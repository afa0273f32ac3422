"""Per-tenant weighted-fair queuing for the scheduling service.

A single FIFO in front of the scheduler lets one chatty tenant starve
everyone else: whoever submits fastest owns the queue.  The serving
front-end instead runs **start-time fair queuing** over per-tenant FIFOs —
the classic virtual-time construction from packet scheduling, which
"Decentralized List Scheduling" (arXiv:1107.3734) motivates as the
per-participant shape that later shards across schedulers:

* every tenant ``t`` has a weight ``w_t`` (:data:`DEFAULT_WEIGHT`, 1.0,
  unless configured);
* each enqueued item is stamped with a *virtual finish time*
  ``vf = max(V, last_vf_t) + 1 / w_t`` where ``V`` is the queue's virtual
  clock (the ``vf`` of the most recently dequeued item) and ``last_vf_t``
  the tenant's previous stamp;
* :meth:`WeightedFairQueue.get` always dequeues the smallest ``vf``.

The effect: over any backlogged interval, tenant ``t`` receives a
``w_t / sum(w)`` share of dispatch slots, regardless of arrival rates,
while an idle tenant's first item is stamped at the current virtual clock
(no banked credit, no starvation).  Within one tenant, order stays FIFO
(``vf`` ties broken by sequence number).  The queue forgets ``last_vf_t``
once it can no longer change a stamp, so its state stays proportional to
the backlog, not to the number of tenant names ever seen.

The queue is asyncio-native and single-loop: ``put_nowait`` from request
handlers, ``await get()`` from dispatcher tasks, ``task_done``/``join``
for drain barriers — the same contract as :class:`asyncio.Queue`, plus
tenancy.  ``maxsize`` bounds the *total* backlog across tenants; admission
control (:mod:`repro.serve.admission`) decides what to do when it is hit.
"""

from __future__ import annotations

import asyncio
import heapq
from collections import deque
from typing import (
    Deque,
    Dict,
    Generic,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

__all__ = ["WeightedFairQueue", "QueueFull", "DEFAULT_WEIGHT"]

T = TypeVar("T")

#: The weight of a tenant that ``weights`` does not name.
DEFAULT_WEIGHT = 1.0


class QueueFull(Exception):
    """The queue's total backlog bound would be exceeded."""


class WeightedFairQueue(Generic[T]):
    """Bounded multi-tenant queue dequeuing in weighted-fair order.

    ``weights`` maps tenant name to weight; unknown tenants get
    :data:`DEFAULT_WEIGHT`.  Weights must be positive — a higher weight means
    a proportionally larger share of dequeues under contention.
    ``maxsize=0`` means unbounded.
    """

    def __init__(
        self,
        maxsize: int = 0,
        weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        for tenant, weight in (weights or {}).items():
            if weight <= 0:
                raise ValueError(
                    f"tenant {tenant!r} weight must be positive, got {weight}"
                )
        self._maxsize = maxsize
        self._weights: Dict[str, float] = dict(weights or {})
        # Heap of (virtual_finish, sequence, tenant, item).
        self._heap: List[Tuple[float, int, str, T]] = []
        self._seq = 0
        self._vtime = 0.0  # virtual clock: vf of the last dequeued item
        self._tenant_vf: Dict[str, float] = {}
        self._getters: Deque["asyncio.Future[None]"] = deque()
        self._unfinished = 0
        self._finished: Optional[asyncio.Event] = None

    # -- introspection -------------------------------------------------------

    def qsize(self) -> int:
        return len(self._heap)

    def full(self) -> bool:
        return bool(self._maxsize) and len(self._heap) >= self._maxsize

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def weight_of(self, tenant: str) -> float:
        return self._weights.get(tenant, DEFAULT_WEIGHT)

    def depths(self) -> Dict[str, int]:
        """Current backlog per tenant (for stats/health reporting)."""
        out: Dict[str, int] = {}
        for _vf, _seq, tenant, _item in self._heap:
            out[tenant] = out.get(tenant, 0) + 1
        return out

    # -- queue protocol ------------------------------------------------------

    def put_nowait(self, tenant: str, item: T) -> None:
        """Enqueue ``item`` for ``tenant``; raises :class:`QueueFull` at the
        backlog bound (never blocks — shedding is the caller's decision)."""
        if self.full():
            raise QueueFull(
                f"queue full ({len(self._heap)}/{self._maxsize} items)"
            )
        start = max(self._vtime, self._tenant_vf.get(tenant, 0.0))
        vf = start + 1.0 / self.weight_of(tenant)
        self._tenant_vf[tenant] = vf
        heapq.heappush(self._heap, (vf, self._seq, tenant, item))
        self._seq += 1
        if len(self._tenant_vf) > 2 * len(self._heap):
            self._forget_idle_tenants()
        self._unfinished += 1
        if self._finished is not None:
            self._finished.clear()
        while self._getters:
            getter = self._getters.popleft()
            if not getter.done():
                getter.set_result(None)
                break

    async def get(self) -> Tuple[str, T]:
        """Dequeue the weighted-fair next ``(tenant, item)``; waits when
        empty."""
        while not self._heap:
            loop = asyncio.get_running_loop()
            getter: "asyncio.Future[None]" = loop.create_future()
            self._getters.append(getter)
            try:
                await getter
            except asyncio.CancelledError:
                getter.cancel()
                try:
                    self._getters.remove(getter)
                except ValueError:
                    pass
                # If we were woken and cancelled in the same tick, pass the
                # wake-up on so another getter does not starve.
                if self._heap:
                    self._wakeup_next()
                raise
        vf, _seq, tenant, item = heapq.heappop(self._heap)
        self._vtime = vf
        return tenant, item

    def _forget_idle_tenants(self) -> None:
        """Drop every tenant stamp at or below the virtual clock.

        Such a tenant has nothing queued (items leave in stamp order), and
        its next stamp starts at ``max(V, vf) == max(V, 0.0)`` (``V >= 0``),
        exactly as for a tenant never seen: the order does not change.  The
        survivors are tenants with a queued item, so a sweep that runs once
        the map outgrows twice the backlog removes more than half of it:
        amortised O(1) per put, and the map never holds more than
        ``2 * backlog + 1`` tenants, however many names clients send.
        """
        vtime = self._vtime
        self._tenant_vf = {
            tenant: vf for tenant, vf in self._tenant_vf.items() if vf > vtime
        }

    def _wakeup_next(self) -> None:
        while self._getters:
            getter = self._getters.popleft()
            if not getter.done():
                getter.set_result(None)
                break

    def task_done(self) -> None:
        """Mark one previously-gotten item as fully processed."""
        if self._unfinished <= 0:
            raise ValueError("task_done() called more times than items put")
        self._unfinished -= 1
        if self._unfinished == 0 and self._finished is not None:
            self._finished.set()

    async def join(self) -> None:
        """Wait until every enqueued item has been processed
        (``task_done``-ed) — the drain barrier."""
        if self._unfinished == 0:
            return
        if self._finished is None:
            self._finished = asyncio.Event()
        if self._unfinished == 0:  # re-check after the await point creation
            return
        await self._finished.wait()

    def __repr__(self) -> str:
        bound = self._maxsize or "inf"
        return (
            f"<WeightedFairQueue {len(self._heap)}/{bound} "
            f"tenants={len(self.depths())} vtime={self._vtime:.3f}>"
        )
