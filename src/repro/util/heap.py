"""Addressable binary min-heaps.

FLB's five priority structures (two per-processor EP-task lists, the global
non-EP task list, the active-processor list and the global processor list)
all need a priority queue that supports, in ``O(log n)``:

* ``push(item, key)``
* ``pop()`` / ``peek()`` of the minimum-key item
* ``remove(item)`` of an arbitrary item (the paper's ``RemoveItem``)
* ``update(item, key)`` (the paper's ``BalanceList``)

The standard-library :mod:`heapq` only supports the first two, so this module
provides :class:`IndexedHeap`, a classic binary heap augmented with a
position map.  Keys are compared as plain Python tuples/scalars, so callers
encode their tie-breaking rules directly in the key (e.g. FLB uses
``(value, -bottom_level, task_id)``).

The implementation deliberately avoids the "lazy deletion" idiom (pushing
tombstones and skipping them on pop): with lazy deletion the amortised bounds
still hold, but peeks become mutating operations and the structure's size is
no longer meaningful, both of which complicate FLB's bookkeeping and its
complexity accounting.
"""

from __future__ import annotations

from typing import Any, Generic, Hashable, Iterator, List, Optional, Tuple, TypeVar

__all__ = ["IndexedHeap", "HeapEmptyError"]

T = TypeVar("T", bound=Hashable)


class HeapEmptyError(LookupError):
    """Raised when popping or peeking an empty :class:`IndexedHeap`."""


class IndexedHeap(Generic[T]):
    """A binary min-heap with a position map for addressable updates.

    Items must be hashable and unique within the heap.  Keys may be any
    totally ordered value (numbers, tuples, ...).

    >>> h = IndexedHeap()
    >>> h.push("a", 3); h.push("b", 1); h.push("c", 2)
    >>> h.peek()
    ('b', 1)
    >>> h.update("a", 0)
    >>> h.pop()
    ('a', 0)
    >>> h.remove("c")
    2
    >>> len(h)
    1
    """

    __slots__ = ("_items", "_keys", "_pos")

    def __init__(self) -> None:
        self._items: List[T] = []
        self._keys: List[Any] = []
        self._pos: dict[T, int] = {}

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __contains__(self, item: T) -> bool:
        return item in self._pos

    def __iter__(self) -> Iterator[T]:
        """Iterate over items in arbitrary (heap) order."""
        return iter(list(self._items))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pairs = ", ".join(f"{i!r}:{k!r}" for i, k in zip(self._items, self._keys))
        return f"IndexedHeap({{{pairs}}})"

    # -- queries -----------------------------------------------------------

    def key_of(self, item: T) -> Any:
        """Return the key currently associated with ``item``.

        Raises ``KeyError`` if the item is not in the heap.
        """
        return self._keys[self._pos[item]]

    def peek(self) -> Tuple[T, Any]:
        """Return ``(item, key)`` with the minimum key without removing it."""
        if not self._items:
            raise HeapEmptyError("peek on empty heap")
        return self._items[0], self._keys[0]

    def peek_item(self) -> Optional[T]:
        """Return the minimum-key item, or ``None`` if the heap is empty.

        Mirrors the paper's ``Head`` operation, which yields ``NULL`` on an
        empty list.
        """
        return self._items[0] if self._items else None

    def sorted_items(self) -> List[Tuple[T, Any]]:
        """Return all ``(item, key)`` pairs in ascending key order.

        ``O(n log n)``; used by trace rendering and tests, never by the
        scheduling hot path.
        """
        return sorted(zip(self._items, self._keys), key=lambda p: p[1])

    # -- mutations ----------------------------------------------------------

    def push(self, item: T, key: Any) -> None:
        """Insert ``item`` with ``key``.  ``O(log n)``.

        Raises ``ValueError`` if the item is already present (use
        :meth:`update` to change a key).
        """
        if item in self._pos:
            raise ValueError(f"item already in heap: {item!r}")
        self._items.append(item)
        self._keys.append(key)
        self._pos[item] = len(self._items) - 1
        self._sift_up(len(self._items) - 1)

    def pop(self) -> Tuple[T, Any]:
        """Remove and return the ``(item, key)`` pair with minimum key."""
        if not self._items:
            raise HeapEmptyError("pop on empty heap")
        item, key = self._items[0], self._keys[0]
        self._delete_at(0)
        return item, key

    def remove(self, item: T) -> Any:
        """Remove an arbitrary ``item``; return its key.  ``O(log n)``."""
        pos = self._pos[item]
        key = self._keys[pos]
        self._delete_at(pos)
        return key

    def discard(self, item: T) -> bool:
        """Remove ``item`` if present; return whether it was present."""
        if item in self._pos:
            self.remove(item)
            return True
        return False

    def update(self, item: T, key: Any) -> None:
        """Change the key of ``item`` (up or down).  ``O(log n)``."""
        pos = self._pos[item]
        old = self._keys[pos]
        self._keys[pos] = key
        if key < old:
            self._sift_up(pos)
        elif old < key:
            self._sift_down(pos)

    def push_or_update(self, item: T, key: Any) -> None:
        """Insert ``item`` or change its key if already present."""
        if item in self._pos:
            self.update(item, key)
        else:
            self.push(item, key)

    def clear(self) -> None:
        self._items.clear()
        self._keys.clear()
        self._pos.clear()

    # -- internals -----------------------------------------------------------

    def _delete_at(self, pos: int) -> None:
        last = len(self._items) - 1
        item = self._items[pos]
        if pos != last:
            self._move(last, pos)
        self._items.pop()
        self._keys.pop()
        del self._pos[item]
        if pos <= last - 1 and self._items:
            # The swapped-in element may need to move either direction.
            self._sift_up(pos)
            self._sift_down(pos)

    def _move(self, src: int, dst: int) -> None:
        self._items[dst] = self._items[src]
        self._keys[dst] = self._keys[src]
        self._pos[self._items[dst]] = dst

    def _sift_up(self, pos: int) -> None:
        items, keys, posmap = self._items, self._keys, self._pos
        item, key = items[pos], keys[pos]
        while pos > 0:
            parent = (pos - 1) >> 1
            if keys[parent] <= key:
                break
            self._move(parent, pos)
            pos = parent
        items[pos] = item
        keys[pos] = key
        posmap[item] = pos

    def _sift_down(self, pos: int) -> None:
        items, keys, posmap = self._items, self._keys, self._pos
        n = len(items)
        item, key = items[pos], keys[pos]
        while True:
            child = 2 * pos + 1
            if child >= n:
                break
            right = child + 1
            if right < n and keys[right] < keys[child]:
                child = right
            if key <= keys[child]:
                break
            self._move(child, pos)
            pos = child
        items[pos] = item
        keys[pos] = key
        posmap[item] = pos

    # -- debugging / testing --------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the heap property and position-map consistency (tests only)."""
        n = len(self._items)
        assert len(self._keys) == n
        assert len(self._pos) == n
        for i in range(1, n):
            parent = (i - 1) >> 1
            assert not (self._keys[i] < self._keys[parent]), (
                f"heap property violated at {i}: "
                f"{self._keys[i]!r} < {self._keys[parent]!r}"
            )
        for item, pos in self._pos.items():
            assert self._items[pos] == item, f"stale position for {item!r}"
