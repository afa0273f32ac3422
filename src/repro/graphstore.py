"""Zero-copy graph plane: a shared-memory task-graph registry.

The batch front-end (:mod:`repro.batch`) used to pickle the entire
``O(V + E)`` :class:`~repro.graph.taskgraph.TaskGraph` over a ``Pipe`` for
*every* job, so a sweep of 30 ``(procs, algo)`` jobs over one 2000-task
graph shipped the same quarter-megabyte graph 30 times — the transport
dwarfed the near-linear scheduling kernel it fed.  This module separates
graph *transport* from job *dispatch*:

* :class:`GraphStore` (supervisor side) registers a frozen graph **once**
  into POSIX shared memory (:mod:`multiprocessing.shared_memory`) as flat
  arrays — the computation costs plus the CSR adjacency compiled by
  ``TaskGraph.freeze()`` — keyed by the graph's stable content hash
  (:meth:`~repro.graph.taskgraph.TaskGraph.fingerprint`).  Registration is
  idempotent per fingerprint; jobs then carry the small segment *name*
  instead of the graph.
* :func:`attach` (worker side) opens the segment zero-copy, rebuilds a
  frozen :class:`TaskGraph` from the flat arrays (one bulk ``frombytes``
  per array instead of unpickling a Python object web), closes the mapping
  immediately, and holds the decoded graph in a small per-process LRU —
  so a worker that serves 30 jobs on the same graph decodes it exactly
  once.

Lifecycle is strictly supervisor-owned: workers only ever ``close()`` their
attachment, never ``unlink()``.  The store unlinks every segment in
:meth:`GraphStore.close` (also wired through ``with``, a
``weakref.finalize`` at garbage collection, and the caller's
``try/finally`` in :func:`repro.batch.schedule_many`), so a worker that is
``SIGKILL``-ed mid-job can never strand a ``/dev/shm/repro_*`` segment —
the kernel drops its mapping with the process and the supervisor still
owns the name.

The rebuilt graph is *bit-identical* for scheduling purposes: computation
and communication costs cross the boundary as binary IEEE doubles (never
text), and ``freeze()`` on identical structure reproduces the identical
topological order, so deterministic schedulers return placements with the
same float start times they would produce on the original object.
"""

from __future__ import annotations

import json
import os
import struct
import weakref
from collections import OrderedDict
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graph.taskgraph import TaskGraph

__all__ = [
    "GraphStore",
    "GraphStoreError",
    "attach",
    "encode_graph",
    "decode_graph",
    "worker_cache_info",
    "clear_worker_cache",
    "SEGMENT_PREFIX",
    "WORKER_CACHE_SIZE",
]

#: Every segment name starts with this, so a leak check is one glob over
#: ``/dev/shm`` (see the CI workflow and tests/test_graphstore.py).
SEGMENT_PREFIX = "repro_tg"

#: Decoded graphs kept per worker process (read at each decode, so a test
#: can shrink it).  Batches rarely interleave more than a handful of
#: distinct graphs per worker; keeping this small bounds worker memory to a
#: few graphs.
WORKER_CACHE_SIZE = 4

_MAGIC = b"RPTG"
#: v2: CSR pointers/ids are int64 (was int32) so the wire format is byte-for-
#: byte the NumPy buffers ``TaskGraph.freeze()`` holds — encode and the array
#: scheduling kernel share one representation without a widening copy.
_VERSION = 2
_HEADER = struct.Struct("<4sHQQQ")  # magic, version, V, E, names_len


class GraphStoreError(GraphError):
    """A graph-plane registry/attach failure (bad segment, unknown key)."""


# -- flat-array codec --------------------------------------------------------


def encode_graph(graph: TaskGraph) -> bytes:
    """Serialise a frozen graph to the flat-array wire format.

    Layout (all little-endian, no alignment padding)::

        header   : magic "RPTG", version, V, E, names_len
        comps    : V   float64
        pred_ptr : V+1 int64      succ_ptr : V+1 int64
        pred_ids : E   int64      succ_ids : E   int64
        pred_comm: E   float64    succ_comm: E   float64
        names    : names_len bytes (JSON list; null = unnamed task)

    The six CSR arrays are exactly the graph's ``csr()`` NumPy buffers,
    dumped with ``ndarray.tobytes`` — encoding is ``O(V + E)`` memcpy, not
    a per-object pickle walk.
    """
    if not graph.frozen:
        raise GraphStoreError("only frozen graphs can be registered; call freeze()")
    csr = graph.csr()
    names_blob = json.dumps(
        [graph._names[t] for t in graph.tasks()], ensure_ascii=False
    ).encode()
    parts = [
        _HEADER.pack(_MAGIC, _VERSION, graph.num_tasks, graph.num_edges,
                     len(names_blob)),
        graph.comps_array().tobytes(),
        csr.pred_ptr.tobytes(),
        csr.pred_ids.tobytes(),
        csr.pred_comm.tobytes(),
        csr.succ_ptr.tobytes(),
        csr.succ_ids.tobytes(),
        csr.succ_comm.tobytes(),
        names_blob,
    ]
    return b"".join(parts)


def decode_graph(buf: "bytes | memoryview") -> TaskGraph:
    """Rebuild a frozen :class:`TaskGraph` from :func:`encode_graph` bytes.

    ``buf`` may be any buffer (``bytes``, ``memoryview`` over shared
    memory); it may be longer than the payload (shm segments are rounded up
    to page size) — lengths come from the header.  The graph is rebuilt
    from the comps, the successor CSR and the names through
    :meth:`TaskGraph.from_arrays`, so a corrupt segment (non-finite
    weight, out-of-range id, self-loop, duplicate edge, cycle) raises
    :class:`GraphStoreError` instead of decoding into an invalid graph.
    The stored predecessor view is redundant with the successor view and
    is not read back.
    """
    mv = memoryview(buf)
    try:
        if len(mv) < _HEADER.size:
            raise GraphStoreError(f"graph segment too short ({len(mv)} bytes)")
        magic, version, n, e, names_len = _HEADER.unpack_from(mv, 0)
        if magic != _MAGIC:
            raise GraphStoreError(f"bad graph segment magic {magic!r}")
        if version != _VERSION:
            raise GraphStoreError(f"unsupported graph segment version {version}")
        # Section offsets in encode_graph's layout: the successor view
        # starts after the comps and the (unread) predecessor view.
        comps_at = _HEADER.size
        succ_at = comps_at + 8 * n + 8 * (n + 1) + 16 * e
        names_at = succ_at + 8 * (n + 1) + 16 * e
        if names_at + names_len > len(mv):
            raise GraphStoreError("truncated graph segment")

        def take(dtype: "type[np.generic]", count: int, offset: int) -> np.ndarray:
            # Copy out of the shared mapping: the decoded graph must outlive
            # the segment (the supervisor may unlink it at any time).
            return np.frombuffer(mv, dtype=dtype, count=count, offset=offset).copy()

        comps = take(np.float64, n, comps_at)
        succ_ptr = take(np.int64, n + 1, succ_at)
        succ_ids = take(np.int64, e, succ_at + 8 * (n + 1))
        succ_comm = take(np.float64, e, succ_at + 8 * (n + 1) + 8 * e)
        try:
            names = json.loads(bytes(mv[names_at:names_at + names_len]).decode())
        except ValueError as exc:
            raise GraphStoreError(f"graph segment names are corrupt: {exc}") from None
    finally:
        mv.release()
    if not isinstance(names, list) or len(names) != n:
        raise GraphStoreError(f"graph segment names do not match its {n} tasks")
    out_degree = np.diff(succ_ptr)
    if succ_ptr[0] != 0 or succ_ptr[-1] != e or (out_degree < 0).any():
        raise GraphStoreError("graph segment has a corrupt successor index")
    try:
        return TaskGraph.from_arrays(
            comps, np.repeat(np.arange(n), out_degree), succ_ids, succ_comm,
            names,
        )
    except GraphError as exc:
        raise GraphStoreError(f"corrupt graph segment: {exc}") from None


# -- supervisor side: the registry -------------------------------------------


class GraphStore:
    """Supervisor-side registry of shared-memory graph segments.

    ``register()`` is idempotent per content fingerprint and returns the
    segment *name* — the key a :class:`~repro.batch.BatchJob` carries over
    the pipe instead of the graph.  The store owns every segment it
    created: ``close()`` (or ``with``, or garbage collection) unlinks them
    all; :func:`attach` on the worker side never unlinks.
    """

    def __init__(self) -> None:
        # fingerprint -> (SharedMemory, payload size)
        self._segments: Dict[str, Tuple[shared_memory.SharedMemory, int]] = {}
        self._names: Dict[str, str] = {}  # segment name -> fingerprint
        self._seq = 0
        self._closed = False
        # Belt and braces: unlink at GC / interpreter exit even if the
        # owner forgot close() (the multiprocessing resource tracker is the
        # final backstop for a crashed supervisor).
        self._finalizer = weakref.finalize(
            self, GraphStore._unlink_all, self._segments
        )

    # NB: staticmethod taking the dict (not self) so the finalizer holds no
    # reference cycle back to the store.
    @staticmethod
    def _unlink_all(segments: Dict[str, Tuple[shared_memory.SharedMemory, int]]) -> None:
        for shm, _size in segments.values():
            try:
                shm.close()
            except OSError:
                pass
            try:
                shm.unlink()
            except (FileNotFoundError, OSError):
                pass
        segments.clear()

    def register(self, graph: TaskGraph, fingerprint: Optional[str] = None) -> str:
        """Publish ``graph`` (frozen) into shared memory; return its key.

        Re-registering a graph with the same content is free and returns
        the existing segment's name.
        """
        if self._closed:
            raise GraphStoreError("graph store is closed")
        if not graph.frozen:
            raise GraphStoreError(
                "only frozen graphs can be registered; call freeze()"
            )
        fp = fingerprint if fingerprint is not None else graph.fingerprint()
        entry = self._segments.get(fp)
        if entry is not None:
            return entry[0].name
        blob = encode_graph(graph)
        # The fingerprint alone is not a safe segment name: two stores (or
        # a crashed predecessor) may hold the same content, and POSIX shm
        # names are a global namespace.  pid + sequence disambiguates.
        name = f"{SEGMENT_PREFIX}_{fp[:16]}_{os.getpid():x}_{self._seq:x}"
        self._seq += 1
        shm = shared_memory.SharedMemory(name=name, create=True, size=len(blob))
        shm.buf[: len(blob)] = blob
        self._segments[fp] = (shm, len(blob))
        self._names[shm.name] = fp
        return shm.name

    def fingerprint_of(self, name: str) -> Optional[str]:
        """The content fingerprint behind a segment name (None if unknown)."""
        return self._names.get(name)

    def release(self, name: str) -> None:
        """Unlink one segment by name (no-op for unknown names)."""
        fp = self._names.pop(name, None)
        if fp is None:
            return
        shm, _size = self._segments.pop(fp)
        try:
            shm.close()
        except OSError:
            pass
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):
            pass

    def close(self) -> None:
        """Unlink every registered segment.  Idempotent."""
        self._closed = True
        self._finalizer.detach()
        GraphStore._unlink_all(self._segments)
        self._names.clear()

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._segments)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._segments

    @property
    def closed(self) -> bool:
        return self._closed

    def total_bytes(self) -> int:
        """Payload bytes currently registered (excludes page rounding)."""
        return sum(size for _shm, size in self._segments.values())

    def stats(self) -> Dict[str, int]:
        return {"graphs": len(self._segments), "bytes": self.total_bytes()}

    def __enter__(self) -> "GraphStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{len(self)} graph(s)"
        return f"<GraphStore {state}, {self.total_bytes()} bytes>"


# -- worker side: attach + per-process LRU -----------------------------------


def _open_untracked(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without resource-tracker registration.

    CPython < 3.13 registers *attachments* with the multiprocessing
    resource tracker as if the attaching process owned the segment
    (bpo-38119).  Under the ``fork`` start method every worker shares the
    supervisor's tracker, so a worker-side registration/unregistration
    corrupts the supervisor's own bookkeeping (spurious unlinks or KeyError
    noise at shutdown).  Ownership lives with :class:`GraphStore` alone:
    attachments must be invisible to the tracker — via ``track=False``
    where available (3.13+), else by stubbing out ``register`` for the
    duration of the open.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


_worker_cache: "OrderedDict[str, TaskGraph]" = OrderedDict()
_worker_cache_hits = 0
_worker_cache_misses = 0


def attach(name: str) -> TaskGraph:
    """Resolve a graph key to a frozen graph (worker side).

    Opens the shared segment read-only, decodes it into a process-local
    frozen :class:`TaskGraph`, **closes the mapping immediately** (the
    supervisor owns unlinking; a worker holds no shm state between jobs),
    and memoises the decoded graph in a small per-process LRU — repeated
    jobs on the same graph decode it exactly once per worker.
    """
    global _worker_cache_hits, _worker_cache_misses
    cached = _worker_cache.get(name)
    if cached is not None:
        _worker_cache.move_to_end(name)
        _worker_cache_hits += 1
        return cached
    _worker_cache_misses += 1
    try:
        shm = _open_untracked(name)
    except FileNotFoundError:
        raise GraphStoreError(
            f"graph segment {name!r} does not exist (store closed or never "
            f"registered)"
        ) from None
    try:
        graph = decode_graph(shm.buf)
    finally:
        shm.close()
    _worker_cache[name] = graph
    while len(_worker_cache) > WORKER_CACHE_SIZE:
        _worker_cache.popitem(last=False)
    return graph


def worker_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of this process's decoded-graph LRU."""
    return {
        "hits": _worker_cache_hits,
        "misses": _worker_cache_misses,
        "size": len(_worker_cache),
        "capacity": WORKER_CACHE_SIZE,
    }


def clear_worker_cache() -> None:
    """Drop this process's decoded graphs (tests; harmless elsewhere)."""
    global _worker_cache_hits, _worker_cache_misses
    _worker_cache.clear()
    _worker_cache_hits = 0
    _worker_cache_misses = 0


def list_segments() -> List[str]:
    """Names of live ``repro_tg_*`` segments visible in ``/dev/shm``.

    Linux-only diagnostic (returns ``[]`` where /dev/shm does not exist);
    the leak tests and the CI check are built on it.
    """
    base = "/dev/shm"
    try:
        entries = os.listdir(base)
    except OSError:
        return []
    return sorted(e for e in entries if e.startswith(SEGMENT_PREFIX))
