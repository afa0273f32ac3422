"""The weighted task-graph (macro-dataflow) program model.

A parallel program is a DAG ``G = (V, E)``: nodes are tasks with a positive
computation cost ``comp(t)``; edges are dependencies with a non-negative
communication cost ``comm(t, t')`` that is paid only when the two endpoints
run on different processors (Section 2 of the paper).

:class:`TaskGraph` is a build-then-freeze structure: tasks and edges are
added freely, then :meth:`TaskGraph.freeze` validates acyclicity, fixes a
topological order, and makes the graph immutable.  All schedulers require a
frozen graph; freezing is idempotent and returns the graph itself, so
``schedule(g.freeze(), ...)`` is always safe.

Tasks are dense integer ids ``0..V-1`` (assigned in insertion order) with an
optional human-readable name used by traces, Gantt charts, and DOT export.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np
import numpy.typing as npt

from repro.exceptions import CycleError, FrozenGraphError, GraphError

__all__ = ["TaskGraph", "AdjacencyCSR", "CSRLists"]

IntArray = npt.NDArray[np.int64]
FloatArray = npt.NDArray[np.float64]


class CSRLists(NamedTuple):
    """The CSR arrays mirrored into plain Python lists.

    CPython indexes a list roughly three times faster than a NumPy array
    (every ``ndarray[i]`` allocates a NumPy scalar), so the interpreted
    scheduling kernels run their scalar loops over these mirrors while the
    vectorized passes use the ndarrays directly.  Built once per frozen
    graph and cached (:attr:`AdjacencyCSR.lists`).
    """

    pred_ptr: List[int]
    pred_ids: List[int]
    pred_comm: List[float]
    succ_ptr: List[int]
    succ_ids: List[int]
    succ_comm: List[float]


@dataclass(frozen=True)
class AdjacencyCSR:
    """Flat compressed-sparse-row view of a frozen :class:`TaskGraph`.

    Predecessors of task ``t`` are ``pred_ids[pred_ptr[t]:pred_ptr[t+1]]``
    (ascending id order, matching :meth:`TaskGraph.preds`) with the edge's
    communication cost at the same index in ``pred_comm``; ``succ_*`` is the
    mirrored successor view.  The arrays are contiguous NumPy int64/float64
    buffers, so the array-native scheduling kernel
    (:mod:`repro.core.flb_array`), the vectorized graph properties
    (:mod:`repro.graph.properties`) and the shared-memory graph codec
    (:mod:`repro.graphstore`) all operate on the one representation without
    copies; interpreted kernels iterate the cached :attr:`lists` mirrors —
    see ``docs/performance.md``.
    """

    pred_ptr: IntArray  # int64, length V+1
    pred_ids: IntArray  # int64, length E
    pred_comm: FloatArray  # float64, length E
    succ_ptr: IntArray  # int64, length V+1
    succ_ids: IntArray  # int64, length E
    succ_comm: FloatArray  # float64, length E

    @cached_property
    def lists(self) -> CSRLists:
        """Plain-list mirrors of the six arrays (cached; read-only by contract)."""
        return CSRLists(
            self.pred_ptr.tolist(),
            self.pred_ids.tolist(),
            self.pred_comm.tolist(),
            self.succ_ptr.tolist(),
            self.succ_ids.tolist(),
            self.succ_comm.tolist(),
        )

    def in_degrees(self) -> List[int]:
        """Per-task predecessor counts as a plain list (hot-loop friendly)."""
        counts: List[int] = np.diff(self.pred_ptr).tolist()
        return counts

    def in_degrees_array(self) -> IntArray:
        """Per-task predecessor counts as an int64 vector (array kernels)."""
        return np.diff(self.pred_ptr)


class TaskGraph:
    """A directed acyclic task graph with computation and communication costs.

    >>> g = TaskGraph()
    >>> a = g.add_task(2.0, name="a")
    >>> b = g.add_task(3.0, name="b")
    >>> g.add_edge(a, b, comm=1.0)
    >>> g.freeze()                                      # doctest: +ELLIPSIS
    <TaskGraph V=2 E=1 ...>
    >>> g.comp(b), g.comm(a, b), g.succs(a)
    (3.0, 1.0, (1,))
    """

    __slots__ = (
        "_comp",
        "_names",
        "_edges",
        "_succs",
        "_preds",
        "_frozen",
        "_topo",
        "_entries",
        "_exits",
        "_csr",
        "_comps_np",
        "_prop_cache",
        "_fingerprint",
    )

    def __init__(self) -> None:
        self._comp: List[float] = []
        self._names: List[Optional[str]] = []
        self._edges: Dict[Tuple[int, int], float] = {}
        self._succs: List[Tuple[int, ...]] = []
        self._preds: List[Tuple[int, ...]] = []
        self._frozen = False
        self._topo: Tuple[int, ...] = ()
        self._entries: Tuple[int, ...] = ()
        self._exits: Tuple[int, ...] = ()
        self._csr: Optional[AdjacencyCSR] = None
        self._comps_np: Optional[FloatArray] = None
        # Memoized graph-pure derived quantities (bottom levels, per-machine
        # edge delays, ...), valid once frozen — the graph is immutable from
        # then on.  Owned by repro.graph.properties / the scheduling kernels.
        self._prop_cache: Dict[object, object] = {}
        self._fingerprint: Optional[str] = None

    # -- construction -------------------------------------------------------

    def add_task(self, comp: float, name: Optional[str] = None) -> int:
        """Add a task with computation cost ``comp`` (finite, > 0); return
        its id."""
        self._check_mutable()
        comp = float(comp)
        if not 0 < comp < math.inf:
            raise GraphError(
                f"task computation cost must be positive and finite, got {comp}"
            )
        self._comp.append(comp)
        self._names.append(name)
        return len(self._comp) - 1

    def add_tasks(
        self,
        comps: Iterable[float],
        names: Optional[Iterable[Optional[str]]] = None,
    ) -> List[int]:
        """Add several tasks; return their ids in order.

        ``names``, when given, is a parallel iterable of task names (``None``
        entries leave the default ``t<id>`` name); it must have exactly one
        entry per computation cost.
        """
        comps = list(comps)
        if names is None:
            return [self.add_task(c) for c in comps]
        names = list(names)
        if len(names) != len(comps):
            raise GraphError(
                f"names must parallel comps: got {len(names)} names "
                f"for {len(comps)} tasks"
            )
        return [self.add_task(c, name=n) for c, n in zip(comps, names)]

    def add_edge(self, src: int, dst: int, comm: float = 0.0) -> None:
        """Add a dependency ``src -> dst`` with communication cost ``comm``
        (finite, >= 0)."""
        self._check_mutable()
        self._check_task(src)
        self._check_task(dst)
        if src == dst:
            raise GraphError(f"self-loop on task {src}")
        comm = float(comm)
        if not 0 <= comm < math.inf:
            raise GraphError(
                f"communication cost must be non-negative and finite, got {comm}"
            )
        if (src, dst) in self._edges:
            raise GraphError(f"duplicate edge ({src}, {dst})")
        self._edges[(src, dst)] = comm

    def set_name(self, task: int, name: str) -> None:
        self._check_mutable()
        self._check_task(task)
        self._names[task] = name

    def freeze(self) -> "TaskGraph":
        """Validate the DAG, fix a topological order, and make immutable.

        Idempotent.  Raises :class:`~repro.exceptions.CycleError` if the
        graph has a cycle and :class:`~repro.exceptions.GraphError` if it is
        empty.
        """
        if self._frozen:
            return self
        n = len(self._comp)
        if n == 0:
            raise GraphError("task graph has no tasks")
        # CSR first (it needs no topological order), then Kahn over its
        # list mirrors — the adjacency is materialized exactly once.
        csr = self._compile_csr()
        lists = csr.lists
        succ_ptr, succ_ids = lists.succ_ptr, lists.succ_ids
        pred_ptr, pred_ids = lists.pred_ptr, lists.pred_ids
        # Kahn's algorithm; FIFO over ids keeps the order deterministic.
        indeg = csr.in_degrees()
        frontier = [t for t in range(n) if indeg[t] == 0]
        topo: List[int] = []
        head = 0
        while head < len(frontier):
            t = frontier[head]
            head += 1
            topo.append(t)
            for j in range(succ_ptr[t], succ_ptr[t + 1]):
                s = succ_ids[j]
                indeg[s] -= 1
                if indeg[s] == 0:
                    frontier.append(s)
        if len(topo) != n:
            # Name an actual cycle, not just the stuck tasks: the graphlint
            # witness finder walks one back edge to a concrete path.
            # Imported lazily — repro.verify.graphlint imports this module.
            from repro.verify.graphlint import find_cycle

            witness = find_cycle(n, self._edges.keys())
            if witness is not None:
                path = " -> ".join(self.name(t) for t in witness)
                raise CycleError(f"task graph contains a cycle: {path}")
            stuck = sorted(t for t in range(n) if indeg[t] > 0)
            raise CycleError(
                f"task graph contains a cycle through tasks {stuck[:10]}"
            )
        # CSR slices are already in ascending-id order, so the tuple views
        # come straight off the mirrors without re-sorting.
        self._succs = [
            tuple(succ_ids[succ_ptr[t]:succ_ptr[t + 1]]) for t in range(n)
        ]
        self._preds = [
            tuple(pred_ids[pred_ptr[t]:pred_ptr[t + 1]]) for t in range(n)
        ]
        self._topo = tuple(topo)
        self._entries = tuple(t for t in range(n) if not self._preds[t])
        self._exits = tuple(t for t in range(n) if not self._succs[t])
        self._csr = csr
        self._frozen = True
        return self

    def _compile_csr(self) -> AdjacencyCSR:
        """Flatten the adjacency into NumPy CSR arrays (one-time, ``O(V + E)``).

        Built directly from the edge dictionary with two ``lexsort`` passes
        instead of a per-edge Python loop, so freezing a million-task graph
        costs a handful of vectorized sweeps.  The successor view is sorted
        by ``(src, dst)`` and the predecessor view by ``(dst, src)`` —
        exactly the ascending-id slice order of :meth:`succs`/:meth:`preds`.
        """
        n = len(self._comp)
        e = len(self._edges)
        if e == 0:
            zeros = np.zeros(n + 1, dtype=np.int64)
            empty_i = np.zeros(0, dtype=np.int64)
            empty_f = np.zeros(0, dtype=np.float64)
            return AdjacencyCSR(zeros, empty_i, empty_f, zeros.copy(), empty_i.copy(), empty_f.copy())
        src = np.fromiter((k[0] for k in self._edges), dtype=np.int64, count=e)
        dst = np.fromiter((k[1] for k in self._edges), dtype=np.int64, count=e)
        comm = np.fromiter(self._edges.values(), dtype=np.float64, count=e)
        by_src = np.lexsort((dst, src))
        succ_ids = dst[by_src]
        succ_comm = comm[by_src]
        succ_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=succ_ptr[1:])
        by_dst = np.lexsort((src, dst))
        pred_ids = src[by_dst]
        pred_comm = comm[by_dst]
        pred_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=n), out=pred_ptr[1:])
        return AdjacencyCSR(pred_ptr, pred_ids, pred_comm, succ_ptr, succ_ids, succ_comm)

    # -- queries -------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def num_tasks(self) -> int:
        """``V`` — the number of tasks."""
        return len(self._comp)

    @property
    def num_edges(self) -> int:
        """``E`` — the number of dependencies."""
        return len(self._edges)

    def tasks(self) -> range:
        return range(len(self._comp))

    def comp(self, task: int) -> float:
        """Computation cost of ``task``."""
        return self._comp[task]

    @property
    def comps(self) -> Tuple[float, ...]:
        """All computation costs, indexed by task id."""
        return tuple(self._comp)

    def comps_array(self) -> FloatArray:
        """Computation costs as a float64 vector (cached; frozen graphs only)."""
        self._check_frozen()
        if self._comps_np is None:
            self._comps_np = np.asarray(self._comp, dtype=np.float64)
        return self._comps_np

    def name(self, task: int) -> str:
        name = self._names[task]
        return name if name is not None else f"t{task}"

    def comm(self, src: int, dst: int) -> float:
        """Communication cost of edge ``src -> dst`` (KeyError if absent)."""
        return self._edges[(src, dst)]

    def has_edge(self, src: int, dst: int) -> bool:
        return (src, dst) in self._edges

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate ``(src, dst, comm)`` triples in insertion order."""
        for (src, dst), comm in self._edges.items():
            yield src, dst, comm

    def succs(self, task: int) -> Tuple[int, ...]:
        """Successor ids of ``task`` (frozen graphs only)."""
        self._check_frozen()
        return self._succs[task]

    def preds(self, task: int) -> Tuple[int, ...]:
        """Predecessor ids of ``task`` (frozen graphs only)."""
        self._check_frozen()
        return self._preds[task]

    def csr(self) -> AdjacencyCSR:
        """Flat CSR adjacency view, compiled on :meth:`freeze`.

        The fast scheduling kernels iterate this instead of the tuple-keyed
        edge dictionary; the dict API stays authoritative for construction,
        traces, and serialization.  Frozen graphs only.
        """
        self._check_frozen()
        assert self._csr is not None
        return self._csr

    def in_degree(self, task: int) -> int:
        self._check_frozen()
        return len(self._preds[task])

    def out_degree(self, task: int) -> int:
        self._check_frozen()
        return len(self._succs[task])

    @property
    def topological_order(self) -> Tuple[int, ...]:
        self._check_frozen()
        return self._topo

    @property
    def entry_tasks(self) -> Tuple[int, ...]:
        """Tasks with no input edges."""
        self._check_frozen()
        return self._entries

    @property
    def exit_tasks(self) -> Tuple[int, ...]:
        """Tasks with no output edges."""
        self._check_frozen()
        return self._exits

    def fingerprint(self) -> str:
        """Stable content hash of the graph (32 hex chars, blake2b-128).

        Two graphs with the same computation costs, the same weighted edge
        set, and the same effective task names (:meth:`name`, so an unset
        name equals an explicit ``"t<id>"``) have the same fingerprint —
        regardless of edge insertion order, ``copy()``, pickling, or the
        process computing it.  Any change to a comp, a communication cost,
        an edge, or a name changes it.

        This is the identity key of the zero-copy graph plane: the
        shared-memory registry (:mod:`repro.graphstore`) and the
        content-addressed result cache (:mod:`repro.resultcache`) are both
        addressed by it.  Frozen graphs cache the digest; mutable graphs
        recompute on every call.
        """
        if self._fingerprint is not None:
            return self._fingerprint
        h = hashlib.blake2b(digest_size=16)
        n = len(self._comp)
        h.update(b"repro-taskgraph-v1")
        h.update(struct.pack("<Q", n))
        h.update(struct.pack(f"<{n}d", *self._comp))
        for t in range(n):
            name = self.name(t).encode()
            h.update(struct.pack("<I", len(name)))
            h.update(name)
        h.update(struct.pack("<Q", len(self._edges)))
        for (src, dst), comm in sorted(self._edges.items()):
            h.update(struct.pack("<QQd", src, dst, comm))
        digest = h.hexdigest()
        if self._frozen:
            self._fingerprint = digest
        return digest

    def memo_get(self, key: object) -> Any:
        """Read a graph-pure memo slot (``None`` when absent).

        The public face of the property cache for code outside
        :mod:`repro.graph`: derived quantities that depend only on the
        (frozen, hence immutable) graph — bottom-level vectors,
        machine-keyed edge delays, subgraph digests — memoized under any
        hashable key.  Frozen graphs only: a mutable graph could
        invalidate the memo after the fact.
        """
        self._check_frozen()
        return self._prop_cache.get(key)

    def memo_set(self, key: object, value: object) -> None:
        """Store a graph-pure derived quantity under ``key``.

        The value must be a pure function of the frozen graph (plus
        whatever parameters are folded into ``key``) — the memo is shared
        by every consumer of this graph instance and copied by
        :meth:`copy`.  Frozen graphs only.
        """
        self._check_frozen()
        self._prop_cache[key] = value

    def total_comp(self) -> float:
        """Sum of all computation costs (sequential execution time)."""
        return sum(self._comp)

    def total_comm(self) -> float:
        """Sum of all communication costs."""
        return sum(self._edges.values())

    def __repr__(self) -> str:
        state = "frozen" if self._frozen else "building"
        return f"<TaskGraph V={self.num_tasks} E={self.num_edges} {state}>"

    # -- helpers ---------------------------------------------------------------

    def copy(self, mutable: bool = False) -> "TaskGraph":
        """Return a copy; ``mutable=True`` yields an unfrozen copy.

        Frozen-to-frozen copies share the immutable derived state (CSR
        arrays, topological order, cached properties, fingerprint, subgraph
        hashes) instead of recompiling and re-hashing it — the batch/serve
        planes copy structurally unchanged graphs on every dispatch.
        """
        g = TaskGraph()
        g._comp = list(self._comp)
        g._names = list(self._names)
        g._edges = dict(self._edges)
        if self._frozen and not mutable:
            g._succs = list(self._succs)
            g._preds = list(self._preds)
            g._topo = self._topo
            g._entries = self._entries
            g._exits = self._exits
            g._csr = self._csr
            g._comps_np = self._comps_np
            g._prop_cache = dict(self._prop_cache)
            g._fingerprint = self._fingerprint
            g._frozen = True
        return g

    def relabeled(self, permutation: Sequence[int]) -> "TaskGraph":
        """Return a copy with task ids renamed by ``permutation``.

        ``permutation[old_id] == new_id``; used by tests to check that
        schedulers do not depend on accidental id ordering beyond their
        documented tie-breaking.
        """
        n = self.num_tasks
        if sorted(permutation) != list(range(n)):
            raise GraphError("relabeling must be a permutation of task ids")
        g = TaskGraph()
        g._comp = [0.0] * n
        g._names = [None] * n
        for old in range(n):
            g._comp[permutation[old]] = self._comp[old]
            g._names[permutation[old]] = self._names[old]
        for (src, dst), comm in self._edges.items():
            g._edges[(permutation[src], permutation[dst])] = comm
        if self._frozen:
            g.freeze()
        return g

    def _check_task(self, task: int) -> None:
        if not 0 <= task < len(self._comp):
            raise GraphError(f"unknown task id {task}")

    def _check_mutable(self) -> None:
        if self._frozen:
            raise FrozenGraphError("task graph is frozen")

    def _check_frozen(self) -> None:
        if not self._frozen:
            raise GraphError("operation requires a frozen task graph; call freeze()")
