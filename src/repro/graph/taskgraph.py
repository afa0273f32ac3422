"""The weighted task-graph (macro-dataflow) program model.

A parallel program is a DAG ``G = (V, E)``: nodes are tasks with a positive
computation cost ``comp(t)``; edges are dependencies with a non-negative
communication cost ``comm(t, t')`` that is paid only when the two endpoints
run on different processors (Section 2 of the paper).

:class:`TaskGraph` is a build-then-freeze structure: tasks and edges are
added freely, then :meth:`TaskGraph.freeze` validates acyclicity, fixes a
topological order, and makes the graph immutable.  All schedulers require a
frozen graph; freezing is idempotent and returns the graph itself, so
``schedule(g.freeze(), ...)`` is always safe.  A reader that already holds
the whole graph as flat arrays builds it frozen in one vectorized call,
:meth:`TaskGraph.from_arrays`, with the same checks and errors.

A frozen graph has one representation, whichever way it was built: the
computation costs and names, the as-submitted edge arrays
(:meth:`TaskGraph.edge_arrays`, in insertion order), the CSR compiled from
them (:meth:`TaskGraph.csr`) and the FIFO Kahn topological order, which
freezing computes because it is also the cycle check.  Every array it hands
out is read-only.  The ``(src, dst)``-keyed edge dictionary behind
:meth:`TaskGraph.comm`/:meth:`TaskGraph.has_edge` and the per-task
:meth:`TaskGraph.succs`/:meth:`TaskGraph.preds` tuples are views built on
first use, so a request that only schedules and certifies never pays for
them.

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
        "_edge_arrays",
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
        # The edges while building; once frozen, a view of _edge_arrays
        # built on first use (None until then), like _succs and _preds.
        self._edges: Optional[Dict[Tuple[int, int], float]] = {}
        self._edge_arrays: Optional[Tuple[IntArray, IntArray, FloatArray]] = None
        self._succs: Optional[List[Tuple[int, ...]]] = None
        self._preds: Optional[List[Tuple[int, ...]]] = None
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
        self._comp.append(_checked_task(comp, name, len(self._comp)))
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
            raise _names_length_error(len(names), len(comps))
        return [self.add_task(c, name=n) for c, n in zip(comps, names)]

    def add_edge(self, src: int, dst: int, comm: float = 0.0) -> None:
        """Add a dependency ``src -> dst`` with communication cost ``comm``
        (finite, >= 0)."""
        self._check_mutable()
        edges = self._edge_dict()
        edges[(src, dst)] = _checked_edge(
            len(self._comp), src, dst, comm, (src, dst) in edges
        )

    @classmethod
    def from_arrays(
        cls,
        comps: npt.ArrayLike,
        src: npt.ArrayLike,
        dst: npt.ArrayLike,
        comm: npt.ArrayLike,
        names: Optional[Sequence[Optional[str]]] = None,
    ) -> "TaskGraph":
        """Build a frozen graph from flat arrays, validated in bulk.

        The result equals ``add_tasks(comps, names)``, then
        ``add_edge(src[i], dst[i], comm[i])`` for every ``i`` in order,
        then :meth:`freeze` — and invalid input raises the
        :class:`~repro.exceptions.GraphError` those calls would raise
        first, with the same message — but every check (positive finite
        comp, finite non-negative comm, ids in range, no self-loop, no
        duplicate edge) runs vectorized, and the CSR is compiled straight
        from the arrays: no per-edge Python loop.  The JSON, TG-text and
        shared-memory readers all build through here.
        """
        comp_arr = _float_array(comps, "comps")
        n = len(comp_arr)
        name_list: List[Optional[str]] = [None] * n if names is None else list(names)
        if len(name_list) != n:
            raise _names_length_error(len(name_list), n)
        bad = ~((comp_arr > 0) & (comp_arr < math.inf))
        if not set(map(type, name_list)) <= _NAME_TYPES:
            bad |= [not isinstance(name, (str, type(None))) for name in name_list]
        unencodable = _first_unencodable(name_list)
        if unencodable is not None:
            bad[unencodable] = True
        if bad.any():
            # add_task's checks on the first bad task raise its error.
            i = int(bad.argmax())
            _checked_task(float(comp_arr[i]), name_list[i], i)
        src_arr = _id_array(src, "src")
        dst_arr = _id_array(dst, "dst")
        comm_arr = _float_array(comm, "comm")
        e = len(src_arr)
        if not len(dst_arr) == len(comm_arr) == e:
            raise GraphError(
                f"src, dst and comm must have one entry per edge: got "
                f"{e}, {len(dst_arr)} and {len(comm_arr)}"
            )
        # One sort of the (src, dst) keys finds duplicates (equal keys end
        # up adjacent; stability keeps the first occurrence first) and is
        # the successor CSR order.  Out-of-range pairs get distinct
        # negative keys so they can never alias a valid edge.
        in_range = (src_arr >= 0) & (src_arr < n) & (dst_arr >= 0) & (dst_arr < n)
        keys = np.where(in_range, src_arr * n + dst_arr, -1 - np.arange(e))
        by_src = np.argsort(keys, kind="stable")
        dup = np.zeros(e, dtype=bool)
        dup[by_src[1:][keys[by_src[1:]] == keys[by_src[:-1]]]] = True
        bad = (
            ~in_range
            | (src_arr == dst_arr)
            | ~((comm_arr >= 0) & (comm_arr < math.inf))
            | dup
        )
        if bad.any():
            # Every edge before the first bad one is valid, so add_edge's
            # checks on that edge raise what the per-edge loop would have.
            i = int(bad.argmax())
            _checked_edge(
                n, int(src_arr[i]), int(dst_arr[i]), float(comm_arr[i]),
                duplicate=bool(dup[i]),
            )
        g = cls()
        g._comp = comp_arr.tolist()
        g._names = name_list
        if n == 0:
            raise GraphError("task graph has no tasks")
        g._freeze_arrays(comp_arr, src_arr, dst_arr, comm_arr, by_src)
        return g

    def set_name(self, task: int, name: str) -> None:
        self._check_mutable()
        self._check_task(task)
        if not isinstance(name, str):
            raise GraphError(f"task name must be a string, got {type(name).__name__}")
        _check_encodable(task, name)
        self._names[task] = name

    def freeze(self) -> "TaskGraph":
        """Validate the DAG, fix a topological order, and make immutable.

        Idempotent.  Raises :class:`~repro.exceptions.CycleError` if the
        graph has a cycle and :class:`~repro.exceptions.GraphError` if it is
        empty.  The frozen graph is the one :meth:`from_arrays` builds from
        the same tasks and edges: the edge dictionary becomes the edge
        arrays, in insertion order.
        """
        if self._frozen:
            return self
        if not self._comp:
            raise GraphError("task graph has no tasks")
        self._freeze_arrays(
            np.array(self._comp, dtype=np.float64), *self._dict_arrays()
        )
        return self

    def _freeze_arrays(
        self,
        comps: FloatArray,
        src: IntArray,
        dst: IntArray,
        comm: FloatArray,
        by_src: Optional[npt.NDArray[np.intp]] = None,
    ) -> None:
        """Freeze over valid, graph-owned arrays: compile the CSR, run Kahn
        over its list mirrors (also the cycle check), and keep the arrays
        read-only.  Nothing is assigned unless the graph is acyclic."""
        n = len(comps)
        csr = _build_csr(n, src, dst, comm, by_src)
        lists = csr.lists
        succ_ptr, succ_ids = lists.succ_ptr, lists.succ_ids
        # Kahn's algorithm; FIFO over ids keeps the order deterministic.
        # The loop walks the list it appends to: it ends when the frontier
        # runs dry, leaving the topological order in place.
        indeg = csr.in_degrees()
        topo = [t for t, d in enumerate(indeg) if not d]
        for t in topo:
            for s in succ_ids[succ_ptr[t]:succ_ptr[t + 1]]:
                indeg[s] -= 1
                if not indeg[s]:
                    topo.append(s)
        if len(topo) != n:
            # Name an actual cycle, not just the stuck tasks: the graphlint
            # witness finder walks one back edge to a concrete path.
            # Imported lazily — repro.verify.graphlint imports this module.
            from repro.verify.graphlint import find_cycle

            witness = find_cycle(n, zip(src.tolist(), dst.tolist()))
            if witness is not None:
                path = " -> ".join(self.name(t) for t in witness)
                raise CycleError(f"task graph contains a cycle: {path}")
            stuck = sorted(t for t in range(n) if indeg[t] > 0)
            raise CycleError(
                f"task graph contains a cycle through tasks {stuck[:10]}"
            )
        for array in (comps, src, dst, comm):
            array.flags.writeable = False
        self._comps_np = comps
        self._edge_arrays = (src, dst, comm)
        self._edges = None
        self._succs = self._preds = None
        self._topo = tuple(topo)
        self._entries = tuple(np.flatnonzero(np.diff(csr.pred_ptr) == 0).tolist())
        self._exits = tuple(np.flatnonzero(np.diff(csr.succ_ptr) == 0).tolist())
        self._csr = csr
        self._frozen = True

    def _dict_arrays(self) -> Tuple[IntArray, IntArray, FloatArray]:
        """A mutable graph's edge dictionary as ``(src, dst, comm)`` arrays,
        in insertion order (``O(E)``)."""
        edges = self._edge_dict()
        e = len(edges)
        src = np.fromiter((k[0] for k in edges), dtype=np.int64, count=e)
        dst = np.fromiter((k[1] for k in edges), dtype=np.int64, count=e)
        comm = np.fromiter(edges.values(), dtype=np.float64, count=e)
        return src, dst, comm

    def _edge_dict(self) -> Dict[Tuple[int, int], float]:
        """The ``(src, dst) -> comm`` dictionary; on a frozen graph it is
        built from the edge arrays on first use."""
        edges = self._edges
        if edges is None:
            assert self._edge_arrays is not None
            src, dst, comm = self._edge_arrays
            edges = dict(zip(zip(src.tolist(), dst.tolist()), comm.tolist()))
            self._edges = edges
        return edges

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
        if self._edge_arrays is not None:
            return len(self._edge_arrays[0])
        return len(self._edge_dict())

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
        """Computation costs as a read-only float64 vector (frozen graphs
        only)."""
        self._check_frozen()
        assert self._comps_np is not None
        return self._comps_np

    def name(self, task: int) -> str:
        name = self._names[task]
        return name if name is not None else f"t{task}"

    def comm(self, src: int, dst: int) -> float:
        """Communication cost of edge ``src -> dst`` (KeyError if absent)."""
        edges = self._edges
        if edges is None:
            edges = self._edge_dict()
        return edges[(src, dst)]

    def has_edge(self, src: int, dst: int) -> bool:
        edges = self._edges
        if edges is None:
            edges = self._edge_dict()
        return (src, dst) in edges

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate ``(src, dst, comm)`` triples in insertion order."""
        if self._edge_arrays is None:
            return ((src, dst, comm) for (src, dst), comm in self._edge_dict().items())
        src, dst, comm = self._edge_arrays
        return zip(src.tolist(), dst.tolist(), comm.tolist())

    def edge_arrays(self) -> Tuple[IntArray, IntArray, FloatArray]:
        """The edges as submitted: read-only ``(src, dst, comm)`` vectors in
        insertion order, the arrays the CSR is compiled from (frozen graphs
        only)."""
        self._check_frozen()
        assert self._edge_arrays is not None
        return self._edge_arrays

    def succs(self, task: int) -> Tuple[int, ...]:
        """Successor ids of ``task`` (frozen graphs only)."""
        views = self._succs
        if views is None:
            lists = self.csr().lists
            views = self._succs = _slices(lists.succ_ptr, lists.succ_ids)
        return views[task]

    def preds(self, task: int) -> Tuple[int, ...]:
        """Predecessor ids of ``task`` (frozen graphs only)."""
        views = self._preds
        if views is None:
            lists = self.csr().lists
            views = self._preds = _slices(lists.pred_ptr, lists.pred_ids)
        return views[task]

    def csr(self) -> AdjacencyCSR:
        """Flat CSR adjacency view, compiled on :meth:`freeze`.

        The scheduling kernels, the level sweeps and the shared-memory codec
        read this; its arrays are read-only.  Frozen graphs only.
        """
        self._check_frozen()
        assert self._csr is not None
        return self._csr

    def in_degree(self, task: int) -> int:
        return len(self.preds(task))

    def out_degree(self, task: int) -> int:
        return len(self.succs(task))

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
        n = len(self._comp)
        # The hashed stream: a tag; V as <u8; the comps as <f8; per task,
        # its effective name's UTF-8 length as <u4 then the bytes; E as
        # <u8; then one (<u8 src, <u8 dst, <f8 comm) record per edge in
        # (src, dst) order — which is the successor CSR's order, so the
        # edge records are three column copies, not a per-edge pack.
        csr = self._csr
        if csr is None:
            csr = _build_csr(n, *self._dict_arrays())
        edges = np.empty(len(csr.succ_ids), dtype=_EDGE_RECORD)
        edges["src"] = np.repeat(np.arange(n), np.diff(csr.succ_ptr))
        edges["dst"] = csr.succ_ids
        edges["comm"] = csr.succ_comm
        h = hashlib.blake2b(digest_size=16)
        h.update(b"repro-taskgraph-v1")
        h.update(struct.pack("<Q", n))
        h.update(np.asarray(self._comp, dtype="<f8").tobytes())
        pack = _NAME_LENGTH.pack
        names = (
            (f"t{t}" if name is None else name).encode()
            for t, name in enumerate(self._names)
        )
        h.update(b"".join([pack(len(name)) + name for name in names]))
        h.update(struct.pack("<Q", len(edges)))
        h.update(edges.tobytes())
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
        """Sum of all communication costs (in edge insertion order)."""
        if self._edge_arrays is not None:
            return sum(self._edge_arrays[2].tolist())
        return sum(self._edge_dict().values())

    def __setstate__(self, state: Tuple[None, Dict[str, Any]]) -> None:
        """Unpickle (and ``copy.deepcopy``): NumPy restores arrays writable,
        so a frozen graph's are made read-only again."""
        for slot, value in state[1].items():
            setattr(self, slot, value)
        if self._frozen:
            assert self._csr is not None and self._edge_arrays is not None
            csr = self._csr
            arrays = [self._comps_np, *self._edge_arrays, csr.pred_ptr,
                      csr.pred_ids, csr.pred_comm, csr.succ_ptr, csr.succ_ids,
                      csr.succ_comm, *self._prop_cache.values()]
            for array in arrays:
                if isinstance(array, np.ndarray):
                    array.flags.writeable = False

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
        if self._frozen and not mutable:
            g._edges = self._edges
            g._edge_arrays = self._edge_arrays
            g._succs = self._succs
            g._preds = self._preds
            g._topo = self._topo
            g._entries = self._entries
            g._exits = self._exits
            g._csr = self._csr
            g._comps_np = self._comps_np
            g._prop_cache = dict(self._prop_cache)
            g._fingerprint = self._fingerprint
            g._frozen = True
        else:
            g._edges = dict(self._edge_dict())
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
        edges = g._edge_dict()
        for src, dst, comm in self.edges():
            edges[(permutation[src], permutation[dst])] = comm
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


# -- shared checks and bulk construction ---------------------------------------

#: The types a task name may have (``None`` = the default ``t<id>``).
_NAME_TYPES = {str, type(None)}

#: One fingerprinted edge: the bytes of ``struct.pack("<QQd", src, dst, comm)``.
_EDGE_RECORD = np.dtype([("src", "<u8"), ("dst", "<u8"), ("comm", "<f8")])
#: A fingerprinted name's UTF-8 byte length, ahead of its bytes.
_NAME_LENGTH = struct.Struct("<I")


def _checked_task(comp: float, name: Optional[str], task: int) -> float:
    """``add_task``'s checks on task ``task``, in order; returns ``comp`` as
    a float."""
    comp = float(comp)
    if not 0 < comp < math.inf:
        raise GraphError(
            f"task computation cost must be positive and finite, got {comp}"
        )
    if name is not None and not isinstance(name, str):
        raise GraphError(
            f"task name must be a string or None, got {type(name).__name__}"
        )
    if name is not None:
        _check_encodable(task, name)
    return comp


def _check_encodable(task: int, name: str) -> None:
    """Reject a name with no UTF-8 encoding (a lone surrogate, which JSON's
    ``\\ud800`` escapes can produce): the fingerprint and the graph codec
    hash and store names as UTF-8."""
    try:
        name.encode()
    except UnicodeEncodeError:
        raise GraphError(
            f"task {task}: name {name!r} cannot be encoded as UTF-8"
        ) from None


def _first_unencodable(names: Sequence[object]) -> Optional[int]:
    """Index of the first string name with no UTF-8 encoding, if any.

    One encode of all the names joined; only when it fails (or a name is
    not a string, which the type check reports) are they tried one by one.
    """
    try:
        "".join(filter(None, names)).encode()  # type: ignore[arg-type]
        return None
    except (TypeError, UnicodeEncodeError):
        pass
    for i, name in enumerate(names):
        if isinstance(name, str):
            try:
                name.encode()
            except UnicodeEncodeError:
                return i
    return None


def _checked_edge(
    num_tasks: int, src: int, dst: int, comm: float, duplicate: bool
) -> float:
    """``add_edge``'s checks, in order; returns ``comm`` as a float."""
    for task in (src, dst):
        if not 0 <= task < num_tasks:
            raise GraphError(f"unknown task id {task}")
    if src == dst:
        raise GraphError(f"self-loop on task {src}")
    comm = float(comm)
    if not 0 <= comm < math.inf:
        raise GraphError(
            f"communication cost must be non-negative and finite, got {comm}"
        )
    if duplicate:
        raise GraphError(f"duplicate edge ({src}, {dst})")
    return comm


def _slices(ptr: List[int], ids: List[int]) -> List[Tuple[int, ...]]:
    """One tuple per CSR row: the per-task ``succs``/``preds`` views, built
    on first use.  CSR rows are already in ascending id order."""
    return [tuple(ids[a:b]) for a, b in zip(ptr, ptr[1:])]


def _names_length_error(names: int, tasks: int) -> GraphError:
    return GraphError(
        f"names must parallel comps: got {names} names for {tasks} tasks"
    )


def _float_array(values: npt.ArrayLike, what: str) -> FloatArray:
    """``values`` as a fresh 1-D float64 array (GraphError if it is not one)."""
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GraphError(f"{what} must be numbers: {exc}") from None
    if arr.ndim != 1:
        raise GraphError(f"{what} must be a flat sequence of numbers")
    return arr


def _id_array(values: npt.ArrayLike, what: str) -> IntArray:
    """``values`` as a 1-D int64 array of task ids; float or bool ids are
    rejected rather than truncated."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise GraphError(f"{what} must be task ids: {exc}") from None
    if arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    if arr.ndim != 1 or arr.dtype.kind not in "iu":
        raise GraphError(f"{what} must be a flat sequence of integer task ids")
    # A copy, never the caller's array: a frozen graph keeps it.
    return np.array(arr, dtype=np.int64)


def _build_csr(
    n: int,
    src: IntArray,
    dst: IntArray,
    comm: FloatArray,
    by_src: Optional[npt.NDArray[np.intp]] = None,
) -> AdjacencyCSR:
    """Both CSR views of a valid edge list, with a sort per view.

    The successor view is ordered by ``(src, dst)`` and the predecessor
    view by ``(dst, src)`` — the ascending-id slice order of
    :meth:`TaskGraph.succs`/:meth:`TaskGraph.preds`.  ``by_src`` is the
    successor order when the caller has already sorted for it.  The six
    arrays are fresh and read-only.
    """
    if by_src is None:
        by_src = np.argsort(src * n + dst)
    by_dst = np.argsort(dst * n + src)
    succ_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=succ_ptr[1:])
    pred_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=n), out=pred_ptr[1:])
    arrays = (
        pred_ptr, src[by_dst], comm[by_dst], succ_ptr, dst[by_src], comm[by_src]
    )
    for array in arrays:
        array.flags.writeable = False
    return AdjacencyCSR(*arrays)

