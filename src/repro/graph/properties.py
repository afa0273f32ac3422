"""Static task-graph analysis: levels, critical path, width, CCR.

These are the quantities the paper's Section 2 defines and its algorithms
consume:

* **bottom level** ``BL(t)`` — longest path (computation + communication)
  from ``t`` to any exit task, *including* ``comp(t)``.  FLB and ETF use it
  as the tie-breaking priority ("the longest path to any exit tasks").
* **top level** ``TL(t)`` — longest path from any entry task to ``t``,
  *excluding* ``comp(t)``; DSC's dynamic priority is ``TL + BL``.
* **static level** ``SL(t)`` — bottom level without communication costs
  (used by DLS and HLFET).
* **ALAP** — latest possible start time, ``CP - BL(t)``; MCP's priority.
* **critical path** ``CP`` — longest path through the graph including
  communication; equals ``max_t BL(t)``.
* **CCR** — average communication cost over average computation cost.
* **width** ``W`` — the maximum number of pairwise path-unconnected tasks
  (the maximum antichain).  The number of simultaneously ready tasks never
  exceeds ``W``, which is where the ``log W`` in FLB's complexity comes from.

Width is computed exactly via Dilworth's theorem (minimum chain cover of the
transitive closure = ``V -`` maximum bipartite matching); the closure uses
Python-int bitsets and the matching is Hopcroft–Karp, so graphs in the
paper's size range (V ≈ 2000) are handled in seconds.  A cheap lower bound
(the peak ready-set size of a sequential sweep) is also provided for quick
reporting on very large graphs.
"""

from __future__ import annotations

import hashlib
import struct
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.graph.taskgraph import TaskGraph

__all__ = [
    "bottom_levels",
    "bottom_levels_array",
    "top_levels",
    "top_levels_array",
    "static_levels",
    "alap_times",
    "critical_path_length",
    "critical_path_tasks",
    "ccr",
    "width",
    "width_lower_bound",
    "parallelism_profile",
    "subgraph_hashes",
    "subgraph_hash_array",
    "transitive_closure_bitsets",
]


#: Frontier width from which a level sweep evaluates a frontier with one
#: batch of NumPy calls instead of task by task.  A batch costs a fixed
#: ~25 array calls; a task costs one interpreted pass over its edges, so
#: below this width (chains, LU's shallow levels, V≈2000 stencils) the
#: scalar loop is cheaper, and above it (FFT butterflies, layered and
#: large square graphs) the batch is.
_VECTOR_WIDTH = 64

IntArray = npt.NDArray[np.int64]
FloatArray = npt.NDArray[np.float64]


def _concat_slices(starts: IntArray, counts: IntArray) -> IntArray:
    """Indices selecting ``[starts[k], starts[k]+counts[k])`` back to back.

    The standard repeat/cumsum gather: builds the concatenation of many CSR
    slices without a Python loop.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(starts, counts) + within


def bottom_levels(graph: TaskGraph) -> List[float]:
    """``BL(t)`` for every task (communication included, ``comp(t)`` included).

    A fresh list each call, from the memoized :func:`bottom_levels_array`.
    """
    return bottom_levels_array(graph).tolist()


def bottom_levels_array(graph: TaskGraph) -> FloatArray:
    """``BL`` as a read-only float64 vector (memoized on the frozen graph).

    One reverse :func:`_level_sweep`: ``BL(t) = comp(t) + max(comm(t, s) +
    BL(s))`` over the CSR successors, ``comp(t)`` at an exit.  Every task
    gets the same float additions whether its frontier runs scalar or
    vectorized (``max`` is order-independent), so the vector is the same
    whatever the graph's shape.
    """
    graph.freeze()
    cached = graph.memo_get("bl_arr")
    if cached is None:
        cached = _bottom_sweep(graph)
        graph.memo_set("bl_arr", cached)
    return cached  # type: ignore[no-any-return]


def top_levels(graph: TaskGraph) -> List[float]:
    """``TL(t)`` for every task (communication included, ``comp(t)`` excluded).

    A fresh list each call, from the memoized :func:`top_levels_array`.
    """
    return top_levels_array(graph).tolist()


def top_levels_array(graph: TaskGraph) -> FloatArray:
    """``TL`` as a read-only float64 vector (memoized): the forward
    :func:`_level_sweep`, ``TL(t) = max(TL(p) + comp(p) + comm(p, t))`` over
    the CSR predecessors, 0 at an entry."""
    graph.freeze()
    cached = graph.memo_get("tl_arr")
    if cached is None:
        cached = _top_sweep(graph)
        graph.memo_set("tl_arr", cached)
    return cached  # type: ignore[no-any-return]


# -- the level sweep ------------------------------------------------------------

#: ``(lo, hi, wide)``: a run of sweep positions and how it is evaluated.
_Segment = Tuple[int, int, bool]


def _sweep_order(graph: TaskGraph) -> Tuple[IntArray, IntArray, IntArray]:
    """``(order, pos, last)``: the topological order as a vector, each
    task's position in it, and per position the position of its last
    predecessor (``-1`` at an entry).

    The order is FIFO Kahn, so a task enters it right when its last
    predecessor leaves the queue: ``last`` never decreases along the order,
    and any run of positions ``[a, b)`` with ``last[b - 1] < a`` holds no
    edge.  Such a run is a frontier — every task in it depends only on
    positions before it — and a run that starts at a level's first task and
    is as long as that rule allows is exactly the level.
    """
    n = graph.num_tasks
    csr = graph.csr()
    order = np.fromiter(graph.topological_order, dtype=np.int64, count=n)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    fed = np.flatnonzero(np.diff(csr.pred_ptr))
    last = np.full(n, -1, dtype=np.int64)
    if fed.size:
        last[fed] = np.maximum.reduceat(pos[csr.pred_ids], csr.pred_ptr[fed])
    return order, pos, last[order]


def _segments(last: IntArray, reverse: bool) -> List[_Segment]:
    """The sweep's runs in the order it takes them: every frontier of at
    least ``_VECTOR_WIDTH`` tasks, wide, and the narrow stretches between.

    Forward, the frontier starting at ``c`` runs to the first position
    whose last predecessor is at or after ``c``; in reverse, the one
    ending at ``b`` starts right after ``last[b - 1]``.  Each wide frontier
    is found with one search, so a narrow stretch costs nothing per level.
    """
    n = len(last)
    at = np.arange(n)
    segments: List[_Segment] = []
    if reverse:
        wide = np.flatnonzero(at - last >= _VECTOR_WIDTH)
        i = n
        while True:
            k = int(np.searchsorted(wide, i - 1, side="right")) - 1
            if k < 0:
                break
            b = int(wide[k]) + 1
            a = int(last[b - 1]) + 1
            if b < i:
                segments.append((b, i, False))
            segments.append((a, b, True))
            i = a
        if i > 0:
            segments.append((0, i, False))
        return segments
    ends = np.searchsorted(last, at)
    wide = np.flatnonzero(ends - at >= _VECTOR_WIDTH)
    i = 0
    while True:
        k = int(np.searchsorted(wide, i))
        if k == len(wide):
            break
        c = int(wide[k])
        e = int(ends[c])
        if c > i:
            segments.append((i, c, False))
        segments.append((c, e, True))
        i = e
    if i < n:
        segments.append((i, n, False))
    return segments


def _level_sweep(
    order: IntArray,
    segments: List[_Segment],
    scalar: Callable[[List[float], int, int], None],
    vector: Callable[[FloatArray, int, int], None],
) -> FloatArray:
    """Run ``segments`` in order: a narrow one through ``scalar`` over a
    list of values indexed by sweep position (CPython indexes a list ~3x
    faster than an array), a wide one through ``vector`` over an array of
    the same values indexed by task id.  On each switch the run just
    finished is copied across (one gather or scatter through ``order``),
    so either side reads every value computed before it and each value
    crosses at most once: ``O(V)`` conversions however the graph
    alternates.  Returns the values by task id, read-only."""
    values = [0.0] * len(order)
    array = np.zeros(len(order))
    mode: Optional[bool] = None
    run_lo = run_hi = 0
    for lo, hi, wide in segments:
        if wide is not mode:
            if mode:
                values[run_lo:run_hi] = array[order[run_lo:run_hi]].tolist()
            elif mode is not None:
                array[order[run_lo:run_hi]] = values[run_lo:run_hi]
            mode, run_lo, run_hi = wide, lo, hi
        else:
            run_lo, run_hi = min(run_lo, lo), max(run_hi, hi)
        if wide:
            vector(array, lo, hi)
        else:
            scalar(values, lo, hi)
    if mode is False:
        array[order[run_lo:run_hi]] = values[run_lo:run_hi]
    array.flags.writeable = False
    return array


def _bottom_sweep(graph: TaskGraph) -> FloatArray:
    """``BL`` in reverse sweep order: a narrow stretch task by task over
    the CSR list mirrors, each frontier of ``_VECTOR_WIDTH`` or more tasks
    in one batch over the CSR arrays."""
    order, pos, last = _sweep_order(graph)
    csr = graph.csr()
    segments = _segments(last, reverse=True)
    narrow = any(not wide for _lo, _hi, wide in segments)
    succ_pos = pos[csr.succ_ids].tolist() if narrow else []
    tasks = graph.topological_order
    comps = graph.comps
    lists = csr.lists
    succ_ptr, succ_comm = lists.succ_ptr, lists.succ_comm

    def scalar(bl: List[float], lo: int, hi: int) -> None:
        for i in range(hi - 1, lo - 1, -1):
            t = tasks[i]
            a, b = succ_ptr[t], succ_ptr[t + 1]
            if b - a == 1:
                # Every candidate is positive, so a lone one is the max:
                # the same two additions, without the loop.
                bl[i] = comps[t] + (succ_comm[a] + bl[succ_pos[a]])
                continue
            best = 0.0
            for k in range(a, b):
                cand = succ_comm[k] + bl[succ_pos[k]]
                if cand > best:
                    best = cand
            bl[i] = comps[t] + best

    comps_arr = graph.comps_array()

    def vector(bl: FloatArray, lo: int, hi: int) -> None:
        front = order[lo:hi]
        starts = csr.succ_ptr[front]
        counts = csr.succ_ptr[front + 1] - starts
        best = np.zeros(hi - lo)
        rows = np.flatnonzero(counts)
        if rows.size:
            cnt = counts[rows]
            idx = _concat_slices(starts[rows], cnt)
            cand = csr.succ_comm[idx] + bl[csr.succ_ids[idx]]
            best[rows] = np.maximum.reduceat(cand, np.cumsum(cnt) - cnt)
        bl[front] = comps_arr[front] + best

    return _level_sweep(order, segments, scalar, vector)


def _top_sweep(graph: TaskGraph) -> FloatArray:
    """``TL`` in sweep order, evaluated as in :func:`_bottom_sweep`."""
    order, pos, last = _sweep_order(graph)
    csr = graph.csr()
    segments = _segments(last, reverse=False)
    narrow = any(not wide for _lo, _hi, wide in segments)
    pred_pos = pos[csr.pred_ids].tolist() if narrow else []
    tasks = graph.topological_order
    comps = graph.comps
    lists = csr.lists
    pred_ptr, pred_ids, pred_comm = lists.pred_ptr, lists.pred_ids, lists.pred_comm

    def scalar(tl: List[float], lo: int, hi: int) -> None:
        for i in range(lo, hi):
            t = tasks[i]
            a, b = pred_ptr[t], pred_ptr[t + 1]
            if b - a == 1:
                # A lone (positive) candidate is the max, as in BL.
                tl[i] = tl[pred_pos[a]] + comps[pred_ids[a]] + pred_comm[a]
                continue
            best = 0.0
            for k in range(a, b):
                cand = tl[pred_pos[k]] + comps[pred_ids[k]] + pred_comm[k]
                if cand > best:
                    best = cand
            tl[i] = best

    comps_arr = graph.comps_array()

    def vector(tl: FloatArray, lo: int, hi: int) -> None:
        front = order[lo:hi]
        starts = csr.pred_ptr[front]
        counts = csr.pred_ptr[front + 1] - starts
        rows = np.flatnonzero(counts)
        if rows.size:
            cnt = counts[rows]
            idx = _concat_slices(starts[rows], cnt)
            src = csr.pred_ids[idx]
            cand = tl[src] + comps_arr[src] + csr.pred_comm[idx]
            tl[front[rows]] = np.maximum.reduceat(cand, np.cumsum(cnt) - cnt)

    return _level_sweep(order, segments, scalar, vector)


#: Domain separator for the per-task digests (16 bytes, blake2b ``person``).
_SUBHASH_PERSON = b"repro-subhash-v1"


def subgraph_hashes(graph: TaskGraph) -> List[bytes]:
    """Per-task *upward subgraph* digests (16-byte blake2b each; cached).

    ``hash(t)`` covers everything a scheduler's placement of ``t`` can read
    from the graph on the ancestor side: ``comp(t)``, the effective task name
    (:meth:`TaskGraph.name`, so an unset name equals an explicit ``"t<id>"``),
    and the multiset of ``(hash(pred), comm(pred, t))`` pairs.  Two tasks get
    equal digests iff their upward closures are isomorphic with identical
    weights and names — in particular the digests are invariant under edge
    insertion order and, for explicitly named tasks, under
    :meth:`TaskGraph.relabeled` permutations.

    This is the identity the incremental rescheduling plane
    (:mod:`repro.incremental`) diffs: a task whose upward hash (and bottom
    level) is unchanged between two graphs sees exactly the same placement
    inputs, so its base-schedule placement can be reused verbatim.

    One ``O(V + E)`` CSR topological sweep; frozen graphs cache the result
    like :meth:`TaskGraph.fingerprint`.
    """
    graph.freeze()
    cached = graph._prop_cache.get("subh")
    if cached is not None:
        return cached  # type: ignore[return-value]
    digests: List[bytes] = [b""] * graph.num_tasks
    _fill_subgraph_hashes(graph, digests, graph.topological_order)
    graph._prop_cache["subh"] = digests
    return digests


def _fill_subgraph_hashes(
    graph: TaskGraph, digests: List[bytes], tasks: Sequence[int]
) -> None:
    """Compute digests for ``tasks`` (a topological-order subsequence) in
    place, assuming every predecessor outside ``tasks`` is already filled."""
    csr = graph.csr().lists
    pred_ptr, pred_ids, pred_comm = csr.pred_ptr, csr.pred_ids, csr.pred_comm
    comps = graph.comps
    blake2b = hashlib.blake2b
    pack = struct.pack
    name_of = graph.name
    for t in tasks:
        name = name_of(t).encode()
        lo, hi = pred_ptr[t], pred_ptr[t + 1]
        entries = sorted(
            digests[pred_ids[i]] + pack("<d", pred_comm[i]) for i in range(lo, hi)
        )
        payload = pack("<dI", comps[t], len(name)) + name + b"".join(entries)
        digests[t] = blake2b(
            payload, digest_size=16, person=_SUBHASH_PERSON
        ).digest()


def subgraph_hash_array(graph: TaskGraph) -> npt.NDArray[np.bytes_]:
    """:func:`subgraph_hashes` as a NumPy ``S16`` vector (cached).

    The fixed-width view makes whole-graph digest comparison a single
    vectorized ``==`` — the hot path of the incremental differ.
    """
    graph.freeze()
    cached = graph._prop_cache.get("subh_arr")
    if cached is not None:
        return cached  # type: ignore[return-value]
    result = np.array(subgraph_hashes(graph), dtype="S16")
    result.flags.writeable = False
    graph._prop_cache["subh_arr"] = result
    return result


def static_levels(graph: TaskGraph) -> List[float]:
    """``SL(t)``: bottom level ignoring communication costs (DLS, HLFET)."""
    graph.freeze()
    sl = [0.0] * graph.num_tasks
    for t in reversed(graph.topological_order):
        best = 0.0
        for s in graph.succs(t):
            if sl[s] > best:
                best = sl[s]
        sl[t] = graph.comp(t) + best
    return sl


def critical_path_length(graph: TaskGraph) -> float:
    """Length of the longest path including communication (``max_t BL(t)``)."""
    return max(bottom_levels(graph))


def critical_path_tasks(graph: TaskGraph) -> List[int]:
    """One critical path as a list of task ids, entry to exit."""
    graph.freeze()
    bl = bottom_levels(graph)
    tl = top_levels(graph)
    cp = max(bl)
    # Start from an entry task on the critical path, then greedily follow
    # successors that keep TL + BL == CP.
    eps = 1e-9 * max(1.0, cp)
    start = max(
        (t for t in graph.entry_tasks),
        key=lambda t: bl[t],
    )
    path = [start]
    current = start
    while graph.succs(current):
        nxt = None
        for s in graph.succs(current):
            if abs(tl[s] + bl[s] - cp) <= eps and abs(
                tl[current] + graph.comp(current) + graph.comm(current, s) - tl[s]
            ) <= eps:
                nxt = s
                break
        if nxt is None:
            break
        path.append(nxt)
        current = nxt
    return path


def alap_times(graph: TaskGraph) -> List[float]:
    """Latest possible start times, ``ALAP(t) = CP - BL(t)`` (MCP priorities)."""
    bl = bottom_levels(graph)
    cp = max(bl)
    return [cp - b for b in bl]


def ccr(graph: TaskGraph) -> float:
    """Communication-to-computation ratio: mean comm cost / mean comp cost."""
    v = graph.num_tasks
    e = graph.num_edges
    if e == 0:
        return 0.0
    mean_comp = graph.total_comp() / v
    mean_comm = graph.total_comm() / e
    return mean_comm / mean_comp


def parallelism_profile(graph: TaskGraph) -> List[int]:
    """Number of tasks per depth level (depth = longest hop count from entry)."""
    graph.freeze()
    depth = [0] * graph.num_tasks
    for t in graph.topological_order:
        for p in graph.preds(t):
            if depth[p] + 1 > depth[t]:
                depth[t] = depth[p] + 1
    counts: Dict[int, int] = {}
    for d in depth:
        counts[d] = counts.get(d, 0) + 1
    return [counts[d] for d in sorted(counts)]


def width_lower_bound(graph: TaskGraph) -> int:
    """Peak ready-set size of a sequential topological sweep.

    All simultaneously ready tasks are pairwise unconnected, so this is a
    valid antichain size, hence a lower bound on the true width.  ``O(V+E)``.
    """
    graph.freeze()
    remaining = [graph.in_degree(t) for t in graph.tasks()]
    ready: Deque[int] = deque(graph.entry_tasks)
    peak = len(ready)
    while ready:
        t = ready.popleft()
        for s in graph.succs(t):
            remaining[s] -= 1
            if remaining[s] == 0:
                ready.append(s)
        if len(ready) > peak:
            peak = len(ready)
    return peak


def transitive_closure_bitsets(graph: TaskGraph) -> List[int]:
    """Reachability sets as Python-int bitsets: bit ``j`` of ``reach[i]`` is
    set iff there is a non-empty path ``i -> j``.

    ``O(V * E)`` word operations on ``V``-bit integers; fast in practice for
    the graph sizes used in the paper.
    """
    graph.freeze()
    n = graph.num_tasks
    reach = [0] * n
    for t in reversed(graph.topological_order):
        r = 0
        for s in graph.succs(t):
            r |= (1 << s) | reach[s]
        reach[t] = r
    return reach


def width(graph: TaskGraph) -> int:
    """Exact task-graph width ``W`` (maximum antichain) via Dilworth.

    The minimum number of chains covering the DAG equals ``V`` minus the size
    of a maximum matching in the bipartite graph whose edges are the pairs of
    the transitive closure, and by Dilworth's theorem the minimum chain cover
    equals the maximum antichain.
    """
    graph.freeze()
    n = graph.num_tasks
    reach = transitive_closure_bitsets(graph)
    adjacency = [_bits(reach[t]) for t in range(n)]
    # Augmenting-path DFS recursion can be as deep as the longest chain.
    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * n + 1000))
    try:
        matching = _hopcroft_karp(n, adjacency)
    finally:
        sys.setrecursionlimit(old_limit)
    return n - matching


def _bits(mask: int) -> List[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _hopcroft_karp(n: int, adjacency: Sequence[Sequence[int]]) -> int:
    """Maximum bipartite matching (left = right = 0..n-1).  Returns its size."""
    INF = float("inf")
    match_left: List[int] = [-1] * n
    match_right: List[int] = [-1] * n
    dist: List[float] = [0.0] * n

    def bfs() -> bool:
        queue: Deque[int] = deque()
        for u in range(n):
            if match_left[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = match_right[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in adjacency[u]:
            w = match_right[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_left[u] = v
                match_right[v] = u
                return True
        dist[u] = INF
        return False

    matching = 0
    while bfs():
        for u in range(n):
            if match_left[u] == -1 and dfs(u):
                matching += 1
    return matching
