"""Array-native FLB: the production kernel behind :func:`repro.core.flb.flb`.

The same algorithm as the paper's pseudo-code — Theorem-3 two-candidate
selection with five lazily-invalidated priority lists — over flat state
allocated once per run:

======================  =========  =========================================
vector                  dtype      meaning
======================  =========  =========================================
``order``               int64[V]   placement order (iteration -> task)
``proc``                int64[V]   ``PROC(t)`` — processor assignment
``start`` / ``finish``  f64[V]     ``ST(t)`` / ``FT(t)``
``prt``                 f64[P]     per-processor ready times
``npreds``              int64[V]   unscheduled-predecessor (indegree) counts
``state``               int8[V]    ready flags (not-ready/EP/non-EP/done)
``neg_bl``              f64[V]     ``-BL(t)`` heap keys (vectorized CSR sweep)
``pred_delay``          f64[E]     ``latency + comm_scale * comm`` per edge
======================  =========  =========================================

Initialization is fully vectorized (bottom levels, edge delays,
indegrees), placement is batched into the state vectors and the schedule
is materialized in one shot at the end (no per-placement method calls).
Inside the scalar loop the driver iterates *list mirrors* of the state
vectors: CPython indexes a Python list ~3x faster than an ndarray (every
``arr[i]`` boxes a fresh scalar object), so mirroring costs ``O(V + E)``
once and saves that factor on every access.

The kernel is bit-identical to the observed path
(:func:`repro.core.flb._flb_observed`) and the brute-force reference: same
float expressions, same parenthesization, same heap key tuples, same
deterministic tie rules (enforced by ``tests/test_fastpath_equivalence.py``
over the full suite plus a random-DAG fuzz sweep, with every schedule
re-certified by :mod:`repro.verify`).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import SchedulerError
from repro.graph.properties import _concat_slices, bottom_levels_array
from repro.graph.taskgraph import TaskGraph
from repro.machine.model import MachineModel
from repro.obs.metrics import MetricsRegistry
from repro.schedule.schedule import Schedule

__all__ = ["flb_array"]


def flb_array(
    graph: TaskGraph,
    machine: MachineModel,
    prefer_non_ep_on_tie: bool = True,
    metrics: Optional[MetricsRegistry] = None,
    base: Optional[Schedule] = None,
    warm_stats: Optional[Dict[str, object]] = None,
) -> Schedule:
    """Schedule ``graph`` with the array-native FLB kernel.

    When ``metrics`` is given, the kernel counters
    (``flb_kernel_iterations_total``, ``flb_kernel_heap_ops_total``,
    ``flb_kernel_choices_total{kind}``) are recorded — the same names
    :class:`repro.obs.KernelMetricsObserver` emits for the observed path,
    so ``repro-sched report`` aggregates both.

    ``base`` requests a warm start: the clean prefix of the base schedule
    (same machine, same tie rule, complete) is replayed verbatim and the
    kernel runs only over the dirty suffix — bit-identical to a cold run
    by construction (see :mod:`repro.incremental`), with a silent cold
    fallback otherwise.  When ``warm_stats`` is given it is filled with the
    reuse numbers (``reused`` / ``replayed`` / ``total`` / ``dirty`` /
    ``fraction``) or the ``fallback`` reason; ``metrics`` gets the same
    under ``incr_*``.
    """
    graph.freeze()
    schedule: Optional[Schedule] = None
    counters: Tuple[int, int, int, int] = (0, 0, 0, 0)
    if base is not None:
        if metrics is not None:
            metrics.counter("incr_attempts_total").inc()
        attempt = _try_warm_start(graph, machine, prefer_non_ep_on_tie, base)
        if isinstance(attempt, str):
            if metrics is not None:
                metrics.counter("incr_fallback_total", reason=attempt).inc()
            if warm_stats is not None:
                warm_stats["fallback"] = attempt
        else:
            schedule, counters, info = attempt
            if warm_stats is not None:
                warm_stats.update(info)
            if metrics is not None:
                metrics.counter("incr_warm_total").inc()
                metrics.counter("incr_reused_tasks_total").inc(
                    float(info["reused"])  # type: ignore[arg-type]
                )
                metrics.counter("incr_replayed_tasks_total").inc(
                    float(info["replayed"])  # type: ignore[arg-type]
                )
                metrics.counter("incr_dirty_tasks_total").inc(
                    float(info["dirty"])  # type: ignore[arg-type]
                )
                metrics.gauge("incr_reuse_fraction").set(
                    float(info["fraction"])  # type: ignore[arg-type]
                )

    if schedule is None:
        schedule, counters = _flb_array_impl(graph, machine, prefer_non_ep_on_tie)
    schedule._flb_prefer = prefer_non_ep_on_tie

    if metrics is not None:
        iterations, heap_ops, ep_choices, non_ep_choices = counters
        metrics.counter("flb_kernel_iterations_total").inc(float(iterations))
        metrics.counter("flb_kernel_heap_ops_total").inc(float(heap_ops))
        metrics.counter("flb_kernel_choices_total", kind="ep").inc(
            float(ep_choices)
        )
        metrics.counter("flb_kernel_choices_total", kind="non-ep").inc(
            float(non_ep_choices)
        )
    return schedule


# Ready-task states; scheduling or demoting a task flips its state and
# leaves its heap entries behind as tombstones that peeks pop off the top.
_NOT_READY, _EP, _NON_EP, _DONE = 0, 1, 2, 3


def _kernel_inputs(
    graph: TaskGraph, machine: MachineModel
) -> Tuple[np.ndarray, np.ndarray]:
    """The vectorized per-run inputs: ``-BL`` heap keys and edge delays.

    ``pred_delay`` keeps the reference parenthesization
    ``ft + (lat + scale * comm)``: the inner sum is computed here once per
    edge, with the same two float ops the scalar kernels apply, so hoisting
    it cannot change a single bit of any arrival time.  Both vectors are
    memoized on the frozen graph (``pred_delay`` keyed by the machine's
    latency/scale), so serving many schedules of one graph — the batch
    plane's common shape — pays the ``O(V + E)`` setup once.
    """
    neg_bl = graph.memo_get("neg_bl_arr")
    if neg_bl is None:
        neg_bl = -bottom_levels_array(graph)
        graph.memo_set("neg_bl_arr", neg_bl)
    delay_key = ("pred_delay", machine.latency, machine.comm_scale)
    pred_delay = graph.memo_get(delay_key)
    if pred_delay is None:
        pred_delay = machine.latency + machine.comm_scale * graph.csr().pred_comm
        graph.memo_set(delay_key, pred_delay)
    return neg_bl, pred_delay


def _interp_inputs(
    graph: TaskGraph, machine: MachineModel
) -> Tuple[List[float], List[float], bool, List[float]]:
    """Interpreter list mirrors of the state-vector inputs, memoized next to
    the vectors themselves (graph-pure, machine-keyed where needed), plus
    the machine's speeds (empty for the homogeneous model)."""
    neg_bl_arr, pred_delay_arr = _kernel_inputs(graph, machine)
    delay_key = ("pred_delay_list", machine.latency, machine.comm_scale)
    pred_delay: List[float] = graph.memo_get(delay_key)
    if pred_delay is None:
        pred_delay = pred_delay_arr.tolist()
        graph.memo_set(delay_key, pred_delay)
    neg_bl: List[float] = graph.memo_get("neg_bl_list")
    if neg_bl is None:
        neg_bl = neg_bl_arr.tolist()
        graph.memo_set("neg_bl_list", neg_bl)
    speeds = machine.speeds
    return pred_delay, neg_bl, speeds is None, list(speeds or ())


def _flb_array_impl(
    graph: TaskGraph,
    machine: MachineModel,
    prefer_non_ep_on_tie: bool,
) -> Tuple[Schedule, Tuple[int, int, int, int]]:
    """A cold run: pristine state, entry tasks on the non-EP list.

    The main loop lives in :func:`_flb_array_loop` so the warm-start path
    can drive it from a seeded mid-run state.
    """
    n = graph.num_tasks
    num_procs = machine.num_procs
    csr = graph.csr()
    _pred_delay, neg_bl, _homog, _speeds = _interp_inputs(graph, machine)

    state = [_NOT_READY] * n
    finish = [0.0] * n
    on_proc = [0] * n
    start = [0.0] * n
    order: List[int] = []
    npreds: List[int] = np.diff(csr.pred_ptr).tolist()
    prt = [0.0] * num_procs

    emt_heaps: List[List[Tuple[float, float, int]]] = [[] for _ in range(num_procs)]
    lmt_heaps: List[List[Tuple[float, float, int]]] = [[] for _ in range(num_procs)]
    non_ep_heap: List[Tuple[float, float, int]] = []
    active_heap: List[Tuple[float, int]] = []
    active_est: List[Optional[float]] = [None] * num_procs
    all_heap = [(0.0, p) for p in range(num_procs)]  # sorted => a valid heap

    heap_pushes = 0
    for t in graph.entry_tasks:
        # Entry tasks have no enabling processor and are non-EP with LMT 0.
        state[t] = _NON_EP
        heappush(non_ep_heap, (0.0, neg_bl[t], t))
        heap_pushes += 1

    return _flb_array_loop(
        graph, machine, prefer_non_ep_on_tie,
        state, finish, on_proc, start, order, npreds, prt,
        emt_heaps, lmt_heaps, non_ep_heap, active_heap, active_est, all_heap,
        n, heap_pushes,
    )


def _flb_array_loop(
    graph: TaskGraph,
    machine: MachineModel,
    prefer_non_ep_on_tie: bool,
    state: List[int],
    finish: List[float],
    on_proc: List[int],
    start: List[float],
    order: List[int],
    npreds: List[int],
    prt: List[float],
    emt_heaps: List[List[Tuple[float, float, int]]],
    lmt_heaps: List[List[Tuple[float, float, int]]],
    non_ep_heap: List[Tuple[float, float, int]],
    active_heap: List[Tuple[float, int]],
    active_est: List[Optional[float]],
    all_heap: List[Tuple[float, int]],
    iterations: int,
    heap_pushes: int,
) -> Tuple[Schedule, Tuple[int, int, int, int]]:
    """The main loop over caller-initialized state.

    The five priority structures are plain :mod:`heapq` heaps with *lazy
    invalidation*: every task enters each heap at most once (EP -> non-EP
    demotion is one-way), so the amortized bound per iteration stays
    ``O(log W)`` / ``O(log P)`` and the paper's total
    ``O(V (log W + log P) + E)`` holds.  An active-processor entry is
    current iff its EST equals ``active_est[p]``; an all-processors entry
    iff its key equals ``prt[p]`` (PRT strictly increases).

    Cold runs (:func:`_flb_array_impl`) enter with pristine state and
    ``iterations = V``; warm runs (:func:`_try_warm_start`) enter with the
    base schedule's clean prefix already applied and ``iterations`` equal
    to the remaining suffix.  Either way the per-iteration decisions — the
    same float expressions, heap keys, and tie rules — come from this one
    body, so the two paths cannot drift apart.
    """
    lists = graph.csr().lists
    pred_ptr, pred_ids = lists.pred_ptr, lists.pred_ids
    succ_ptr, succ_ids = lists.succ_ptr, lists.succ_ids
    pred_delay, neg_bl, homogeneous, speeds = _interp_inputs(graph, machine)
    comp: List[float] = graph._comp

    ep_choices = 0
    non_ep_choices = 0

    append_order = order.append
    for _ in range(iterations):
        # Candidate (a): EP task with minimum EST on its enabling processor.
        while active_heap:
            est, p = active_heap[0]
            if active_est[p] == est:
                break
            heappop(active_heap)
        # Candidate (b): non-EP task with minimum LMT, on the earliest-idle
        # processor.
        while non_ep_heap and state[non_ep_heap[0][2]] != _NON_EP:
            heappop(non_ep_heap)
        while True:
            idle_prt, idle_proc = all_heap[0]
            if prt[idle_proc] == idle_prt:
                break
            heappop(all_heap)

        if not active_heap and not non_ep_heap:
            raise SchedulerError("no ready task but schedule incomplete (bug)")
        # Theorem 3: compare the two candidates; per the paper, ties favour
        # the non-EP task (ablatable via prefer_non_ep_on_tie).
        if not non_ep_heap:
            take_ep = True
        elif not active_heap:
            take_ep = False
        else:
            ep_est = active_heap[0][0]
            non_lmt = non_ep_heap[0][0]
            non_est = non_lmt if non_lmt > idle_prt else idle_prt
            take_ep = ep_est < non_est if prefer_non_ep_on_tie else ep_est <= non_est
        if take_ep:
            proc = active_heap[0][1]
            est = active_heap[0][0]
            ep_heap = emt_heaps[proc]
            while state[ep_heap[0][2]] != _EP:  # pragma: no cover - defensive
                heappop(ep_heap)
            task = ep_heap[0][2]
            ep_choices += 1
        else:
            task = non_ep_heap[0][2]
            non_lmt = non_ep_heap[0][0]
            proc = idle_proc
            est = non_lmt if non_lmt > idle_prt else idle_prt
            non_ep_choices += 1

        # ScheduleTask: batched into the state vectors, no method call.
        state[task] = _DONE
        ft = est + (comp[task] if homogeneous else comp[task] / speeds[proc])
        append_order(task)
        start[task] = est
        finish[task] = ft
        on_proc[task] = proc

        # UpdateTaskLists + UpdateProcLists: PRT(proc) rises to ft; EP tasks
        # of proc whose LMT fell below it demote to non-EP.
        prt[proc] = ft
        heappush(all_heap, (ft, proc))
        heap_pushes += 1
        lheap = lmt_heaps[proc]
        while lheap:
            entry = lheap[0]
            if state[entry[2]] != _EP:
                heappop(lheap)
                continue
            if entry[0] >= ft:
                break
            heappop(lheap)
            state[entry[2]] = _NON_EP
            heappush(non_ep_heap, entry)  # same (LMT, -BL, id) key
            heap_pushes += 1
        # Refresh proc's entry in the active list (UpdateProcLists): re-derive
        # it from the head of its EMT list and its PRT.
        eheap = emt_heaps[proc]
        while eheap and state[eheap[0][2]] != _EP:
            heappop(eheap)
        if not eheap:
            active_est[proc] = None
        else:
            aest = eheap[0][0]
            rt = prt[proc]
            if rt > aest:
                aest = rt
            active_est[proc] = aest
            heappush(active_heap, (aest, proc))
            heap_pushes += 1

        # UpdateReadyTasks: one fused pass per newly ready successor
        # computes LMT, EP and EMT-on-EP together.  EMT(t, EP) =
        # max(max FT(pred), max arrival from predecessors off EP), because
        # an off-EP predecessor's arrival dominates its own FT; ``alt``
        # tracks the best arrival from any processor other than the current
        # best's (entries skipped while sharing the then-best processor are
        # dominated by that best, which is folded in if the leader changes).
        # ``pred_delay`` holds ``lat + scale * comm`` parenthesised like
        # MachineModel.remote_delay, so the float rounding matches the
        # observed/reference paths exactly.
        for j in range(succ_ptr[task], succ_ptr[task + 1]):
            succ = succ_ids[j]
            npreds[succ] -= 1
            if npreds[succ]:
                continue
            b_arr = -1.0
            b_ft = -1.0
            b_id = -1
            b_proc = 0
            alt = 0.0
            max_ft = 0.0
            for i in range(pred_ptr[succ], pred_ptr[succ + 1]):
                pred = pred_ids[i]
                ft_p = finish[pred]
                arr = ft_p + pred_delay[i]
                pp = on_proc[pred]
                if ft_p > max_ft:
                    max_ft = ft_p
                # Deterministic (arrival, FT, id) tie rule for the EP choice.
                if arr > b_arr or (
                    arr == b_arr and (ft_p > b_ft or (ft_p == b_ft and pred > b_id))
                ):
                    if pp != b_proc and b_arr > alt:
                        alt = b_arr
                    b_arr = arr
                    b_ft = ft_p
                    b_id = pred
                    b_proc = pp
                elif pp != b_proc and arr > alt:
                    alt = arr
            emt = max_ft if max_ft > alt else alt
            # A task is EP-type iff LMT(t) >= PRT(EP(t)).
            nbl = neg_bl[succ]
            if b_arr >= prt[b_proc]:
                state[succ] = _EP
                heappush(emt_heaps[b_proc], (emt, nbl, succ))
                heappush(lmt_heaps[b_proc], (b_arr, nbl, succ))
                heap_pushes += 2
                # Refresh b_proc's active entry, as above.
                eheap = emt_heaps[b_proc]
                while eheap and state[eheap[0][2]] != _EP:
                    heappop(eheap)
                if not eheap:  # pragma: no cover - just pushed an EP entry
                    active_est[b_proc] = None
                else:
                    aest = eheap[0][0]
                    rt = prt[b_proc]
                    if rt > aest:
                        aest = rt
                    active_est[b_proc] = aest
                    heappush(active_heap, (aest, b_proc))
                    heap_pushes += 1
            else:
                state[succ] = _NON_EP
                heappush(non_ep_heap, (b_arr, nbl, succ))
                heap_pushes += 1

    # Materialize the schedule from the state vectors in one shot.
    schedule = Schedule._from_arrays(
        graph, machine, order, on_proc, start, finish, prt
    )
    return schedule, (iterations, heap_pushes, ep_choices, non_ep_choices)


def _try_warm_start(
    graph: TaskGraph,
    machine: MachineModel,
    prefer_non_ep_on_tie: bool,
    base: Schedule,
) -> "Tuple[Schedule, Tuple[int, int, int, int], Dict[str, object]] | str":
    """Attempt a warm-start run of ``graph`` from ``base``'s clean prefix.

    Returns ``(schedule, counters, info)`` on success or a fallback-reason
    string when the base is unusable — the caller then runs cold; a warm
    attempt never produces a schedule that differs from the cold run's.
    """
    if not base.complete:
        return "base-incomplete"
    if base.machine != machine:
        return "machine-mismatch"
    if base._flb_prefer != prefer_non_ep_on_tie:
        return "tie-rule-mismatch"
    from repro.incremental import diff_prefix

    try:
        diff = diff_prefix(base, graph)
        if diff.reuse_steps <= 0:
            return "no-clean-prefix"
        schedule, counters = _flb_warm_impl(
            graph, machine, prefer_non_ep_on_tie, base, diff.reuse_steps
        )
    except Exception:
        # Defensive: an unexpected failure in the incremental plane must
        # degrade to a cold run, never to an error or a wrong schedule.
        return "error"
    info: Dict[str, object] = {
        "reused": diff.reuse_steps,
        "replayed": diff.total - diff.reuse_steps,
        "total": diff.total,
        "dirty": diff.dirty,
        "fraction": diff.reuse_fraction,
    }
    return schedule, counters, info


def _flb_warm_impl(
    graph: TaskGraph,
    machine: MachineModel,
    prefer_non_ep_on_tie: bool,
    base: Schedule,
    k: int,
) -> Tuple[Schedule, Tuple[int, int, int, int]]:
    """Apply the first ``k`` base placements, rebuild the kernel state they
    imply, and run :func:`_flb_array_loop` over the remaining suffix.

    The rebuilt state is exactly what a cold run holds after ``k``
    iterations, up to heap-internal layout (stale lazily-invalidated
    entries are simply absent; every heap key embeds the task/processor id,
    so the rebuilt heaps expose identical minima):

    * ``PRT`` is the max finish per processor over the prefix;
    * a task is EP iff its last message arrives at or after the *current*
      PRT of its enabling processor — PRT only rises and the demotion loop
      drains every EP entry below it, so demotions are permanent and the
      inequality characterizes the surviving EP set;
    * demoted/non-EP entries re-enter with the same ``(LMT, -BL, id)`` key
      the cold run pushed.
    """
    n = graph.num_tasks
    num_procs = machine.num_procs
    csr = graph.csr()
    order_b, proc_b, start_b, finish_b = base._placement_arrays()
    prefix = order_b[:k]

    proc_arr = np.zeros(n, dtype=np.int64)
    start_arr = np.zeros(n, dtype=np.float64)
    finish_arr = np.zeros(n, dtype=np.float64)
    proc_arr[prefix] = proc_b[prefix]
    start_arr[prefix] = start_b[prefix]
    finish_arr[prefix] = finish_b[prefix]
    state_arr = np.full(n, _NOT_READY, dtype=np.int64)
    state_arr[prefix] = _DONE
    prt_arr = np.zeros(num_procs, dtype=np.float64)
    np.maximum.at(prt_arr, proc_arr[prefix], finish_arr[prefix])

    # Remaining unscheduled-predecessor counts: indegree minus placed preds
    # (counted on the successor side of the CSR, one bincount).
    outdeg = np.diff(csr.succ_ptr)
    placed_succ = _concat_slices(csr.succ_ptr[prefix], outdeg[prefix])
    npreds_arr = csr.in_degrees_array() - np.bincount(
        csr.succ_ids[placed_succ], minlength=n
    )
    ready_mask = npreds_arr == 0
    ready_mask[prefix] = False

    state = state_arr.tolist()
    finish = finish_arr.tolist()
    on_proc = proc_arr.tolist()
    start = start_arr.tolist()
    order: List[int] = prefix.tolist()
    npreds: List[int] = npreds_arr.tolist()
    prt: List[float] = prt_arr.tolist()

    lists = csr.lists
    pred_ptr, pred_ids = lists.pred_ptr, lists.pred_ids
    pred_delay, neg_bl, _homog, _speeds = _interp_inputs(graph, machine)

    emt_lists: List[List[Tuple[float, float, int]]] = [[] for _ in range(num_procs)]
    lmt_lists: List[List[Tuple[float, float, int]]] = [[] for _ in range(num_procs)]
    non_ep_heap: List[Tuple[float, float, int]] = []
    heap_pushes = 0
    for t in np.flatnonzero(ready_mask).tolist():
        lo, hi = pred_ptr[t], pred_ptr[t + 1]
        nbl = neg_bl[t]
        if lo == hi:
            state[t] = _NON_EP
            non_ep_heap.append((0.0, nbl, t))
            heap_pushes += 1
            continue
        # The same fused predecessor pass the main loop runs on readiness
        # (all predecessors of a ready task are in the placed prefix).
        b_arr = -1.0
        b_ft = -1.0
        b_id = -1
        b_proc = 0
        alt = 0.0
        max_ft = 0.0
        for i in range(lo, hi):
            pred = pred_ids[i]
            ft_p = finish[pred]
            arr = ft_p + pred_delay[i]
            pp = on_proc[pred]
            if ft_p > max_ft:
                max_ft = ft_p
            if arr > b_arr or (
                arr == b_arr and (ft_p > b_ft or (ft_p == b_ft and pred > b_id))
            ):
                if pp != b_proc and b_arr > alt:
                    alt = b_arr
                b_arr = arr
                b_ft = ft_p
                b_id = pred
                b_proc = pp
            elif pp != b_proc and arr > alt:
                alt = arr
        emt = max_ft if max_ft > alt else alt
        if b_arr >= prt[b_proc]:
            state[t] = _EP
            emt_lists[b_proc].append((emt, nbl, t))
            lmt_lists[b_proc].append((b_arr, nbl, t))
            heap_pushes += 2
        else:
            state[t] = _NON_EP
            non_ep_heap.append((b_arr, nbl, t))
            heap_pushes += 1

    heapify(non_ep_heap)
    active_est: List[Optional[float]] = [None] * num_procs
    active_heap: List[Tuple[float, int]] = []
    for p in range(num_procs):
        heapify(emt_lists[p])
        heapify(lmt_lists[p])
        if emt_lists[p]:
            aest = emt_lists[p][0][0]
            rt = prt[p]
            if rt > aest:
                aest = rt
            active_est[p] = aest
            active_heap.append((aest, p))
    heapify(active_heap)
    all_heap: List[Tuple[float, int]] = sorted(
        (prt[p], p) for p in range(num_procs)
    )

    return _flb_array_loop(
        graph, machine, prefer_non_ep_on_tie,
        state, finish, on_proc, start, order, npreds, prt,
        emt_lists, lmt_lists, non_ep_heap, active_heap, active_est, all_heap,
        n - k, heap_pushes,
    )
