"""The scalar certifier passes, kept as the oracle for the bulk ones.

``structural_violations`` (S001..S007) and ``greedy_violations``
(F001/F002) are the per-task, per-edge and per-step Python loops that
:mod:`repro.verify.certify` ran before its passes became NumPy array
passes.  ``tests/test_certify_bulk.py`` requires the bulk certifier to
produce the same certificate as :func:`oracle_certify` on every input where
the processor lists agree with ``PROC(t)``.  Where they do not — a list
entry on a processor other than ``PROC(t)``, or naming an unplaced or
unknown task — the bulk checker deliberately reports more (an S001, and
overlaps on ``PROC(t)``) where these loops passed or raised; those cases
have their own tests in ``tests/test_certify.py``.
"""

import math
from itertools import chain
from typing import Dict, List, Optional, Tuple

from repro.schedule.schedule import Schedule
from repro.verify.certify import _EPS, Certificate, Violation


def oracle_certify(
    schedule: Schedule, flavor: Optional[str] = None, eps: float = _EPS
) -> Certificate:
    """:func:`repro.verify.certify.certify` over the scalar passes
    (structural, ``"flb"`` and ``"etf"`` flavours)."""
    violations = structural_violations(schedule, eps)
    greedy_checked = False
    if flavor is not None and not violations and schedule.complete:
        violations.extend(greedy_violations(schedule, flavor, eps))
        greedy_checked = True
    return Certificate(
        ok=not violations,
        violations=tuple(violations),
        num_tasks=schedule.graph.num_tasks,
        num_procs=schedule.num_procs,
        makespan=schedule.makespan,
        flavor=flavor,
        greedy_checked=greedy_checked,
    )


def structural_violations(schedule: Schedule, eps: float) -> List[Violation]:
    graph = schedule.graph
    machine = schedule.machine
    out: List[Violation] = []
    placed = [t for t in graph.tasks() if schedule.is_scheduled(t)]
    procs = list(map(schedule.proc_of, placed))
    starts = list(map(schedule.start_of, placed))
    finishes = list(map(schedule.finish_of, placed))
    prts = [schedule.prt(p) for p in machine.procs]

    # S007: every time is a finite number.  NaN compares false against
    # everything, so it would slip past any check phrased as "violated if
    # x < y"; hence this runs first, and every check below is phrased as
    # the condition for *ok*, so a NaN fails it too.
    if not all(map(math.isfinite, chain(starts, finishes, prts, [schedule.makespan]))):
        for t, proc, start, finish in zip(placed, procs, starts, finishes):
            if not (math.isfinite(start) and math.isfinite(finish)):
                out.append(
                    Violation(
                        "S007",
                        f"task {t} has a non-finite time: ST {start}, FT {finish}",
                        task=t,
                        proc=proc,
                    )
                )
        for p, prt in enumerate(prts):
            if not math.isfinite(prt):
                out.append(Violation("S007", f"PRT({p}) is {prt}", proc=p))
        if not math.isfinite(schedule.makespan):
            out.append(Violation("S007", f"makespan is {schedule.makespan}"))

    # S001: exactly once.  Count appearances across the per-processor task
    # lists rather than trusting the placement flags — a corrupted schedule
    # can disagree between the two.
    appearances: Dict[int, int] = {}
    for p in machine.procs:
        for t in schedule.proc_tasks(p):
            appearances[t] = appearances.get(t, 0) + 1
    for t in graph.tasks():
        count = appearances.get(t, 0)
        if not schedule.is_scheduled(t) or count == 0:
            out.append(
                Violation("S001", f"task {t} is not scheduled", task=t)
            )
        elif count > 1:
            out.append(
                Violation(
                    "S001",
                    f"task {t} is scheduled {count} times",
                    task=t,
                )
            )

    # S002/S003: start and finish sanity, recomputing the duration from the
    # machine model.
    for t, proc, start, finish in zip(placed, procs, starts, finishes):
        if not start >= -eps:
            out.append(
                Violation(
                    "S002",
                    f"task {t} starts before time 0 ({start})",
                    task=t,
                    proc=proc,
                )
            )
        expected = start + machine.duration(graph.comp(t), proc)
        if not abs(finish - expected) <= eps:
            out.append(
                Violation(
                    "S003",
                    f"task {t}: FT {finish} != ST + duration = {expected}",
                    task=t,
                    proc=proc,
                )
            )

    # S004: processor exclusivity.
    for p in machine.procs:
        ordered = sorted(schedule.proc_tasks(p), key=schedule.start_of)
        for a, b in zip(ordered, ordered[1:]):
            if not schedule.start_of(b) >= schedule.finish_of(a) - eps:
                out.append(
                    Violation(
                        "S004",
                        f"tasks {a} and {b} overlap on processor {p}: "
                        f"[{schedule.start_of(a)}, {schedule.finish_of(a)}) vs "
                        f"[{schedule.start_of(b)}, {schedule.finish_of(b)})",
                        task=b,
                        proc=p,
                    )
                )

    # S005: precedence + communication — ST(t) >= FT(pred) + delay with the
    # delay zeroed on co-location (the paper's EMT lower bound).
    for src, dst, comm in graph.edges():
        if not (schedule.is_scheduled(src) and schedule.is_scheduled(dst)):
            continue
        delay = machine.comm_delay(
            schedule.proc_of(src), schedule.proc_of(dst), comm
        )
        earliest = schedule.finish_of(src) + delay
        if not schedule.start_of(dst) >= earliest - eps:
            out.append(
                Violation(
                    "S005",
                    f"edge ({src}->{dst}): task {dst} starts at "
                    f"{schedule.start_of(dst)} before message arrival {earliest}",
                    task=dst,
                    proc=schedule.proc_of(dst),
                )
            )

    # S006: reported makespan and per-processor ready times match the
    # placements (a NaN finish propagates into its processor's PRT).
    true_prt = [0.0] * machine.num_procs
    for proc, finish in zip(procs, finishes):
        if not finish <= true_prt[proc]:
            true_prt[proc] = finish
    for p, prt in enumerate(prts):
        if not abs(prt - true_prt[p]) <= eps:
            out.append(
                Violation(
                    "S006",
                    f"PRT({p}) reported as {prt} but placements "
                    f"finish at {true_prt[p]}",
                    proc=p,
                )
            )
    true_makespan = max(true_prt)
    if not abs(schedule.makespan - true_makespan) <= eps:
        out.append(
            Violation(
                "S006",
                f"makespan reported as {schedule.makespan} but placements "
                f"finish at {true_makespan}",
            )
        )
    return out


# -- greedy certificate ------------------------------------------------------


def greedy_violations(
    schedule: Schedule, flavor: str, eps: float
) -> List[Violation]:
    """Replay the schedule in start order and check the Theorem-3 invariant.

    The replay is sound under start-time ties: tasks are visited in
    ``(ST, FT, id)`` order, which always visits predecessors first (a
    predecessor finishes no later than its successor starts, and positive
    computation costs make its start strictly earlier).  Reordering tasks
    *within* a start-time tie can only raise other tasks' ready times, never
    lower them, so the minimum-EST comparison cannot produce false
    positives.
    """
    graph = schedule.graph
    machine = schedule.machine
    num_procs = machine.num_procs

    order = sorted(
        graph.tasks(),
        key=lambda t: (schedule.start_of(t), schedule.finish_of(t), t),
    )
    prt = [0.0] * num_procs
    remaining_preds = [graph.in_degree(t) for t in graph.tasks()]
    # Cached once when a task becomes ready (O(E) total over the replay):
    # its LMT, enabling processor (-1 for entry tasks), and EMT on the
    # enabling processor.
    lmt = [0.0] * graph.num_tasks
    ep = [-1] * graph.num_tasks
    emt_ep = [0.0] * graph.num_tasks
    ready: List[int] = []

    def admit(t: int) -> None:
        """Compute LMT / EP / EMT-on-EP for a newly ready task."""
        best_key: Tuple[float, float, int] = (-1.0, -1.0, -1)
        best_proc = -1
        for pred in graph.preds(t):
            ft = schedule.finish_of(pred)
            arrival = ft + machine.remote_delay(graph.comm(pred, t))
            key = (arrival, ft, pred)
            if key > best_key:
                best_key = key
                best_proc = schedule.proc_of(pred)
        lmt[t] = best_key[0] if best_proc >= 0 else 0.0
        ep[t] = best_proc
        emt = 0.0
        if best_proc >= 0:
            for pred in graph.preds(t):
                arrival = schedule.finish_of(pred) + machine.comm_delay(
                    schedule.proc_of(pred), best_proc, graph.comm(pred, t)
                )
                if arrival > emt:
                    emt = arrival
        emt_ep[t] = emt
        ready.append(t)

    for t in graph.entry_tasks:
        admit(t)

    out: List[Violation] = []
    for step, t in enumerate(order):
        if not ready:
            # Unreachable when the structural checks passed (S005 guarantees
            # predecessors finish before their successors start); guard
            # anyway so a replay bug surfaces as a violation, not silence.
            out.append(
                Violation(
                    "F001",
                    f"replay step {step}: task {t} has unscheduled "
                    f"predecessors (replay desync)",
                    task=t,
                )
            )
            break

        # Recompute the two Theorem-3 candidates over the current ready set.
        min_prt = min(prt)
        best_ep_est = float("inf")
        best_non_ep_est = float("inf")
        chosen_est = float("inf")
        chosen_is_ep = False
        for u in ready:
            e = ep[u]
            if e >= 0 and lmt[u] >= prt[e]:
                # EP-type: runs on its enabling processor.
                est = emt_ep[u] if emt_ep[u] > prt[e] else prt[e]
                if est < best_ep_est:
                    best_ep_est = est
                is_ep = True
            else:
                # Non-EP (entry tasks always are): earliest-idle processor.
                est = lmt[u] if lmt[u] > min_prt else min_prt
                if est < best_non_ep_est:
                    best_non_ep_est = est
                is_ep = False
            if u == t:
                chosen_est = est
                chosen_is_ep = is_ep
        best = min(best_ep_est, best_non_ep_est)

        start = schedule.start_of(t)
        if chosen_est == float("inf"):
            out.append(
                Violation(
                    "F001",
                    f"replay step {step}: task {t} scheduled before it was "
                    f"ready (replay desync)",
                    task=t,
                )
            )
            break
        if start > best + eps:
            out.append(
                Violation(
                    "F001",
                    f"replay step {step}: task {t} starts at {start} but a "
                    f"ready candidate could start at {best} "
                    f"(ETF-greedy invariant violated)",
                    task=t,
                    proc=schedule.proc_of(t),
                )
            )
        elif start > chosen_est + eps:
            out.append(
                Violation(
                    "F001",
                    f"replay step {step}: task {t} starts at {start} but its "
                    f"own earliest start was {chosen_est}",
                    task=t,
                    proc=schedule.proc_of(t),
                )
            )
        elif (
            flavor == "flb"
            and chosen_is_ep
            and best_non_ep_est <= start + eps
        ):
            out.append(
                Violation(
                    "F002",
                    f"replay step {step}: EP-type task {t} chosen at {start} "
                    f"but a non-EP candidate achieves {best_non_ep_est} "
                    f"(ties must favour the non-EP task)",
                    task=t,
                    proc=schedule.proc_of(t),
                )
            )

        # Commit the placement exactly as the schedule recorded it, then
        # release newly ready successors.
        ready.remove(t)
        finish = schedule.finish_of(t)
        p = schedule.proc_of(t)
        if finish > prt[p]:
            prt[p] = finish
        for succ in graph.succs(t):
            remaining_preds[succ] -= 1
            if remaining_preds[succ] == 0:
                admit(succ)

        if out:
            # One greedy violation invalidates every later replay state;
            # stop at the first to keep the report actionable.
            break
    return out

