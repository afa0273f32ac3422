"""Independent schedule certification.

:func:`certify` re-checks a produced :class:`~repro.schedule.Schedule`
against the paper's formal invariants *without sharing any code with the
scheduling kernels*: it consumes only the schedule's public query API, the
task graph, and the machine model's cost primitives, and recomputes every
quantity (durations, message arrivals, ready times) from first principles.
A bug in ``repro.core`` therefore cannot hide itself here.

Two layers of checks, each with stable rule codes:

**Structural invariants** (``S001``..``S007``) — hold for *any* valid
schedule, regardless of algorithm:

* ``S007`` every start, finish, processor ready time and the makespan is a
  finite number — checked first, since a NaN compares false against
  everything (the checks below are phrased as the condition for *ok*, so a
  NaN fails them as well);
* ``S001`` every task is scheduled exactly once;
* ``S002`` no task starts before time zero;
* ``S003`` ``FT(t) = ST(t) + duration(comp(t), PROC(t))``;
* ``S004`` tasks on the same processor do not overlap;
* ``S005`` every task starts at or after each predecessor's message arrival
  ``FT(pred) + delay`` (zero delay when co-located) — the paper's
  ``ST(t) >= EMT(t, PROC(t))``;
* ``S006`` the reported makespan equals ``max_p PRT(p)`` recomputed from
  the placements.

**Greedy certificate** (``F001``/``F002``) — the ETF-greedy invariant that
Theorem 3 proves FLB preserves.  The checker replays the schedule in start
order, maintaining the ready set and per-processor ready times, and at
every step recomputes the paper's two candidate pairs:

(a) the EP-type ready task (``LMT(t) >= PRT(EP(t))``) with the minimum
    ``EST(t, EP(t)) = max(EMT(t, EP(t)), PRT(EP(t)))``, and
(b) the non-EP-type ready task with the minimum ``LMT``, started at
    ``max(LMT(t), min_p PRT(p))`` on the earliest-idle processor.

* ``F001`` fires when the scheduled task started *later* than the best
  candidate's EST — the schedule is not ETF-greedy;
* ``F002`` (FLB flavour only) fires when an EP-type task was chosen even
  though a non-EP candidate achieved the same start time — the paper
  breaks such ties toward the non-EP task, whose communication is already
  overlapped with computation.

**Related-machines replay certificate** (``F003``, flavour ``"heft"``) —
for HEFT schedules on (possibly heterogeneous) related machines the
checker recomputes the upward ranks from the machine model's mean
durations, replays the tasks in decreasing-rank order, and at each step
scans every processor for the insertion-based earliest finish time given
the placements recorded so far (speed-scaled durations ``comp/speed(p)``,
message arrivals ``scale * comm + latency``).  ``F003`` fires when a
recorded finish time exceeds the best achievable finish at that step —
the schedule is not the greedy insertion-based EFT schedule the
algorithm promises (cf. the list-scheduling analyses on related machines,
arXiv:2004.14639).

Structural checks cost ``O(E + V log V)`` (the sort dominates); the greedy
replay adds ``O(E + V·W)`` where ``W`` is the peak ready-set width, and the
HEFT replay ``O(V·P·K + E)`` with ``K`` the peak per-processor queue.  The
certificate is machine-readable (:meth:`Certificate.to_dict`) and surfaces
through ``Schedule.validate()``, the batch plane (``certify=``), and
``repro-sched certify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Tuple

from repro.schedule.schedule import Schedule

__all__ = ["Certificate", "Violation", "certify", "greedy_flavor"]

_EPS = 1e-9

#: Algorithms whose output carries an ETF-greedy certificate obligation.
#: FLB additionally promises the non-EP tie rule (F002); plain ETF only the
#: minimum-EST invariant (F001); HEFT owes the related-machines replay
#: certificate (F003).  Everything else (MCP, FCP, DLS, ...) is checked
#: structurally only.
_GREEDY_FLAVORS: Dict[str, str] = {"flb": "flb", "etf": "etf", "heft": "heft"}


def greedy_flavor(algo: str) -> Optional[str]:
    """The greedy-certificate flavour owed by ``algo``'s schedules, if any."""
    return _GREEDY_FLAVORS.get(algo)


@dataclass(frozen=True)
class Violation:
    """One broken invariant: a stable rule code plus a description."""

    code: str
    message: str
    task: Optional[int] = None
    proc: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"code": self.code, "message": self.message}
        if self.task is not None:
            out["task"] = self.task
        if self.proc is not None:
            out["proc"] = self.proc
        return out


@dataclass(frozen=True)
class Certificate:
    """The machine-readable result of :func:`certify`.

    ``ok`` is True iff no violations were found.  ``greedy_checked`` records
    whether the greedy replay ran (it is skipped when structural errors make
    the replay meaningless, or when no flavour was requested).
    """

    ok: bool
    violations: Tuple[Violation, ...]
    num_tasks: int
    num_procs: int
    makespan: float
    flavor: Optional[str]
    greedy_checked: bool

    def codes(self) -> Tuple[str, ...]:
        return tuple(v.code for v in self.violations)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "num_tasks": self.num_tasks,
            "num_procs": self.num_procs,
            "makespan": self.makespan,
            "flavor": self.flavor,
            "greedy_checked": self.greedy_checked,
            "violations": [v.to_dict() for v in self.violations],
        }

    def render(self) -> str:
        """Human-readable certificate, one line per violation."""
        head = (
            f"certified schedule: V={self.num_tasks} P={self.num_procs} "
            f"makespan={self.makespan:g}"
        )
        lines = [head]
        if self.flavor is not None:
            state = "checked" if self.greedy_checked else "skipped"
            lines.append(f"  greedy certificate ({self.flavor}): {state}")
        if not self.violations:
            lines.append("  valid: all invariants hold")
        for v in self.violations:
            lines.append(f"  {v.code} {v.message}")
        return "\n".join(lines)


def certify(
    schedule: Schedule,
    flavor: Optional[str] = None,
    eps: float = _EPS,
) -> Certificate:
    """Independently verify ``schedule``; optionally add a greedy certificate.

    ``flavor`` selects the greedy obligation: ``None`` checks structural
    invariants only, ``"etf"`` adds the minimum-EST replay (F001),
    ``"flb"`` additionally enforces the non-EP tie rule (F002), and
    ``"heft"`` runs the related-machines insertion-EFT replay (F003).
    """
    if flavor not in (None, "flb", "etf", "heft"):
        raise ValueError(f"unknown greedy flavor {flavor!r}")
    violations = _structural_violations(schedule, eps)
    greedy_checked = False
    if flavor is not None and not violations and schedule.complete:
        if flavor == "heft":
            violations.extend(_heft_replay_violations(schedule, eps))
        else:
            violations.extend(_greedy_violations(schedule, flavor, eps))
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


# -- structural invariants ---------------------------------------------------


def _structural_violations(schedule: Schedule, eps: float) -> List[Violation]:
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


def _greedy_violations(
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


# -- related-machines replay certificate (F003) ------------------------------


def _heft_replay_violations(schedule: Schedule, eps: float) -> List[Violation]:
    """Replay HEFT's insertion-based EFT loop and check each recorded finish.

    The replay is fully independent of :mod:`repro.schedulers.heft`: upward
    ranks are recomputed here from the machine model's mean durations, tasks
    are visited in decreasing-rank order (ties toward the lower task id —
    the algorithm's own order), and for every task the insertion-based
    earliest finish time is rescanned over all processors against the
    placements *recorded for the tasks replayed so far*.  Message arrivals
    use the recorded predecessor processors, so the lower bound is exactly
    the one the algorithm faced at that step.  ``F003`` fires when the
    recorded finish exceeds the best achievable finish: on related machines
    this catches placements that ignore processor speeds (a slow processor's
    scaled duration loses the EFT scan) as well as gaps the insertion policy
    would have used.
    """
    graph = schedule.graph
    machine = schedule.machine

    # Upward ranks from mean durations, over reverse topological order.
    rank = [0.0] * graph.num_tasks
    for t in reversed(graph.topological_order):
        best = 0.0
        for succ in graph.succs(t):
            via = machine.remote_delay(graph.comm(t, succ)) + rank[succ]
            if via > best:
                best = via
        rank[t] = machine.mean_duration(graph.comp(t)) + best

    order = sorted(graph.tasks(), key=lambda t: (-rank[t], t))

    # Per-processor busy intervals of the tasks replayed so far, kept sorted
    # by start time — mirrors Schedule.earliest_gap's position-ordered scan.
    busy: List[List[Tuple[float, float]]] = [[] for _ in machine.procs]
    replayed = [False] * graph.num_tasks

    out: List[Violation] = []
    for step, t in enumerate(order):
        for pred in graph.preds(t):
            if not replayed[pred]:
                out.append(
                    Violation(
                        "F003",
                        f"replay step {step}: task {t} precedes its "
                        f"predecessor {pred} in rank order (replay desync)",
                        task=t,
                    )
                )
                break
        if out:
            break

        comp = graph.comp(t)
        best_finish = float("inf")
        for p in machine.procs:
            duration = machine.duration(comp, p)
            lower = 0.0
            for pred in graph.preds(t):
                arrival = schedule.finish_of(pred) + machine.comm_delay(
                    schedule.proc_of(pred), p, graph.comm(pred, t)
                )
                if arrival > lower:
                    lower = arrival
            # Insertion scan: first gap on p fitting `duration` at or after
            # `lower` (same tolerance discipline as Schedule.earliest_gap).
            candidate = lower if lower > 0.0 else 0.0
            for s, f in busy[p]:
                if s - candidate >= duration - eps:
                    break
                if f > candidate:
                    candidate = f
            finish = candidate + duration
            if finish < best_finish:
                best_finish = finish

        recorded_finish = schedule.finish_of(t)
        if recorded_finish > best_finish + eps:
            out.append(
                Violation(
                    "F003",
                    f"replay step {step}: task {t} finishes at "
                    f"{recorded_finish} but the insertion-based EFT scan "
                    f"achieves {best_finish} (related-machines replay "
                    f"certificate violated)",
                    task=t,
                    proc=schedule.proc_of(t),
                )
            )
            break

        # Commit the recorded placement for the remaining steps.
        p = schedule.proc_of(t)
        interval = (schedule.start_of(t), recorded_finish)
        row = busy[p]
        lo, hi = 0, len(row)
        while lo < hi:
            mid = (lo + hi) // 2
            if row[mid][0] < interval[0]:
                lo = mid + 1
            else:
                hi = mid
        row.insert(lo, interval)
        replayed[t] = True
    return out
