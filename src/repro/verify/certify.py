"""Independent schedule certification.

:func:`certify` re-checks a produced :class:`~repro.schedule.Schedule`
against the paper's formal invariants *without sharing any code with the
scheduling kernels*: it consumes only the schedule's public query API, the
task graph, and the machine model's cost parameters, and recomputes every
quantity (durations, message arrivals, ready times) from first principles.
A bug in ``repro.core`` therefore cannot hide itself here.

Each call reads its inputs once, in bulk: the placements through
:meth:`Schedule.placements` (the array form of ``is_scheduled``,
``proc_of``, ``start_of``, ``finish_of``, ``proc_tasks`` and ``prt``, read
from the schedule on every call — never the warm-start placement-array
cache, which can go stale), the makespan through ``makespan``, and the
edges through :meth:`TaskGraph.edge_arrays`, the as-submitted arrays the
CSR is compiled from, so a CSR bug cannot hide from S005 or the replay,
which share them.  Every check then runs as a bulk NumPy pass over the
arrays.

Two layers of checks, each with stable rule codes:

**Structural invariants** (``S001``..``S007``) — hold for *any* valid
schedule, regardless of algorithm:

* ``S007`` every start, finish, processor ready time and the makespan is a
  finite number — checked first, since a NaN compares false against
  everything (the checks below are phrased as the condition for *ok*, so a
  NaN fails them as well);
* ``S001`` every task is scheduled exactly once: placed, and named once
  by the per-processor task lists, on ``PROC(t)``; a list entry that names
  an unplaced or unknown task is an ``S001`` too;
* ``S002`` no task starts before time zero;
* ``S003`` ``FT(t) = ST(t) + duration(comp(t), PROC(t))``;
* ``S004`` tasks on the same processor do not overlap — per ``PROC(t)``
  and per processor list, so a list that disagrees cannot hide an overlap;
* ``S005`` every task starts at or after each predecessor's message arrival
  ``FT(pred) + delay`` (zero delay when co-located) — the paper's
  ``ST(t) >= EMT(t, PROC(t))``;
* ``S006`` the reported makespan equals ``max_p PRT(p)`` recomputed from
  the placements.

**Greedy certificate** (``F001``/``F002``) — the ETF-greedy invariant that
Theorem 3 proves FLB preserves.  The checker replays the schedule in start
order, maintaining the ready set and per-processor ready times, and at
every step recomputes, from that step's PRT, the paper's two candidate
pairs:

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

The replay is brute force — every ready task is reclassified and its EST
recomputed at every step — but evaluated in bulk over (task, step) pairs:
a task's LMT, EP and EMT are fixed by the recorded placements, and it is
ready from the step after its last predecessor's to its own, so the pairs
are known up front.  They are evaluated a block of steps at a time, at
most ``_REPLAY_BLOCK`` pairs per block, and the first failing step is
reported.

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

Structural checks cost ``O(E + V log V)`` (the sorts dominate); the greedy
replay adds ``O(E log E + V·W)`` where ``W`` is the peak ready-set width,
in memory ``O(V + E + _REPLAY_BLOCK)`` however large ``W`` grows, and the
HEFT replay ``O(V·P·K + E)`` with ``K`` the peak per-processor queue.  At
``V = 2000`` a certificate costs less than the FLB run that produced the
schedule (the perfgate ``test_certify_within_kernel_time``).  The
certificate is machine-readable (:meth:`Certificate.to_dict`) and surfaces
through ``Schedule.validate()``, the batch plane (``certify=``), and
``repro-sched certify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.exceptions import InvalidScheduleError
from repro.machine.model import MachineModel
from repro.schedule.schedule import Schedule

__all__ = ["Certificate", "Violation", "certify", "greedy_flavor"]

IntArray = npt.NDArray[np.int64]
FloatArray = npt.NDArray[np.float64]
BoolArray = npt.NDArray[np.bool_]

_EPS = 1e-9

#: Most (task, step) pairs one replay block evaluates, and most steps x
#: processors of PRT history it holds: the replay's memory stays
#: O(V + E + _REPLAY_BLOCK) however wide the ready set grows (a single
#: step wider than the block runs alone).
_REPLAY_BLOCK = 1 << 14

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

    def raise_if_invalid(self) -> None:
        """Raise :class:`~repro.exceptions.InvalidScheduleError` naming the
        first five violations, if there are any."""
        if self.violations:
            detail = "; ".join(f"{v.code} {v.message}" for v in self.violations[:5])
            more = len(self.violations) - 5
            raise InvalidScheduleError(
                f"invalid schedule: {detail}" + (f" (+{more} more)" if more > 0 else "")
            )

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
    inputs = _read_inputs(schedule)
    violations = _structural_violations(inputs, eps)
    greedy_checked = False
    if flavor is not None and not violations and schedule.complete:
        if flavor == "heft":
            violations.extend(_heft_replay_violations(schedule, eps))
        else:
            violations.extend(_greedy_violations(inputs, flavor, eps))
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


# -- inputs ------------------------------------------------------------------


@dataclass(frozen=True)
class _Inputs:
    """Everything the passes check, read once through public bulk queries.

    ``proc``/``start``/``finish`` are task-indexed, holding ``-1``/``0.0``
    for unplaced tasks; ``listed_task``/``listed_proc`` flatten the
    per-processor task lists; ``src``/``dst`` are the graph's edges in
    insertion order, shared by S005 and the replay, with each edge's
    cross-processor delay in ``remote`` (``MachineModel.remote_delay``).
    """

    machine: MachineModel
    comp: FloatArray
    placed: BoolArray
    proc: IntArray
    start: FloatArray
    finish: FloatArray
    listed_task: IntArray
    listed_proc: IntArray
    prt: FloatArray
    makespan: float
    src: IntArray
    dst: IntArray
    remote: FloatArray


def _read_inputs(schedule: Schedule) -> _Inputs:
    graph = schedule.graph
    machine = schedule.machine
    state = schedule.placements()
    src, dst, comm = graph.edge_arrays()
    return _Inputs(
        machine=machine,
        comp=graph.comps_array(),
        placed=state.placed,
        proc=state.proc,
        start=state.start,
        finish=state.finish,
        listed_task=state.listed,
        listed_proc=state.listed_proc,
        prt=state.prt,
        makespan=schedule.makespan,
        src=src,
        dst=dst,
        remote=machine.latency + machine.comm_scale * comm,
    )


# -- structural invariants ---------------------------------------------------


@np.errstate(all="ignore")  # non-finite times are S007, not warnings
def _structural_violations(inputs: _Inputs, eps: float) -> List[Violation]:
    machine = inputs.machine
    placed, proc, start, finish = (
        inputs.placed, inputs.proc, inputs.start, inputs.finish,
    )
    n = len(placed)
    out: List[Violation] = []

    # S007: every time is a finite number.  NaN compares false against
    # everything, so it would slip past any check phrased as "violated if
    # x < y"; hence this runs first, and every check below is phrased as
    # the condition for *ok*, so a NaN fails it too.
    finite = np.isfinite(start) & np.isfinite(finish)  # unplaced read 0.0
    prt_finite = np.isfinite(inputs.prt)
    if not (finite.all() and prt_finite.all() and math.isfinite(inputs.makespan)):
        for t in np.flatnonzero(~finite).tolist():
            out.append(
                Violation(
                    "S007",
                    f"task {t} has a non-finite time: ST {float(start[t])}, "
                    f"FT {float(finish[t])}",
                    task=t,
                    proc=int(proc[t]),
                )
            )
        for p in np.flatnonzero(~prt_finite).tolist():
            out.append(Violation("S007", f"PRT({p}) is {float(inputs.prt[p])}", proc=p))
        if not math.isfinite(inputs.makespan):
            out.append(Violation("S007", f"makespan is {inputs.makespan}"))

    # S001: exactly once, on PROC(t).  Count appearances across the
    # per-processor task lists rather than trusting the placement flags — a
    # corrupted schedule can disagree between the two — and name a list
    # entry that no task matches, or that sits on another processor.  A
    # task is fine when it is placed, listed once, on PROC(t); only the
    # others are sorted into missing, repeated and moved.
    known = (inputs.listed_task >= 0) & (inputs.listed_task < n)
    listed, listed_on = inputs.listed_task[known], inputs.listed_proc[known]
    count = np.bincount(listed, minlength=n)
    listed_home = np.zeros(n, dtype=bool)
    listed_home[listed[listed_on == proc[listed]]] = True
    if not (placed & (count == 1) & listed_home).all():
        home = np.full(n, -1, dtype=np.int64)
        home[listed] = listed_on  # read only where the task is listed once
        missing = ~placed | (count == 0)
        repeated = ~missing & (count > 1)
        moved = ~missing & (count == 1) & ~listed_home
        for t in np.flatnonzero(missing | repeated | moved).tolist():
            if missing[t]:
                out.append(Violation("S001", f"task {t} is not scheduled", task=t))
            elif repeated[t]:
                out.append(
                    Violation(
                        "S001", f"task {t} is scheduled {int(count[t])} times", task=t
                    )
                )
            else:
                out.append(
                    Violation(
                        "S001",
                        f"task {t} is listed on processor {int(home[t])} but "
                        f"placed on processor {int(proc[t])}",
                        task=t,
                        proc=int(home[t]),
                    )
                )
    if not known.all():
        unknown = ~known
        for x, p in zip(
            inputs.listed_task[unknown].tolist(), inputs.listed_proc[unknown].tolist()
        ):
            out.append(Violation("S001", f"processor {p} lists unknown task {x}", proc=p))

    # The checks below cover the tasks placed on a real processor; a
    # placement on any other id is already an S001.
    runs = placed & (proc >= 0) & (proc < machine.num_procs)
    tasks = np.flatnonzero(runs)
    on = proc[tasks]

    # S002/S003: start and finish sanity, recomputing the duration from the
    # machine model (``comp / speed(p)`` as in MachineModel.duration).
    duration = inputs.comp[tasks]
    if machine.speeds is not None:
        duration = duration / np.array(machine.speeds)[on]
    begins = start[tasks]
    expected = begins + duration
    early = ~(begins >= -eps)
    wrong = ~(np.abs(finish[tasks] - expected) <= eps)
    bad = early | wrong
    if bad.any():
        for i in np.flatnonzero(bad).tolist():
            t, p = int(tasks[i]), int(on[i])
            if early[i]:
                out.append(
                    Violation(
                        "S002",
                        f"task {t} starts before time 0 ({float(start[t])})",
                        task=t,
                        proc=p,
                    )
                )
            if wrong[i]:
                out.append(
                    Violation(
                        "S003",
                        f"task {t}: FT {float(finish[t])} != ST + duration = "
                        f"{float(expected[i])}",
                        task=t,
                        proc=p,
                    )
                )

    # S004: processor exclusivity.  Each processor holds the placed tasks
    # its list names and every task placed on it that the list leaves out,
    # so neither view can hide an overlap; in start order, a tie keeping
    # the list's order.
    named = placed[listed]
    unlisted = tasks[~listed_home[tasks]]
    occ_task = np.concatenate((listed[named], unlisted))
    occ_proc = np.concatenate((listed_on[named], proc[unlisted]))
    by_start = np.lexsort((start[occ_task], occ_proc))  # stable
    occ_task, occ_proc = occ_task[by_start], occ_proc[by_start]
    a, b = occ_task[:-1], occ_task[1:]
    overlap = (occ_proc[:-1] == occ_proc[1:]) & ~(start[b] >= finish[a] - eps)
    if overlap.any():
        for i in np.flatnonzero(overlap).tolist():
            ta, tb, p = int(a[i]), int(b[i]), int(occ_proc[i + 1])
            out.append(
                Violation(
                    "S004",
                    f"tasks {ta} and {tb} overlap on processor {p}: "
                    f"[{float(start[ta])}, {float(finish[ta])}) vs "
                    f"[{float(start[tb])}, {float(finish[tb])})",
                    task=tb,
                    proc=p,
                )
            )

    # S005: precedence + communication — ST(t) >= FT(pred) + delay with the
    # delay zeroed on co-location (the paper's EMT lower bound).  Edges
    # touching a task that runs nowhere are left to S001.
    src, dst = inputs.src, inputs.dst
    earliest = finish[src] + np.where(proc[src] == proc[dst], 0.0, inputs.remote)
    late = ~(start[dst] >= earliest - eps)
    if late.any():
        late &= runs[src] & runs[dst]
        for i in np.flatnonzero(late).tolist():
            s, d = int(src[i]), int(dst[i])
            out.append(
                Violation(
                    "S005",
                    f"edge ({s}->{d}): task {d} starts at {float(start[d])} before "
                    f"message arrival {float(earliest[i])}",
                    task=d,
                    proc=int(proc[d]),
                )
            )

    # S006: reported makespan and per-processor ready times match the
    # placements (a NaN finish propagates into its processor's PRT).
    true_prt = np.zeros(machine.num_procs)
    np.maximum.at(true_prt, on, finish[tasks])
    off = ~(np.abs(inputs.prt - true_prt) <= eps)
    if off.any():
        for p in np.flatnonzero(off).tolist():
            out.append(
                Violation(
                    "S006",
                    f"PRT({p}) reported as {float(inputs.prt[p])} but placements "
                    f"finish at {float(true_prt[p])}",
                    proc=p,
                )
            )
    true_makespan = float(true_prt.max())
    if not abs(inputs.makespan - true_makespan) <= eps:
        out.append(
            Violation(
                "S006",
                f"makespan reported as {inputs.makespan} but placements "
                f"finish at {true_makespan}",
            )
        )
    return out


# -- greedy certificate ------------------------------------------------------


@np.errstate(all="ignore")  # huge finite times may overflow, as floats do
def _greedy_violations(
    inputs: _Inputs, flavor: str, eps: float
) -> List[Violation]:
    """Replay the schedule in start order and check the Theorem-3 invariant.

    The replay is sound under start-time ties: tasks are visited in
    ``(ST, FT, id)`` order, which always visits predecessors first (a
    predecessor finishes no later than its successor starts, and positive
    computation costs make its start strictly earlier).  Reordering tasks
    *within* a start-time tie can only raise other tasks' ready times, never
    lower them, so the minimum-EST comparison cannot produce false
    positives.

    Everything a task carries into the ready set — its LMT, its enabling
    processor EP (the predecessor with the lexicographically largest
    ``(arrival, FT, id)``) and its EMT on EP — is fixed by the recorded
    placements, and so is the step range over which it is ready: from the
    step after its last predecessor's to its own.  Only the PRT vector
    evolves.  The replay therefore evaluates every (task, step) pair of
    those ranges in bulk, a block of steps at a time: a pair is EP-type
    when ``LMT >= PRT(EP)`` at that step, its EST follows, and a step fails
    when the placed task is not ready yet (F001, desync), when some pair's
    EST or the placed task's own EST beats the recorded start (F001), or —
    FLB only — when the placed task is EP-type and a non-EP pair's EST ties
    its start (F002).  The first failing step is reported, with the
    candidate minima recomputed there.
    """
    proc, start, finish = inputs.proc, inputs.start, inputs.finish
    n, num_procs = len(proc), inputs.machine.num_procs

    order = np.lexsort((finish, start))  # stable: a full tie falls to the lower id
    step = np.empty(n, dtype=np.int64)
    step[order] = np.arange(n)

    # The edges grouped by destination (a stable sort keeps each group in
    # insertion order): the tasks with predecessors, ``fed``, in id order,
    # with each group's size and first edge.  EP is the predecessor with
    # the largest (arrival, FT(pred), pred): narrow each group to its
    # maximum one component at a time, until one edge per group is left
    # (the ids are distinct, so the last component always gets there).
    by_dst = np.argsort(inputs.dst, kind="stable")
    src, dst, remote = inputs.src[by_dst], inputs.dst[by_dst], inputs.remote[by_dst]
    in_degree = np.bincount(dst, minlength=n)
    fed = np.flatnonzero(in_degree)
    sizes = in_degree[fed]
    heads = np.cumsum(sizes) - sizes
    pred_finish = finish[src]
    arrival = pred_finish + remote
    top = arrival == np.repeat(np.maximum.reduceat(arrival, heads), sizes)
    for key in (pred_finish, src):
        if np.count_nonzero(top) == len(fed):
            break
        best = np.maximum.reduceat(np.where(top, key, -np.inf), heads)
        top &= key == np.repeat(best, sizes)
    lmt = np.zeros(n)
    lmt[fed] = arrival[top]
    # An entry task's EP is a virtual processor ``num_procs`` whose PRT is
    # +inf, so ``LMT >= PRT(EP)`` never makes it EP-type.
    ep = np.full(n, num_procs, dtype=np.int64)
    ep[fed] = proc[src[top]]
    on_ep = pred_finish + np.where(proc[src] == ep[dst], 0.0, remote)
    emt_ep = np.zeros(n)
    emt_ep[fed] = np.maximum(np.maximum.reduceat(on_ep, heads), 0.0)
    ready = np.zeros(n, dtype=np.int64)
    ready[fed] = np.maximum.reduceat(step[src], heads) + 1

    # A task whose own step comes before it is ready fails there (desync),
    # so only tasks with ready <= step ever sit in a ready set that matters.
    # ``pairs_before[k]``: the (task, step) pairs of the steps before k.
    live = ready <= step
    width = np.cumsum(
        np.bincount(ready[live], minlength=n + 1)[:n]
        - np.bincount(step[live] + 1, minlength=n + 1)[:n]
    )
    pairs_before = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(width, out=pairs_before[1:])

    start_at, finish_at, proc_at = start[order], finish[order], proc[order]
    prt = np.zeros(num_procs)
    max_steps = max(1, _REPLAY_BLOCK // (num_procs + 1) - 1)
    k0 = 0
    while k0 < n:
        # The longest run of steps whose pairs fit in one block (at least
        # one step, so a single ready set wider than the block still runs).
        k1 = int(np.searchsorted(pairs_before, pairs_before[k0] + _REPLAY_BLOCK,
                                 side="right")) - 1
        k1 = min(max(k1, k0 + 1), k0 + max_steps, n)
        rows = k1 - k0

        # hist[p, i]: PRT(p) before step k0 + i — the running max of the
        # finishes committed on p — with PRT after the block in the last
        # column and the virtual processor's +inf in the last row.
        hist = np.zeros((num_procs + 1, rows + 1))
        hist[:num_procs, 0] = prt
        hist[proc_at[k0:k1], np.arange(1, rows + 1)] = finish_at[k0:k1]
        hist = np.maximum.accumulate(hist, axis=1)
        hist[num_procs] = np.inf
        prt = hist[:num_procs, rows]
        min_prt = hist[:num_procs].min(axis=0)

        # Every (task, step) pair of the block with the task ready, task by
        # task: a run of consecutive rows, ending on the task's own step if
        # that falls in the block.
        cand = np.flatnonzero(live & (ready < k1) & (step >= k0))
        lo = np.maximum(ready[cand], k0) - k0
        runs = np.minimum(step[cand], k1 - 1) - k0 - lo + 1
        ends = np.cumsum(runs)
        row = np.arange(runs.sum()) + np.repeat(lo - ends + runs, runs)
        lmt_p = np.repeat(lmt[cand], runs)
        prt_e = hist.ravel()[row + np.repeat(ep[cand] * (rows + 1), runs)]
        is_ep = lmt_p >= prt_e
        est = np.where(
            is_ep,
            np.maximum(np.repeat(emt_ep[cand], runs), prt_e),
            np.maximum(lmt_p, min_prt[row]),
        )
        own = ends[step[cand] < k1] - 1
        own_row = row[own]
        own_est = np.full(rows, np.inf)
        own_est[own_row] = est[own]
        own_ep = np.zeros(rows, dtype=bool)
        own_ep[own_row] = is_ep[own]

        # A step fails when the placed task was not ready (desync) or
        # started later than its own EST, when a ready pair could have
        # started earlier, or (FLB) when the placed task is EP-type and a
        # non-EP pair ties it.  The ready set is never empty: an unready
        # placed task has a not-yet-replayed ancestor whose predecessors
        # all are, and that ancestor is ready.
        begins = start_at[k0:k1]
        start_row = begins[row]
        fails = (own_est == np.inf) | (begins > own_est + eps)
        fails[row[start_row > est + eps]] = True
        if flavor == "flb":
            tied = row[~is_ep & (est <= start_row + eps)]
            fails[tied[own_ep[tied]]] = True
        if fails.any():
            i = int(np.argmax(fails))  # the first failing step
            at = row == i
            return [
                _replay_violation(
                    k0 + i,
                    int(order[k0 + i]),
                    int(proc_at[k0 + i]),
                    float(start_at[k0 + i]),
                    float(own_est[i]),
                    bool(own_ep[i]),
                    float(est[at].min(initial=np.inf)),
                    float(est[at & ~is_ep].min(initial=np.inf)),
                    flavor,
                    eps,
                )
            ]
        k0 = k1
    return []


def _replay_violation(
    step: int,
    t: int,
    proc: int,
    start: float,
    chosen_est: float,
    chosen_is_ep: bool,
    best: float,
    best_non_ep_est: float,
    flavor: str,
    eps: float,
) -> Violation:
    """The violation a failing replay step reports, in rule order."""
    if chosen_est == math.inf:
        return Violation(
            "F001",
            f"replay step {step}: task {t} scheduled before it was "
            f"ready (replay desync)",
            task=t,
        )
    if start > best + eps:
        return Violation(
            "F001",
            f"replay step {step}: task {t} starts at {start} but a "
            f"ready candidate could start at {best} "
            f"(ETF-greedy invariant violated)",
            task=t,
            proc=proc,
        )
    if start > chosen_est + eps:
        return Violation(
            "F001",
            f"replay step {step}: task {t} starts at {start} but its "
            f"own earliest start was {chosen_est}",
            task=t,
            proc=proc,
        )
    # Otherwise the step failed the FLB tie rule.
    return Violation(
        "F002",
        f"replay step {step}: EP-type task {t} chosen at {start} "
        f"but a non-EP candidate achieves {best_non_ep_est} "
        f"(ties must favour the non-EP task)",
        task=t,
        proc=proc,
    )


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
