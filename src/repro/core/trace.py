"""The FLB execution trace, reproducing the paper's Table 1.

Table 1 shows, for every iteration of FLB on the Fig. 1 graph: the EP-type
tasks enabled by each processor (annotated ``t[EMT; BL/LMT]``, in EMT-list
order), the non-EP-type tasks (annotated ``t[LMT]``, in LMT order), and the
placement decision ``t -> p, [ST - FT]``.

Every cell is a function of the finished schedule.  A task's ``LMT``,
``EP`` and ``EMT`` on ``EP`` are fixed once its last predecessor is
placed, and the placement order says at which iteration it became ready
and at which it was placed.  ``PRT`` only grows, so the lists'
insert-then-demote comes to one test: a ready task is EP-type at
iteration ``i`` iff ``LMT >= PRT_i(EP)``.  :func:`flb_trace` builds the
rows that way and :func:`format_trace` renders them in the paper's
layout::

    print(format_trace(flb(graph, MachineModel(2))))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.flb_array import _ready_at
from repro.graph.properties import bottom_levels
from repro.schedule.schedule import Schedule
from repro.util.tables import format_float

__all__ = ["TraceRow", "flb_trace", "format_trace", "render_trace", "trace_rows"]


@dataclass(frozen=True)
class EpEntry:
    """One EP-task annotation: ``t[EMT; BL/LMT]``."""

    task: int
    emt: float
    bottom_level: float
    lmt: float


@dataclass(frozen=True)
class TraceRow:
    """One scheduling iteration."""

    iteration: int
    ep_tasks: Dict[int, List[EpEntry]]  # proc -> entries in EMT order
    non_ep_tasks: List[Tuple[int, float]]  # (task, LMT) in LMT order
    task: int
    proc: int
    start: float
    finish: float
    is_ep: bool


def flb_trace(schedule: Schedule) -> List[TraceRow]:
    """One :class:`TraceRow` per iteration of the FLB run that produced the
    complete ``schedule``, the lists as they stood before its placement.

    ``LMT`` and ``EP`` follow the kernel's rule: the last message to arrive,
    ties to the lexicographically largest ``(arrival, FT, id)``.  Both task
    lists sort by ``(value, -BL, id)``.
    """
    graph, machine = schedule.graph, schedule.machine
    n = graph.num_tasks
    bl = bottom_levels(graph)
    lmt = [0.0] * n
    emt = [0.0] * n
    ep = [-1] * n  # entry tasks have no enabling processor
    became_ready: List[List[int]] = [[] for _ in range(n)]
    for t, i in enumerate(_ready_at(graph, schedule).tolist()):
        became_ready[i].append(t)
        best = (-1.0, -1.0, -1)
        for pred in graph.preds(t):
            ft = schedule.finish_of(pred)
            best = max(best, (ft + machine.remote_delay(graph.comm(pred, t)), ft, pred))
        if best[2] < 0:
            continue
        lmt[t], ep[t] = best[0], schedule.proc_of(best[2])
        for pred in graph.preds(t):
            arrival = schedule.finish_of(pred) + machine.comm_delay(
                schedule.proc_of(pred), ep[t], graph.comm(pred, t)
            )
            if arrival > emt[t]:
                emt[t] = arrival

    prt = [0.0] * machine.num_procs
    ready: List[int] = []
    rows: List[TraceRow] = []
    for i, task in enumerate(schedule.placement_order()):
        ready += became_ready[i]
        is_ep = {t: ep[t] >= 0 and lmt[t] >= prt[ep[t]] for t in ready}
        ep_tasks: Dict[int, List[EpEntry]] = {}
        for t in sorted((t for t in ready if is_ep[t]), key=lambda t: (emt[t], -bl[t], t)):
            ep_tasks.setdefault(ep[t], []).append(EpEntry(t, emt[t], bl[t], lmt[t]))
        non_ep = sorted((t for t in ready if not is_ep[t]), key=lambda t: (lmt[t], -bl[t], t))
        proc, finish = schedule.proc_of(task), schedule.finish_of(task)
        rows.append(
            TraceRow(
                iteration=i,
                ep_tasks=dict(sorted(ep_tasks.items())),
                non_ep_tasks=[(t, lmt[t]) for t in non_ep],
                task=task,
                proc=proc,
                start=schedule.start_of(task),
                finish=finish,
                is_ep=is_ep[task],
            )
        )
        ready.remove(task)
        prt[proc] = finish
    return rows


def trace_rows(schedule: Schedule) -> List[Dict[str, Any]]:
    """:func:`flb_trace` as JSON-native rows, task names resolved.

    Each row holds ``ep_tasks`` (processor id as a string -> ``[name,
    EMT, BL, LMT]`` entries), ``non_ep_tasks`` (``[name, LMT]`` entries)
    and the placement (``task``, ``name``, ``proc``, ``start``,
    ``finish``); :func:`render_trace` lays them out.
    """
    name = schedule.graph.name
    return [
        {
            "ep_tasks": {
                str(p): [[name(e.task), e.emt, e.bottom_level, e.lmt] for e in entries]
                for p, entries in row.ep_tasks.items()
            },
            "non_ep_tasks": [[name(t), lmt] for t, lmt in row.non_ep_tasks],
            "task": row.task,
            "name": name(row.task),
            "proc": row.proc,
            "start": row.start,
            "finish": row.finish,
        }
        for row in flb_trace(schedule)
    ]


def format_trace(schedule: Schedule, procs: Optional[List[int]] = None) -> str:
    """Render the trace of an FLB ``schedule`` in the paper's Table 1 layout.

    ``procs`` selects/orders the EP columns; defaults to every processor
    that ever enables an EP task (all processors if none ever does).
    """
    return render_trace(trace_rows(schedule), procs)


def render_trace(rows: List[Dict[str, Any]], procs: Optional[List[int]] = None) -> str:
    """Lay out :func:`trace_rows` output as the paper's Table 1."""
    if procs is None:
        seen = sorted({int(p) for row in rows for p in row["ep_tasks"]})
        procs = seen if seen else [0]

    f = format_float
    headers = [*(f"EP tasks on p{p}" for p in procs), "non-EP tasks", "scheduling"]
    col_lines: List[List[List[str]]] = []  # row -> column -> lines
    for row in rows:
        cols: List[List[str]] = [
            [
                f"{t}[{f(emt)};{f(bl)}/{f(lmt)}]"
                for t, emt, bl, lmt in row["ep_tasks"].get(str(p), [])
            ]
            or ["-"]
            for p in procs
        ]
        cols.append([f"{t}[{f(lmt)}]" for t, lmt in row["non_ep_tasks"]] or ["-"])
        cols.append(
            [f"{row['name']} -> p{row['proc']}, [{f(row['start'])} - {f(row['finish'])}]"]
        )
        col_lines.append(cols)

    widths = [len(h) for h in headers]
    for cols in col_lines:
        for i, lines in enumerate(cols):
            for line in lines:
                widths[i] = max(widths[i], len(line))

    def fmt(cells: List[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    out = [fmt(headers), "  ".join("-" * w for w in widths)]
    for cols in col_lines:
        height = max(len(lines) for lines in cols)
        for i in range(height):
            out.append(fmt([lines[i] if i < len(lines) else "" for lines in cols]))
    return "\n".join(out)
