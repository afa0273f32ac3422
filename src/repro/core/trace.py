"""Execution-trace recording for FLB, reproducing the paper's Table 1.

Table 1 shows, for every iteration of FLB on the Fig. 1 graph: the EP-type
tasks enabled by each processor (annotated ``t[EMT; BL/LMT]``, in EMT-list
order), the non-EP-type tasks (annotated ``t[LMT]``, in LMT order), and the
placement decision ``t -> p, [ST - FT]``.

:class:`TraceRecorder` is an :class:`~repro.core.flb.FlbObserver` that
captures exactly that data;
:func:`format_trace` renders it in the paper's layout::

    trace = TraceRecorder(graph)
    schedule = flb(graph, MachineModel(2), observer=trace)
    print(format_trace(trace))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.graph.properties import bottom_levels
from repro.graph.taskgraph import TaskGraph
from repro.core.flb import FlbIteration
from repro.util.tables import format_float

__all__ = ["TraceRecorder", "TraceRow", "format_trace", "render_trace", "trace_rows"]


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


class TraceRecorder:
    """Collects a :class:`TraceRow` per FLB iteration."""

    def __init__(self, graph: TaskGraph) -> None:
        self.graph = graph
        self._bl = bottom_levels(graph)
        self.rows: List[TraceRow] = []

    def on_iteration(self, snapshot: FlbIteration) -> None:
        lists = snapshot.lists
        ep_tasks: Dict[int, List[EpEntry]] = {}
        for p in range(lists.num_procs):
            entries = [
                EpEntry(
                    task=t,
                    emt=emt,
                    bottom_level=self._bl[t],
                    lmt=lists.lmt_of_ep_task(p, t),
                )
                for t, emt in lists.ep_tasks_by_emt(p)
            ]
            if entries:
                ep_tasks[p] = entries
        self.rows.append(
            TraceRow(
                iteration=snapshot.iteration,
                ep_tasks=ep_tasks,
                non_ep_tasks=lists.non_ep_tasks_by_lmt(),
                task=snapshot.chosen_task,
                proc=snapshot.chosen_proc,
                start=snapshot.chosen_start,
                finish=snapshot.chosen_start + self.graph.comp(snapshot.chosen_task),
                is_ep=snapshot.chosen_is_ep,
            )
        )


def trace_rows(recorder: TraceRecorder) -> List[Dict[str, Any]]:
    """The recorded trace as JSON-native rows, task names resolved.

    Each row holds ``ep_tasks`` (processor id as a string -> ``[name,
    EMT, BL, LMT]`` entries), ``non_ep_tasks`` (``[name, LMT]`` entries)
    and the placement (``task``, ``name``, ``proc``, ``start``,
    ``finish``); :func:`render_trace` lays them out.
    """
    name = recorder.graph.name
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
        for row in recorder.rows
    ]


def format_trace(recorder: TraceRecorder, procs: Optional[List[int]] = None) -> str:
    """Render the recorded trace in the paper's Table 1 layout.

    ``procs`` selects/orders the EP columns; defaults to every processor
    that ever enables an EP task (all processors if none ever does).
    """
    return render_trace(trace_rows(recorder), procs)


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
