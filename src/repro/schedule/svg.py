"""SVG Gantt-chart export.

Dependency-free vector rendering of schedules: one lane per processor,
one rounded rectangle per task (critical tasks highlighted), a time axis,
and hover tooltips (SVG ``<title>`` elements) carrying task name and exact
times.  Complements the ASCII renderer for reports and documentation.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import List, Set, Union

from repro.schedule.analysis import slack_times
from repro.schedule.schedule import Schedule

__all__ = ["render_gantt_svg", "save_gantt_svg"]

#: Qualitative fill palette, cycled per task id.
_PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)
_CRITICAL_STROKE = "#c0392b"


def render_gantt_svg(
    schedule: Schedule,
    width: int = 900,
    lane_height: int = 34,
    highlight_critical: bool = True,
) -> str:
    """Render ``schedule`` as an SVG document string."""
    if width < 100:
        raise ValueError(f"width must be >= 100, got {width}")
    graph = schedule.graph
    makespan = schedule.makespan
    procs = schedule.machine.num_procs
    margin_left = 46
    margin_top = 18
    axis_height = 26
    chart_w = width - margin_left - 10
    height = margin_top + procs * lane_height + axis_height
    scale = chart_w / makespan if makespan > 0 else 1.0

    critical: Set[int] = set()
    if highlight_critical and schedule.complete:
        slack = slack_times(schedule)
        critical = {t for t, s in enumerate(slack) if s <= 1e-9}

    def x(t: float) -> float:
        return margin_left + t * scale

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # Lanes and labels.
    for p in range(procs):
        y = margin_top + p * lane_height
        fill = "#f7f7f7" if p % 2 else "#efefef"
        parts.append(
            f'<rect x="{margin_left}" y="{y}" width="{chart_w}" '
            f'height="{lane_height - 4}" fill="{fill}"/>'
        )
        parts.append(
            f'<text x="{margin_left - 6}" y="{y + lane_height / 2}" '
            f'text-anchor="end" dominant-baseline="middle">P{p}</text>'
        )
    # Tasks.
    for p in range(procs):
        y = margin_top + p * lane_height + 2
        for task in schedule.proc_tasks(p):
            start = schedule.start_of(task)
            finish = schedule.finish_of(task)
            w = max(1.0, (finish - start) * scale)
            color = _PALETTE[task % len(_PALETTE)]
            stroke = (
                f' stroke="{_CRITICAL_STROKE}" stroke-width="2"'
                if task in critical
                else ' stroke="#444" stroke-width="0.5"'
            )
            # Only &, < and > are escaped (text content, not attributes).
            name = html.escape(graph.name(task), quote=False)
            parts.append(
                f'<rect x="{x(start):.2f}" y="{y}" width="{w:.2f}" '
                f'height="{lane_height - 8}" rx="3" fill="{color}"{stroke}>'
                f"<title>{name}: [{start:g}, {finish:g}) on P{p}"
                f"{' (critical)' if task in critical else ''}</title></rect>"
            )
            if w > 28:
                parts.append(
                    f'<text x="{x(start) + w / 2:.2f}" '
                    f'y="{y + (lane_height - 8) / 2}" text-anchor="middle" '
                    f'dominant-baseline="middle" fill="white">{name[:12]}</text>'
                )
    # Time axis.
    axis_y = margin_top + procs * lane_height + 4
    parts.append(
        f'<line x1="{margin_left}" y1="{axis_y}" x2="{margin_left + chart_w}" '
        f'y2="{axis_y}" stroke="#333"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = makespan * frac
        parts.append(
            f'<line x1="{x(t):.2f}" y1="{axis_y}" x2="{x(t):.2f}" '
            f'y2="{axis_y + 4}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x(t):.2f}" y="{axis_y + 16}" '
            f'text-anchor="middle">{t:g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def save_gantt_svg(
    schedule: Schedule,
    path: Union[str, Path],
    width: int = 900,
    lane_height: int = 34,
    highlight_critical: bool = True,
) -> None:
    """Write the SVG rendering of ``schedule`` to ``path``."""
    Path(path).write_text(
        render_gantt_svg(schedule, width, lane_height, highlight_critical)
    )
