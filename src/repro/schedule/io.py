"""Schedule serialisation: JSON round-trip.

Persisting schedules lets toolchains separate the (expensive) scheduling
decision from downstream consumers — code generators, visualisers, the
discrete-event executor.  The JSON document embeds the task graph and the
machine model (in :meth:`~repro.machine.MachineModel.to_dict` form) so a
loaded schedule is self-contained and immediately re-validatable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Union

from repro.exceptions import ScheduleError
from repro.graph.io import _graph_doc
from repro.graph.io import from_json as graph_from_json
from repro.machine.model import MachineModel
from repro.schedule.schedule import Schedule

__all__ = ["schedule_to_json", "schedule_from_json", "save_schedule", "load_schedule"]

_FORMAT_VERSION = 1


def schedule_to_json(schedule: Schedule) -> str:
    """Serialise a complete schedule (graph + machine + placements)."""
    if not schedule.complete:
        raise ScheduleError("only complete schedules can be serialised")
    doc = {
        "format": "repro-schedule",
        "version": _FORMAT_VERSION,
        "machine": schedule.machine.to_dict(),
        "graph": _graph_doc(schedule.graph),
        "placements": [
            {"task": e.task, "proc": e.proc, "start": e.start}
            for e in schedule  # start-time order
        ],
    }
    return json.dumps(doc, indent=2)


def schedule_from_json(text: str) -> Schedule:
    """Parse and re-validate a schedule produced by :func:`schedule_to_json`.

    Every malformed document raises :class:`~repro.exceptions.ScheduleError`
    (graph defects keep their :class:`~repro.exceptions.GraphError`).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScheduleError(f"invalid schedule JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "repro-schedule":
        raise ScheduleError("not a repro-schedule JSON document")
    if not isinstance(doc.get("graph"), dict):
        raise ScheduleError("schedule document has no 'graph' object")
    placements = doc.get("placements")
    if not isinstance(placements, list):
        raise ScheduleError("schedule document has no 'placements' list")
    graph = graph_from_json(doc["graph"])
    try:
        machine = MachineModel.from_dict(doc.get("machine"))
    except ValueError as exc:
        raise ScheduleError(f"invalid schedule machine: {exc}") from None
    schedule = Schedule(graph, machine)
    for i, entry in enumerate(placements):
        try:
            task, proc, start = entry["task"], entry["proc"], entry["start"]
        except (KeyError, TypeError):
            raise ScheduleError(
                f"placements[{i}] must be an object with task, proc and start"
            ) from None
        if not (_is_int(task) and _is_int(proc) and _is_number(start)):
            raise ScheduleError(
                f"placements[{i}]: task and proc must be integers, start a number"
            )
        # Insertion-placed schedules may replay out of PRT order; allow it.
        schedule.place(task, proc, float(start), insertion=True)
    if not schedule.complete:
        raise ScheduleError("schedule document does not place every task")
    return schedule.validate()


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def save_schedule(schedule: Schedule, path: Union[str, Path]) -> None:
    Path(path).write_text(schedule_to_json(schedule))


def load_schedule(path: Union[str, Path]) -> Schedule:
    return schedule_from_json(Path(path).read_text())
