"""Schedule serialisation: JSON round-trip.

Persisting schedules lets toolchains separate the (expensive) scheduling
decision from downstream consumers — code generators, visualisers, the
discrete-event executor.  The JSON document embeds the task graph and the
machine model so a loaded schedule is self-contained and immediately
re-validatable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.exceptions import ScheduleError
from repro.graph.io import from_json as graph_from_json
from repro.graph.io import to_json as graph_to_json
from repro.machine.model import MachineModel
from repro.schedule.schedule import Schedule

__all__ = ["schedule_to_json", "schedule_from_json", "save_schedule", "load_schedule"]

_FORMAT_VERSION = 1


def schedule_to_json(schedule: Schedule) -> str:
    """Serialise a complete schedule (graph + machine + placements)."""
    if not schedule.complete:
        raise ScheduleError("only complete schedules can be serialised")
    machine = schedule.machine
    doc = {
        "format": "repro-schedule",
        "version": _FORMAT_VERSION,
        "machine": {
            "num_procs": machine.num_procs,
            "comm_scale": machine.comm_scale,
            "latency": machine.latency,
            "speeds": list(machine.speeds) if machine.speeds else None,
        },
        "graph": json.loads(graph_to_json(schedule.graph)),
        "placements": [
            {"task": e.task, "proc": e.proc, "start": e.start}
            for e in schedule  # start-time order
        ],
    }
    return json.dumps(doc, indent=2)


def schedule_from_json(text: str) -> Schedule:
    """Parse and re-validate a schedule produced by :func:`schedule_to_json`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScheduleError(f"invalid schedule JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "repro-schedule":
        raise ScheduleError("not a repro-schedule JSON document")
    if not isinstance(doc.get("graph"), dict):
        raise ScheduleError("schedule document has no 'graph' object")
    graph = graph_from_json(doc["graph"])
    m = doc["machine"]
    speeds = m.get("speeds")
    machine = MachineModel(
        num_procs=int(m["num_procs"]),
        comm_scale=float(m.get("comm_scale", 1.0)),
        latency=float(m.get("latency", 0.0)),
        speeds=tuple(float(s) for s in speeds) if speeds else None,
    )
    schedule = Schedule(graph, machine)
    for entry in doc["placements"]:
        # Insertion-placed schedules may replay out of PRT order; allow it.
        schedule.place(
            int(entry["task"]), int(entry["proc"]), float(entry["start"]),
            insertion=True,
        )
    if not schedule.complete:
        raise ScheduleError("schedule document does not place every task")
    return schedule.validate()


def save_schedule(schedule: Schedule, path: Union[str, Path]) -> None:
    Path(path).write_text(schedule_to_json(schedule))


def load_schedule(path: Union[str, Path]) -> Schedule:
    return schedule_from_json(Path(path).read_text())
