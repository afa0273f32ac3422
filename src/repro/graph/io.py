"""Task-graph serialisation: JSON round-trip, a compact text format, and DOT.

Three formats are supported:

* **JSON** — the canonical interchange format (:func:`to_json` /
  :func:`from_json` and file variants).  Stores task names, computation
  costs, and weighted edges.
* **TG text** — a line-oriented format convenient for hand-written fixtures
  and close in spirit to the Standard Task Graph Set (STG) files used by the
  scheduling community, extended with per-edge communication costs::

      # comment
      t <id> <comp> [name]
      e <src> <dst> <comm>

  Task ids must be ``0..V-1`` in any order.
* **DOT** — export only, for visual inspection with Graphviz.
"""

from __future__ import annotations

import json
from operator import itemgetter
from pathlib import Path
from typing import AbstractSet, Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import GraphError
from repro.graph.taskgraph import TaskGraph

__all__ = [
    "to_json",
    "from_json",
    "raw_graph_data",
    "save_json",
    "load_json",
    "to_tg_text",
    "from_tg_text",
    "to_dot",
]

_FORMAT_VERSION = 1


def to_json(graph: TaskGraph) -> str:
    """Serialise a task graph to a JSON string."""
    return json.dumps(_graph_doc(graph), indent=2)


def _graph_doc(graph: TaskGraph) -> Dict[str, Any]:
    """The JSON-ready document :func:`to_json` serialises (also embedded,
    as is, in schedule documents by :mod:`repro.schedule.io`)."""
    return {
        "format": "repro-taskgraph",
        "version": _FORMAT_VERSION,
        "tasks": [
            {"id": t, "comp": graph.comp(t), "name": graph.name(t)}
            for t in graph.tasks()
        ],
        "edges": [
            {"src": src, "dst": dst, "comm": comm} for src, dst, comm in graph.edges()
        ],
    }


def from_json(source: Union[str, bytes, Dict[str, Any]]) -> TaskGraph:
    """Build a frozen task graph from a ``repro-taskgraph`` document.

    ``source`` is the JSON text (as :func:`to_json` writes it) or the
    already-parsed document, so a caller that has decoded a request body
    builds the graph without encoding and parsing it again.  Field types
    are strict: task ``id`` and edge ``src``/``dst`` are JSON integers,
    ``comp``/``comm`` JSON numbers, ``name`` a string or null; a wrong
    type, a missing field or an entry that is not an object raises
    :class:`~repro.exceptions.GraphError` naming the entry.  Values are
    then checked by :meth:`TaskGraph.from_arrays`.
    """
    if isinstance(source, (str, bytes, bytearray)):
        try:
            doc = json.loads(source)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise GraphError(f"invalid task-graph JSON: {exc}") from exc
    else:
        doc = source
    if not isinstance(doc, dict) or doc.get("format") != "repro-taskgraph":
        raise GraphError("not a repro-taskgraph JSON document")
    tasks = _section(doc, "tasks")
    edges = _section(doc, "edges")
    ids, comps = _columns(tasks, "tasks", ("id", "comp"))
    names = [entry.get("name") for entry in tasks]
    src, dst, comm = _columns(edges, "edges", ("src", "dst", "comm"))
    _require(ids, "tasks", "id", _INTEGER)
    _require(comps, "tasks", "comp", _NUMBER)
    _require(names, "tasks", "name", _NAME)
    _require(src, "edges", "src", _INTEGER)
    _require(dst, "edges", "dst", _INTEGER)
    _require(comm, "edges", "comm", _NUMBER)
    id_arr = np.asarray(ids)
    dense = np.arange(len(ids))
    if not np.array_equal(id_arr, dense):
        order = np.argsort(id_arr, kind="stable")
        if not np.array_equal(id_arr[order], dense):
            raise GraphError("task ids must be dense 0..V-1")
        comps = [comps[i] for i in order.tolist()]
        names = [names[i] for i in order.tolist()]
    return TaskGraph.from_arrays(comps, src, dst, comm, names)


#: JSON value types accepted per field kind (``bool`` is not an integer).
_INTEGER = ({int}, "an integer")
_NUMBER = ({int, float}, "a number")
_NAME = ({str, type(None)}, "a string or null")


def _section(doc: Dict[str, Any], key: str) -> List[Any]:
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise GraphError(f"'{key}' must be a list, got {_describe(entries)}")
    return entries


def _columns(
    entries: List[Any], section: str, fields: Tuple[str, ...]
) -> List[List[Any]]:
    """One list per field, of that field's value in every entry."""
    try:
        return [list(map(itemgetter(name), entries)) for name in fields]
    except (KeyError, TypeError):
        pass
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise GraphError(
                f"{section}[{i}] must be an object, got {_describe(entry)}"
            )
        for name in fields:
            if name not in entry:
                raise GraphError(f"{section}[{i}] has no '{name}'")
    raise GraphError(f"malformed '{section}' entries")  # pragma: no cover


def _require(
    values: Sequence[Any],
    section: str,
    field: str,
    kind: Tuple[AbstractSet[type], str],
) -> None:
    """Raise GraphError naming the first value whose type is not allowed."""
    allowed, what = kind
    if set(map(type, values)) <= allowed:
        return
    for i, value in enumerate(values):
        if type(value) not in allowed:
            raise GraphError(
                f"{section}[{i}]: '{field}' must be {what}, "
                f"got {_describe(value)}"
            )


def _describe(value: Any) -> str:
    """A JSON value, spelled for an error message."""
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return "an array"
    if not isinstance(value, (str, int, float, type(None))):
        return type(value).__name__
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def raw_graph_data(
    text: str,
) -> "Tuple[List[float], List[Tuple[int, int, float]], List[Optional[str]]]":
    """Tolerantly extract ``(comps, edges, names)`` from task-graph JSON.

    Unlike :func:`from_json` this does **not** validate through
    :class:`TaskGraph` — malformed graphs (duplicate edges, self-loops,
    bad weights, cycles) come back as plain data so the linter
    (:func:`repro.verify.lint_data`) can report *every* problem with stable
    rule codes instead of stopping at the first constructor error.  Only
    structurally unreadable documents (not JSON, wrong format marker,
    tasks without ``id``/``comp``) raise :class:`~repro.exceptions.GraphError`.

    Task ids need not be dense; they are remapped to ``0..V-1`` in sorted
    order.  Edge endpoints that name unknown task ids map to ``-1`` (the
    linter reports them as out-of-range).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid task-graph JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "repro-taskgraph":
        raise GraphError("not a repro-taskgraph JSON document")
    comps: List[float] = []
    names: List[Optional[str]] = []
    index: Dict[int, int] = {}
    try:
        entries = sorted(doc.get("tasks", []), key=lambda e: int(e["id"]))
        for entry in entries:
            index.setdefault(int(entry["id"]), len(comps))
            comps.append(float(entry["comp"]))
            names.append(entry.get("name"))
        edges: List[Tuple[int, int, float]] = [
            (
                index.get(int(entry["src"]), -1),
                index.get(int(entry["dst"]), -1),
                float(entry["comm"]),
            )
            for entry in doc.get("edges", [])
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed task-graph document: {exc}") from exc
    return comps, edges, names


def save_json(graph: TaskGraph, path: Union[str, Path]) -> None:
    Path(path).write_text(to_json(graph))


def load_json(path: Union[str, Path]) -> TaskGraph:
    return from_json(Path(path).read_text())


def to_tg_text(graph: TaskGraph) -> str:
    """Serialise to the compact TG text format."""
    lines = [f"# repro task graph: V={graph.num_tasks} E={graph.num_edges}"]
    for t in graph.tasks():
        lines.append(f"t {t} {graph.comp(t)!r} {graph.name(t)}")
    for src, dst, comm in graph.edges():
        lines.append(f"e {src} {dst} {comm!r}")
    return "\n".join(lines) + "\n"


def from_tg_text(text: str) -> TaskGraph:
    """Parse the TG text format (see module docstring)."""
    comps: Dict[int, float] = {}
    names: Dict[int, str] = {}
    edges: List[Tuple[int, int, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "t":
                tid = int(parts[1])
                if tid in comps:
                    raise GraphError(f"line {lineno}: duplicate task id {tid}")
                comps[tid] = float(parts[2])
                if len(parts) > 3:
                    names[tid] = parts[3]
            elif kind == "e":
                edges.append((int(parts[1]), int(parts[2]), float(parts[3])))
            else:
                raise GraphError(f"line {lineno}: unknown record {kind!r}")
        except (IndexError, ValueError) as exc:
            raise GraphError(f"line {lineno}: malformed record {line!r}") from exc
    if sorted(comps) != list(range(len(comps))):
        raise GraphError("task ids must be dense 0..V-1")
    return TaskGraph.from_arrays(
        [comps[tid] for tid in range(len(comps))],
        [src for src, _dst, _comm in edges],
        [dst for _src, dst, _comm in edges],
        [comm for _src, _dst, comm in edges],
        [names.get(tid) for tid in range(len(comps))],
    )


def to_dot(graph: TaskGraph) -> str:
    """Export to Graphviz DOT with comp/comm labels."""
    lines = ["digraph taskgraph {", "  rankdir=TB;"]
    for t in graph.tasks():
        lines.append(f'  {t} [label="{graph.name(t)}\\n{graph.comp(t):g}"];')
    for src, dst, comm in graph.edges():
        lines.append(f'  {src} -> {dst} [label="{comm:g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
