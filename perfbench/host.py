"""Child processes of the benchmark.

``host.py serve [--trace]``
    Runs the scheduling service on an ephemeral localhost port, prints
    ``serving on HOST:PORT``, and drains and exits on SIGTERM.  With
    ``--trace`` every layer is wrapped (see ``spans.py``) and
    ``GET /perfbench/spans`` returns the span totals as JSON.
``host.py coldstart``
    Imports the batch plane, schedules and certifies one small graph, and
    exits: the set-up a batch user pays in every fresh interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SPANS_PATH = "/perfbench/spans"


def serve(trace: bool) -> int:
    sys.path.insert(0, SRC)
    if trace:
        from spans import Spans

        spans = Spans()
        spans.install()
        spans.install_serving()
        _expose(spans)
    from repro.serve import ServeConfig
    from repro.serve import serve as run_service

    run_service(ServeConfig(host="127.0.0.1", port=0))
    return 0


def _expose(spans: Any) -> None:
    """Answer ``GET SPANS_PATH`` with the span totals before routing."""
    server = sys.modules["repro.serve.server"]
    from repro.serve.handlers import Response

    route = server.route

    async def traced_route(service: Any, method: str, path: str,
                           body: bytes) -> Any:
        if path == SPANS_PATH:
            return Response(status=200,
                            body=json.dumps(spans.snapshot()).encode())
        return await route(service, method, path, body)

    server.route = traced_route


def coldstart() -> int:
    sys.path.insert(0, SRC)
    from repro.api import SchedulingOptions
    from repro.batch import BatchJob, schedule_many
    from repro.machine.model import MachineModel
    from repro.util.rng import make_rng
    from repro.workloads import lu, lu_size_for_tasks

    graph = lu(lu_size_for_tasks(200), make_rng(0))
    jobs = [BatchJob(graph=graph, machine=MachineModel(procs), algo="flb")
            for procs in (2, 4)]
    results = schedule_many(jobs, workers=1,
                            options=SchedulingOptions(certify=True))
    return 0 if all(r.ok and r.certified for r in results) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("serve", "coldstart"))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    return serve(args.trace) if args.mode == "serve" else coldstart()


if __name__ == "__main__":
    raise SystemExit(main())
