"""Scheduling algorithms: FLB plus the baselines it is evaluated against.

All schedulers share the signature
``scheduler(graph, machine, **options) -> Schedule``, where ``machine`` is a
:class:`~repro.machine.MachineModel`.

========= ============================================ =========================================
name      algorithm                                    complexity
========= ============================================ =========================================
flb       Fast Load Balancing (the paper)              ``O(V (log W + log P) + E)``
etf       Earliest Task First                          ``O(W (E + V) P)``
mcp       Modified Critical Path (random ties)         ``O(V log V + (E + V) P)``
mcp-lex   MCP with lexicographic descendant ties       ``O(V^2 ...)``
fcp       Fast Critical Path                           ``O(V (log W + log P) + E)``
dls       Dynamic Level Scheduling                     ``O(W (E + V) P)``
hlfet     Highest Level First w/ Estimated Times       ``O(V log V + (E + V) P)``
heft      Heterogeneous Earliest Finish Time (ext.)    ``O(V log V + (E + V) P + V^2/P)``
mcp-i     MCP with idle-gap insertion (extension)      ``O(V log V + (E + V) P + V^2/P)``
hlfet-i   HLFET with idle-gap insertion (extension)    ``O(V log V + (E + V) P + V^2/P)``
dsc-llb   DSC clustering + LLB cluster mapping         ``O((E + V) log V + C log C)``
sarkar-llb Sarkar edge-zeroing + LLB (extension)       ``O(E (V + E))``
========= ============================================ =========================================
"""

from __future__ import annotations

import functools
from typing import Callable, Dict

from repro.core.flb import flb
from repro.exceptions import SchedulerError
from repro.schedule.schedule import Schedule
from repro.schedulers.dls import dls
from repro.schedulers.dsc import Clustering, dsc
from repro.schedulers.dsc_llb import dsc_llb
from repro.schedulers.etf import etf
from repro.schedulers.fcp import fcp
from repro.schedulers.heft import heft, upward_ranks
from repro.schedulers.hlfet import hlfet
from repro.schedulers.insertion import best_insertion_slot, hlfet_insertion, mcp_insertion
from repro.schedulers.llb import llb
from repro.schedulers.mcp import mcp, mcp_priority_order
from repro.schedulers.sarkar import sarkar, sarkar_llb

__all__ = [
    "SCHEDULERS",
    "get_scheduler",
    "flb",
    "etf",
    "mcp",
    "mcp_priority_order",
    "fcp",
    "dls",
    "hlfet",
    "heft",
    "upward_ranks",
    "mcp_insertion",
    "hlfet_insertion",
    "best_insertion_slot",
    "dsc",
    "llb",
    "dsc_llb",
    "sarkar",
    "sarkar_llb",
    "Clustering",
]

#: Registry of all scheduling algorithms by CLI/bench name.
SCHEDULERS: Dict[str, Callable[..., Schedule]] = {
    "flb": flb,
    "etf": etf,
    "mcp": mcp,
    "mcp-lex": functools.partial(mcp, tie="lex"),
    "fcp": fcp,
    "dls": dls,
    "hlfet": hlfet,
    "heft": heft,
    "mcp-i": mcp_insertion,
    "hlfet-i": hlfet_insertion,
    "dsc-llb": dsc_llb,
    "sarkar-llb": sarkar_llb,
}


def get_scheduler(name: str) -> Callable[..., Schedule]:
    """Look up a scheduler by registry name (see :data:`SCHEDULERS`)."""
    try:
        return SCHEDULERS[name]
    except KeyError:
        raise SchedulerError(
            f"unknown scheduler {name!r}; available: {', '.join(sorted(SCHEDULERS))}"
        ) from None
