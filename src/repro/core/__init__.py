"""FLB — the paper's core contribution: the fast load-balancing scheduler
and the Table-1 trace read from its schedule."""

from repro.core.flb import flb
from repro.core.trace import flb_trace, format_trace

__all__ = ["flb", "flb_trace", "format_trace"]
