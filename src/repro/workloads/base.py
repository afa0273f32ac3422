"""Shared machinery for workload generators.

Every generator in this package works in two stages:

1. build the *topology* — a task list (names) plus a dependency list — which
   is fully determined by the structural parameters (matrix size, grid size,
   FFT points, ...);
2. assign *weights* — computation costs sampled i.i.d. from a chosen
   distribution, and communication costs sampled i.i.d. and then rescaled so
   the instance's CCR is exactly the requested value (this mirrors the
   paper's experimental setup: fixed problem topology, random weights,
   granularity controlled through CCR).

Passing ``rng=None`` yields deterministic unit-mean weights (comp =
``mean_comp``, comm = ``ccr * mean_comp``), which is convenient for unit
tests and worked examples.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.taskgraph import TaskGraph
from repro.util.rng import sample_weights, scale_to_ccr

__all__ = ["build_weighted_graph", "Edge"]

#: ``(src_index, dst_index)`` pairs into the generator's task-name list.
Edge = Tuple[int, int]


def build_weighted_graph(
    names: Sequence[str],
    edges: Iterable[Edge],
    rng: Optional[np.random.Generator] = None,
    ccr: float = 1.0,
    mean_comp: float = 1.0,
    distribution: str = "uniform",
) -> TaskGraph:
    """Materialise a topology into a frozen, weighted :class:`TaskGraph`.

    Parameters
    ----------
    names:
        One name per task; task ids follow list order.
    edges:
        ``(src, dst)`` index pairs.
    rng:
        Seeded generator for weight sampling, or ``None`` for deterministic
        unit-coefficient weights.
    ccr:
        Target communication-to-computation ratio (exactly achieved).
    mean_comp:
        Mean computation cost.
    distribution:
        Weight distribution name (see :data:`repro.util.rng.WEIGHT_DISTRIBUTIONS`).
    """
    edge_list: List[Edge] = list(edges)
    n = len(names)
    if rng is None:
        comps = np.full(n, float(mean_comp))
        comms = np.full(len(edge_list), float(ccr) * float(mean_comp))
    else:
        comps = sample_weights(rng, mean_comp, n, distribution)
        raw = sample_weights(rng, 1.0, len(edge_list), distribution)
        comms = scale_to_ccr(comps, raw, ccr)
    return TaskGraph.from_arrays(
        comps,
        [src for src, _dst in edge_list],
        [dst for _src, dst in edge_list],
        comms,
        names,
    )
