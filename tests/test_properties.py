"""Tests for static task-graph analysis (levels, critical path, width, CCR).

The ``perfgate`` test holds the cold-graph budget: FLB on a freshly
ingested graph, priorities not yet computed, costs at most 1.3x a run on
a graph built from the same document with them memoized.
"""

import json
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    TaskGraph,
    alap_times,
    bottom_levels,
    ccr,
    critical_path_length,
    critical_path_tasks,
    parallelism_profile,
    static_levels,
    top_levels,
    width,
    width_lower_bound,
)
import repro.graph.properties as props
from repro.bench.perfgate import paired_rounds
from repro.core.flb_array import flb_array
from repro.graph.io import from_json, to_json
from repro.graph.properties import bottom_levels_array, top_levels_array
from repro.machine.model import MachineModel
from repro.util.rng import make_rng
from repro.workloads import (
    chain,
    erdos_dag,
    fft,
    independent_tasks,
    layered_random,
    lu,
    lu_chain,
    lu_size_for_tasks,
    paper_example,
    stencil,
    stencil_size_for_tasks,
)
from tests.level_oracle import bottom_levels_py, top_levels_py


class TestLevelsOnPaperExample:
    """Bottom levels on the Fig. 1 graph must match the values printed in
    the paper's Table 1 trace."""

    def test_bottom_levels_match_table1(self):
        bl = bottom_levels(paper_example())
        assert bl[7] == 2.0
        assert bl[6] == 6.0  # 2 + 2 + 2
        assert bl[5] == 8.0  # 3 + 3 + 2
        assert bl[4] == 6.0  # 3 + 1 + 2
        assert bl[3] == 12.0  # 3 + 1 + 8
        assert bl[2] == 9.0  # 2 + 1 + 6
        assert bl[1] == 11.0  # 2 + max(2+6, 1+8)
        assert bl[0] == 15.0  # 2 + max(1+11, 4+9, 1+12)

    def test_critical_path(self):
        g = paper_example()
        assert critical_path_length(g) == 15.0
        path = critical_path_tasks(g)
        assert path[0] == 0
        assert path[-1] == 7
        # Verify the returned path really is a path of length CP.
        total = 0.0
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)
            total += g.comp(a) + g.comm(a, b)
        total += g.comp(path[-1])
        assert total == pytest.approx(15.0)

    def test_alap(self):
        al = alap_times(paper_example())
        assert al[0] == 0.0
        assert al[3] == 3.0
        assert al[7] == 13.0

    def test_top_levels(self):
        tl = top_levels(paper_example())
        assert tl[0] == 0.0
        assert tl[1] == 3.0  # 0 + 2 + 1
        assert tl[2] == 6.0  # 0 + 2 + 4
        assert tl[7] == 13.0  # via t3, t5: 3 + 3(+1) ... = TL(t5)+comp+comm

    def test_static_levels(self):
        sl = static_levels(paper_example())
        assert sl[7] == 2.0
        assert sl[5] == 5.0  # 3 + 2
        assert sl[0] == 10.0  # 2 + 3 + 3 + 2 via t3, t5, t7


class TestLevelsStructure:
    def test_single_task(self):
        g = TaskGraph()
        g.add_task(4.0)
        g.freeze()
        assert bottom_levels(g) == [4.0]
        assert top_levels(g) == [0.0]
        assert critical_path_length(g) == 4.0

    def test_chain_levels(self):
        g = chain(4)  # unit comp, ccr=1 -> comm=1
        bl = bottom_levels(g)
        assert bl == [7.0, 5.0, 3.0, 1.0]
        tl = top_levels(g)
        assert tl == [0.0, 2.0, 4.0, 6.0]

    def test_bl_tl_sum_bounded_by_cp(self):
        g = layered_random(6, 5, make_rng(1), ccr=2.0)
        bl = bottom_levels(g)
        tl = top_levels(g)
        cp = critical_path_length(g)
        for t in g.tasks():
            assert tl[t] + bl[t] <= cp + 1e-9

    def test_alap_nonnegative_and_monotone_along_edges(self):
        g = layered_random(5, 4, make_rng(2))
        al = alap_times(g)
        for t in g.tasks():
            assert al[t] >= -1e-9
        for src, dst, _ in g.edges():
            assert al[src] < al[dst] + 1e-9


class TestCcr:
    def test_no_edges(self):
        assert ccr(independent_tasks(5)) == 0.0

    def test_known_value(self):
        g = TaskGraph()
        a, b = g.add_task(2.0), g.add_task(4.0)  # mean comp 3
        g.add_edge(a, b, 6.0)  # mean comm 6
        g.freeze()
        assert ccr(g) == pytest.approx(2.0)

    @pytest.mark.parametrize("target", [0.2, 1.0, 5.0])
    def test_generators_hit_target_ccr(self, target):
        g = layered_random(5, 5, make_rng(3), ccr=target)
        assert ccr(g) == pytest.approx(target, rel=1e-9)


class TestWidth:
    def test_chain_width_one(self):
        assert width(chain(10)) == 1

    def test_independent_width_v(self):
        assert width(independent_tasks(13)) == 13

    def test_paper_example_width(self):
        # Antichain {t1, t2, t3} (children of t0) is maximum: t4..t6 descend
        # from distinct members of it, but {t2, t4, t5} is also size 3.
        assert width(paper_example()) == 3

    def test_fft_width_equals_points(self):
        assert width(fft(8)) == 8

    def test_diamond(self):
        g = TaskGraph()
        a, b, c, d = (g.add_task(1.0) for _ in range(4))
        g.add_edge(a, b)
        g.add_edge(a, c)
        g.add_edge(b, d)
        g.add_edge(c, d)
        g.freeze()
        assert width(g) == 2

    def test_lower_bound_is_lower_bound(self):
        for seed in range(5):
            g = erdos_dag(40, 0.1, make_rng(seed))
            assert width_lower_bound(g) <= width(g)

    def test_layered_width(self):
        # Dense consecutive layers: width = layer width.
        g = layered_random(4, 6, make_rng(0), edge_density=1.0)
        assert width(g) == 6


class TestParallelismProfile:
    def test_chain(self):
        assert parallelism_profile(chain(5)) == [1, 1, 1, 1, 1]

    def test_fft(self):
        assert parallelism_profile(fft(8)) == [8, 8, 8, 8]

    def test_sums_to_v(self):
        g = erdos_dag(30, 0.15, make_rng(9))
        assert sum(parallelism_profile(g)) == 30


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(2, 25),
    p=st.floats(0.0, 0.5),
    seed=st.integers(0, 1000),
)
def test_property_width_bounds(n, p, seed):
    """1 <= lower bound <= exact width <= V, and width 1 iff total order."""
    g = erdos_dag(n, p, make_rng(seed))
    lo = width_lower_bound(g)
    w = width(g)
    assert 1 <= lo <= w <= n


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 30), p=st.floats(0.0, 0.6), seed=st.integers(0, 1000))
def test_property_bottom_level_dominates_succs(n, p, seed):
    """BL(t) >= comp(t) + comm(t,s) + BL(s) for every edge, with equality for
    the maximising successor."""
    g = erdos_dag(n, p, make_rng(seed))
    bl = bottom_levels(g)
    for t in g.tasks():
        for s in g.succs(t):
            assert bl[t] >= g.comp(t) + g.comm(t, s) + bl[s] - 1e-9
        if g.succs(t):
            best = max(g.comm(t, s) + bl[s] for s in g.succs(t))
            assert bl[t] == pytest.approx(g.comp(t) + best)
        else:
            assert bl[t] == pytest.approx(g.comp(t))


#: The sweep's switch width, read before any test patches it.
SWITCH_WIDTH = props._VECTOR_WIDTH


def widths_graph(widths, seed):
    """Layers of the given widths, every task fed by one to three tasks of
    the layer before and now and then by one two layers back: its FIFO
    Kahn frontiers are exactly the layers."""
    rng = make_rng(seed)
    g = TaskGraph()
    layers = [[g.add_task(float(rng.uniform(0.5, 2.0))) for _ in range(w)]
              for w in widths]
    for k in range(1, len(layers)):
        for t in layers[k]:
            prev = layers[k - 1]
            count = min(len(prev), int(rng.integers(1, 4)))
            for p in rng.choice(prev, size=count, replace=False).tolist():
                g.add_edge(p, t, float(rng.uniform(0.0, 3.0)))
            if k >= 2 and rng.random() < 0.2:
                g.add_edge(int(rng.choice(layers[k - 2])), t, float(rng.uniform(0.0, 3.0)))
    return g.freeze()


class TestVectorizedLevels:
    """The level sweep (``bottom_levels_array`` / ``top_levels_array``)
    must be bit-identical to the scalar recurrences in
    ``tests/level_oracle.py`` whichever way it evaluates a frontier — both
    compute ``comp + max(comm + level)`` over the same CSR slices, so
    ``==`` applies, never ``approx``.  The graphs are deep (one-task
    frontiers), wide (frontiers far above the switch width) and mixed
    (frontiers crossing the switch width in both directions)."""

    def _graphs(self):
        w = SWITCH_WIDTH
        yield paper_example()
        yield chain(30, make_rng(1))
        yield independent_tasks(20, make_rng(2))
        yield fft(8, make_rng(3), ccr=5.0)
        for seed, density in ((4, 0.05), (5, 0.2), (6, 0.5)):
            yield erdos_dag(80, density, make_rng(seed), ccr=(0.2, 1.0, 5.0)[seed % 3])
        yield layered_random(12, 9, make_rng(7), edge_density=0.3, ccr=2.0)
        # Deep.
        yield chain(2000, make_rng(8))
        yield lu_chain(40, make_rng(9), ccr=2.0)
        # Wide.
        yield fft(256, make_rng(10), ccr=1.0)
        yield layered_random(6, 3 * w, make_rng(11), edge_density=0.02)
        # Mixed: narrow -> wide -> narrow, and frontiers one either side
        # of the switch width.
        yield widths_graph((1, w + 6, 2, 1, 2 * w, w, w - 1, 1, w + 1, 3, 3 * w, 1), 12)
        yield widths_graph((3 * w, 1, 1, w - 1, w, 2, 2 * w, 1), 13)

    def test_bottom_levels_array_bit_identical(self):
        for g in self._graphs():
            g.freeze()
            assert bottom_levels_array(g).tolist() == bottom_levels_py(g)
            assert bottom_levels(g) == bottom_levels_py(g)

    def test_top_levels_array_bit_identical(self):
        for g in self._graphs():
            g.freeze()
            assert top_levels_array(g).tolist() == top_levels_py(g)
            assert top_levels(g) == top_levels_py(g)

    @pytest.mark.parametrize("width", [1, 10**9], ids=["all-vector", "all-scalar"])
    def test_either_evaluation_alone_is_bit_identical(self, width, monkeypatch):
        monkeypatch.setattr(props, "_VECTOR_WIDTH", width)
        for g in self._graphs():
            g.freeze()
            assert bottom_levels_array(g).tolist() == bottom_levels_py(g)
            assert top_levels_array(g).tolist() == top_levels_py(g)

    def test_cached_results_are_defensive_copies(self):
        g = erdos_dag(40, 0.2, make_rng(12))
        g.freeze()
        first = bottom_levels(g)
        first[0] = -123.0
        assert bottom_levels(g)[0] != -123.0
        tl = top_levels(g)
        tl[0] = -123.0
        assert top_levels(g)[0] != -123.0

    def test_hypothesis_like_sweep(self):
        for seed in range(25):
            g = erdos_dag(
                5 + seed * 3, 0.05 + (seed % 5) * 0.1, make_rng(100 + seed),
                ccr=(0.2, 1.0, 5.0)[seed % 3],
            )
            g.freeze()
            assert bottom_levels_array(g).tolist() == bottom_levels_py(g)
            assert top_levels_array(g).tolist() == top_levels_py(g)


def _cold_over_memoized(doc, rounds):
    """Sorted per-round ratios: FLB on a graph fresh from ``doc`` over FLB
    on one whose priorities are memoized (P=8)."""
    machine = MachineModel(8)
    fresh = iter([from_json(doc) for _ in range(rounds)])
    memoized = from_json(doc)
    flb_array(memoized, machine=machine)
    return sorted(cold / warm for cold, warm in paired_rounds(
        lambda: flb_array(next(fresh), machine=machine),
        lambda: flb_array(memoized, machine=machine),
        rounds,
    ))


@pytest.mark.perfgate
def test_cold_graph_flb_within_memoized_time():
    """FLB on a graph fresh from ``from_json(doc)``, whose bottom levels and
    edge delays are not yet memoized, runs within 1.3x of a run on a graph
    with them memoized, in the median of paired rounds
    (:func:`repro.bench.perfgate.paired_rounds`).  The graphs are the ones
    whose depth the level-synchronous sweep paid for: the V=2015 LU graph,
    the V=2000 stencil and a 20,000-task chain.  Every cold graph is built
    before the timing starts; the collection before each arm moves it out
    of the young generations, so the cold run's first collections do not
    walk the containers ``from_json`` made (a cost of building the graph,
    not of scheduling it)."""
    docs = {
        "lu": lu(lu_size_for_tasks(2000), make_rng(0)),
        "stencil": stencil(*stencil_size_for_tasks(2000), make_rng(0)),
        "chain": chain(20000, make_rng(0)),
    }
    ratios = {name: _cold_over_memoized(json.loads(to_json(g)), rounds=9)
              for name, g in docs.items()}
    assert all(statistics.median(r) <= 1.3 for r in ratios.values()), {
        name: [round(ratio, 2) for ratio in r] for name, r in ratios.items()
    }
