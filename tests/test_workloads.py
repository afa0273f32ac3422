"""Tests for workload generators: structure, sizes, weights, CCR."""

import pytest

from repro.graph import ccr as graph_ccr
from repro.graph import parallelism_profile, width
from repro.machine import MachineModel
from repro.util.rng import make_rng
from repro.workloads import (
    chain,
    cholesky,
    cholesky_size_for_tasks,
    erdos_dag,
    fft,
    fft_size_for_tasks,
    fork_join,
    in_tree,
    independent_tasks,
    laplace,
    laplace_size_for_tasks,
    layered_random,
    lu,
    lu_chain,
    lu_size_for_tasks,
    out_tree,
    paper_example,
    series_parallel,
    simple_diamond,
    stencil,
    stencil_size_for_tasks,
    two_chains,
)

ALL_GENERATORS = [
    ("lu", lambda rng: lu(8, rng)),
    ("laplace", lambda rng: laplace(4, 3, rng)),
    ("stencil", lambda rng: stencil(5, 4, rng)),
    ("fft", lambda rng: fft(8, rng)),
    ("cholesky", lambda rng: cholesky(4, rng)),
    ("lu_chain", lambda rng: lu_chain(6, rng)),
    ("layered", lambda rng: layered_random(4, 4, rng)),
    ("erdos", lambda rng: erdos_dag(20, 0.2, rng)),
    ("fork_join", lambda rng: fork_join(3, 4, rng)),
    ("out_tree", lambda rng: out_tree(3, 2, rng)),
    ("in_tree", lambda rng: in_tree(3, 2, rng)),
    ("chain", lambda rng: chain(10, rng)),
    ("series_parallel", lambda rng: series_parallel(10, rng)),
]


@pytest.mark.parametrize("name,builder", ALL_GENERATORS)
class TestCommonGeneratorProperties:
    def test_frozen_dag(self, name, builder):
        g = builder(make_rng(0))
        assert g.frozen
        assert g.num_tasks >= 1

    def test_deterministic_given_seed(self, name, builder):
        g1 = builder(make_rng(42))
        g2 = builder(make_rng(42))
        assert g1.comps == g2.comps
        assert set(g1.edges()) == set(g2.edges())

    def test_positive_weights(self, name, builder):
        g = builder(make_rng(1))
        assert all(g.comp(t) > 0 for t in g.tasks())
        assert all(c >= 0 for _, _, c in g.edges())

    def test_deterministic_without_rng(self, name, builder):
        g = builder(None)
        assert all(g.comp(t) == 1.0 for t in g.tasks())


class TestLu:
    def test_size_formula(self):
        for n in (2, 5, 10):
            g = lu(n)
            assert g.num_tasks == (n - 1) + n * (n - 1) // 2

    def test_width(self):
        assert width(lu(6)) == 5  # W = n - 1

    def test_structure_small(self):
        g = lu(3)
        # pivot[0], upd[0][1], upd[0][2], pivot[1], upd[1][2]
        assert g.num_tasks == 5
        names = {g.name(t): t for t in g.tasks()}
        assert g.has_edge(names["pivot[0]"], names["upd[0][1]"])
        assert g.has_edge(names["pivot[0]"], names["upd[0][2]"])
        # Join-style: the next pivot joins ALL of the step's updates.
        assert g.has_edge(names["upd[0][1]"], names["pivot[1]"])
        assert g.has_edge(names["upd[0][2]"], names["pivot[1]"])
        assert g.has_edge(names["pivot[1]"], names["upd[1][2]"])

    def test_join_degree(self):
        g = lu(5)
        names = {g.name(t): t for t in g.tasks()}
        assert g.in_degree(names["pivot[1]"]) == 4  # joins upd[0][1..4]

    def test_size_for_tasks(self):
        n = lu_size_for_tasks(2000)
        assert lu(n).num_tasks >= 2000
        assert lu(n - 1).num_tasks < 2000

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            lu(1)


class TestLaplace:
    def test_size(self):
        assert laplace(4, 5).num_tasks == 80

    def test_interior_join_degree(self):
        g = laplace(3, 2)
        # Centre cell of layer 1 joins 5 predecessors.
        centre = 9 + 4  # layer 1, cell (1,1)
        assert g.in_degree(centre) == 5

    def test_profile_is_layered(self):
        assert parallelism_profile(laplace(3, 4)) == [9, 9, 9, 9]

    def test_size_for_tasks(self):
        grid, iters = laplace_size_for_tasks(2000)
        assert grid * grid * iters >= 2000

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            laplace(0, 1)


class TestStencil:
    def test_size(self):
        assert stencil(6, 7).num_tasks == 42

    def test_boundary_degree(self):
        g = stencil(5, 2)
        assert g.in_degree(5) == 2  # edge cell: self + right neighbour
        assert g.in_degree(7) == 3  # interior: three-point stencil

    def test_width(self):
        assert width(stencil(7, 4)) == 7

    def test_size_for_tasks(self):
        cells, steps = stencil_size_for_tasks(2000)
        assert cells * steps >= 2000


class TestFft:
    def test_size(self):
        assert fft(8).num_tasks == 8 * 4

    def test_butterfly_edges(self):
        g = fft(4)
        # stage 1, task 0 depends on stage 0 tasks 0 and 1.
        assert g.has_edge(0, 4)
        assert g.has_edge(1, 4)
        # stage 2, task 0 depends on stage 1 tasks 0 and 2.
        assert g.has_edge(4, 8)
        assert g.has_edge(6, 8)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fft(6)
        with pytest.raises(ValueError):
            fft(1)

    def test_size_for_tasks(self):
        points = fft_size_for_tasks(2000)
        assert fft(points).num_tasks >= 2000


class TestCholesky:
    def test_counts(self):
        g = cholesky(3)
        # potrf x3, trsm: (2 + 1), upd: k=0 -> (1,1),(2,1),(2,2); k=1 -> (2,2)
        assert g.num_tasks == 3 + 3 + 4

    def test_chain_of_potrfs(self):
        g = cholesky(4)
        names = {g.name(t): t for t in g.tasks()}
        assert g.has_edge(names["upd[0][1][1]"], names["potrf[1]"])
        assert g.has_edge(names["potrf[0]"], names["trsm[0][2]"])
        assert g.has_edge(names["trsm[0][2]"], names["upd[0][2][1]"])

    def test_size_for_tasks(self):
        n = cholesky_size_for_tasks(500)
        assert cholesky(n).num_tasks >= 500


class TestLuChain:
    def test_chain_structure(self):
        g = lu_chain(4)
        names = {g.name(t): t for t in g.tasks()}
        # Column updates chain down; only upd[k][k+1] feeds the next pivot.
        assert g.has_edge(names["upd[0][1]"], names["pivot[1]"])
        assert not g.has_edge(names["upd[0][2]"], names["pivot[1]"])
        assert g.has_edge(names["upd[0][2]"], names["upd[1][2]"])

    def test_same_size_as_join_variant(self):
        assert lu_chain(9).num_tasks == lu(9).num_tasks


class TestRandomFamilies:
    def test_layered_guarantees_connectivity(self):
        g = layered_random(5, 6, make_rng(0), edge_density=0.01)
        for t in g.tasks():
            if t >= 6:  # non-first layer
                assert g.in_degree(t) >= 1

    def test_layered_density_one_is_complete_bipartite(self):
        g = layered_random(3, 4, make_rng(0), edge_density=1.0)
        assert g.num_edges == 2 * 16

    def test_erdos_p_zero_no_edges(self):
        assert erdos_dag(10, 0.0, make_rng(0)).num_edges == 0

    def test_erdos_p_one_complete(self):
        assert erdos_dag(6, 1.0, make_rng(0)).num_edges == 15

    def test_fork_join_shape(self):
        g = fork_join(2, 3)
        assert g.num_tasks == 2 * 5
        assert width(g) == 3

    def test_trees(self):
        assert out_tree(2, 2).num_tasks == 7
        g = in_tree(2, 2)
        assert g.num_tasks == 7
        assert len(g.exit_tasks) == 1
        assert len(g.entry_tasks) == 4

    def test_chain_and_independent(self):
        assert width(chain(5)) == 1
        assert width(independent_tasks(7)) == 7

    def test_series_parallel_single_entry_exit(self):
        g = series_parallel(12, make_rng(3))
        assert len(g.entry_tasks) == 1
        assert len(g.exit_tasks) == 1

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            layered_random(0, 3)
        with pytest.raises(ValueError):
            layered_random(2, 2, edge_density=1.5)
        with pytest.raises(ValueError):
            erdos_dag(5, -0.1)
        with pytest.raises(ValueError):
            chain(0)
        with pytest.raises(ValueError):
            independent_tasks(0)
        with pytest.raises(ValueError):
            series_parallel(0)
        with pytest.raises(ValueError):
            fork_join(0, 1)
        with pytest.raises(ValueError):
            out_tree(-1)


class TestGallery:
    def test_paper_example_shape(self):
        g = paper_example()
        assert g.num_tasks == 8
        assert g.num_edges == 10
        assert g.entry_tasks == (0,)
        assert g.exit_tasks == (7,)
        assert g.comps == (2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 2.0, 2.0)
        assert g.comm(0, 2) == 4.0
        assert g.comm(5, 7) == 3.0

    def test_fixtures(self):
        assert simple_diamond().num_tasks == 4
        g = two_chains()
        assert len(g.entry_tasks) == 2
        assert len(g.exit_tasks) == 2


class TestCcrControl:
    @pytest.mark.parametrize("target", [0.2, 5.0])
    def test_paper_ccr_values(self, target):
        for builder in (
            lambda: lu(10, make_rng(0), ccr=target),
            lambda: laplace(4, 4, make_rng(0), ccr=target),
            lambda: stencil(6, 6, make_rng(0), ccr=target),
            lambda: fft(16, make_rng(0), ccr=target),
        ):
            g = builder()
            assert graph_ccr(g) == pytest.approx(target, rel=1e-9)

    def test_distribution_flag(self):
        g = lu(10, make_rng(0), distribution="exponential")
        assert g.num_tasks == lu(10).num_tasks
        with pytest.raises(ValueError):
            lu(10, make_rng(0), distribution="bogus")


class TestWavefront:
    def test_size_and_width(self):
        from repro.graph import width
        from repro.workloads import wavefront

        g = wavefront(5)
        assert g.num_tasks == 25
        assert width(g) == 5

    def test_diamond_dependencies(self):
        from repro.workloads import wavefront

        g = wavefront(3)
        # cell(1,1) = id 4 depends on cell(0,1) = 1 and cell(1,0) = 3.
        assert g.in_degree(4) == 2
        assert g.has_edge(1, 4)
        assert g.has_edge(3, 4)
        assert g.entry_tasks == (0,)
        assert g.exit_tasks == (8,)

    def test_parallelism_profile_is_diamond(self):
        from repro.graph import parallelism_profile
        from repro.workloads import wavefront

        assert parallelism_profile(wavefront(4)) == [1, 2, 3, 4, 3, 2, 1]

    def test_size_for_tasks(self):
        from repro.workloads import wavefront, wavefront_size_for_tasks

        n = wavefront_size_for_tasks(50)
        assert wavefront(n).num_tasks >= 50

    def test_rejects_bad(self):
        from repro.workloads import wavefront

        with pytest.raises(ValueError):
            wavefront(0)

    def test_schedulable(self):
        from repro.schedulers import SCHEDULERS
        from repro.workloads import wavefront

        g = wavefront(6, make_rng(0), ccr=2.0)
        for algo in ("flb", "mcp", "dsc-llb"):
            s = SCHEDULERS[algo](g, MachineModel(4))
            assert s.violations() == []
