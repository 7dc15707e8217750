"""Structural tests for every synthetic graph generator."""
import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.csr import is_connected


class TestExactCounts:
    def test_path(self):
        g = gen.path_graph(10)
        assert g.n == 10 and g.m == 9

    def test_cycle(self):
        g = gen.cycle_graph(10)
        assert g.n == 10 and g.m == 10

    def test_star(self):
        g = gen.star_graph(10)
        assert g.n == 10 and g.m == 9
        assert g.degrees()[0] == 9 and all(g.degrees()[v] == 1 for v in range(1, 10))

    def test_complete(self):
        g = gen.complete_graph(7)
        assert g.m == 21 and all(g.degrees()[v] == 6 for v in range(7))

    def test_grid(self):
        g = gen.grid_2d(4, 5)
        assert g.n == 20 and g.m == 4 * 4 + 3 * 5  # horiz + vert

    def test_barbell(self):
        k = 6
        g = gen.barbell(k)
        assert g.n == 2 * k + 1
        assert g.m == 2 * (k * (k - 1) // 2) + 2
        assert g.degrees()[k] == 2  # the separator touches both cliques

    def test_barbell_long_bridge(self):
        g = gen.barbell(4, bridge=3)
        assert g.n == 11 and is_connected(g)

    def test_ring_of_cliques(self):
        nc, k = 5, 6
        g = gen.ring_of_cliques(nc, k)
        assert g.n == nc * k and g.m == nc * (k * (k - 1) // 2) + nc

    def test_tree_edge_count(self):
        g = gen.random_tree(50, seed=1)
        assert g.n == 50 and g.m == 49

    def test_wheel(self):
        g = gen.wheel_graph(8)
        assert g.n == 8 and g.m == 14 and g.degrees()[0] == 7

    def test_two_communities_hub_degree(self):
        g = gen.two_communities(12, seed=0)
        assert g.degrees()[g.n - 1] == 24  # hub adjacent to everyone

    def test_ba_edge_count(self):
        n, m_attach = 60, 3
        g = gen.barabasi_albert(n, m_attach, seed=0)
        seed_m = (m_attach + 1) * m_attach // 2
        assert g.m == seed_m + (n - m_attach - 1) * m_attach


class TestConnectivity:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: gen.path_graph(30),
            lambda: gen.cycle_graph(30),
            lambda: gen.star_graph(30),
            lambda: gen.barbell(8),
            lambda: gen.grid_2d(5, 6),
            lambda: gen.ring_of_cliques(4, 5),
            lambda: gen.random_tree(40, seed=2),
            lambda: gen.barabasi_albert(40, 2, seed=3),
            lambda: gen.two_communities(15, seed=5),
            lambda: gen.wheel_graph(12),
            lambda: gen.erdos_renyi(50, 0.1, seed=6),
        ],
        ids=lambda f: "gen",
    )
    def test_connected(self, factory):
        assert is_connected(factory())

    def test_er_sparse_returns_largest_component(self):
        g = gen.erdos_renyi(60, 0.02, seed=9)
        assert is_connected(g)
        assert g.n <= 60


class TestDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda s: gen.random_tree(30, seed=s),
            lambda s: gen.erdos_renyi(40, 0.1, seed=s),
            lambda s: gen.barabasi_albert(40, 2, seed=s),
            lambda s: gen.two_communities(12, seed=s),
        ],
        ids=["tree", "er", "ba", "2comm"],
    )
    def test_same_seed_identical(self, factory):
        a, b = factory(7), factory(7)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda s: gen.erdos_renyi(40, 0.1, seed=s),
            lambda s: gen.barabasi_albert(40, 2, seed=s),
        ],
        ids=["er", "ba"],
    )
    def test_different_seeds_differ(self, factory):
        a, b = factory(1), factory(2)
        same = a.n == b.n and len(a.indices) == len(b.indices) and np.array_equal(
            a.indices, b.indices
        )
        assert not same


class TestValidation:
    def test_ba_rejects_bad_params(self):
        with pytest.raises(ValueError):
            gen.barabasi_albert(3, 3, seed=0)
        with pytest.raises(ValueError):
            gen.barabasi_albert(10, 0, seed=0)

    def test_ba_min_degree(self):
        g = gen.barabasi_albert(50, 3, seed=4)
        assert int(g.degrees().min()) >= 3

    def test_ba_has_hubs(self):
        # Preferential attachment must concentrate degree.
        g = gen.barabasi_albert(300, 2, seed=5)
        assert int(g.degrees().max()) >= 15
