"""Reference implementations validate each other + closed forms."""
import numpy as np
import pytest

from repro.brandes.reference import (
    all_shortest_paths,
    barbell_center_bc,
    brandes_betweenness,
    brute_force_betweenness,
    closed_form,
)
from repro.graphs import generators as gen

from .conftest import SMALL_GRAPHS, exact_bc, graph


class TestClosedForms:
    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_star(self, n):
        assert np.allclose(brandes_betweenness(gen.star_graph(n)), closed_form("star", n))

    @pytest.mark.parametrize("n", [4, 7, 11])
    def test_path(self, n):
        assert np.allclose(brandes_betweenness(gen.path_graph(n)), closed_form("path", n))

    @pytest.mark.parametrize("n", [5, 9, 13])
    def test_odd_cycle(self, n):
        assert np.allclose(brandes_betweenness(gen.cycle_graph(n)), closed_form("cycle", n))

    @pytest.mark.parametrize("n", [4, 6, 9])
    def test_complete(self, n):
        assert np.allclose(
            brandes_betweenness(gen.complete_graph(n)), closed_form("complete", n)
        )

    def test_even_cycle_has_no_closed_form_here(self):
        with pytest.raises(ValueError):
            closed_form("cycle", 8)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            closed_form("nope", 5)

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_barbell_center(self, k):
        bc = brandes_betweenness(gen.barbell(k))
        assert np.isclose(bc[k], barbell_center_bc(k))

    def test_wheel_rim_symmetry(self):
        bc = brandes_betweenness(gen.wheel_graph(10))
        assert np.allclose(bc[1:], bc[1])  # all rim vertices equal


class TestBruteForceAgreement:
    @pytest.mark.parametrize(
        "key", [k for k in sorted(SMALL_GRAPHS) if SMALL_GRAPHS[k]().n <= 21]
    )
    def test_brandes_equals_enumeration(self, key):
        g = graph(key)
        assert np.allclose(brandes_betweenness(g), brute_force_betweenness(g))


class TestAllShortestPaths:
    def test_count_matches_sigma(self):
        from repro.bfs.local import bfs_sigma

        g = graph("roc3x4")
        for s in (0, 5):
            _, sigma = bfs_sigma(g, s)
            for t in range(g.n):
                if t == s:
                    continue
                assert len(all_shortest_paths(g, s, t)) == int(sigma[t])

    def test_paths_are_geodesics(self):
        from repro.bfs.local import bfs_sigma

        g = graph("grid3x4")
        dist, _ = bfs_sigma(g, 0)
        for p in all_shortest_paths(g, 0, 11):
            assert len(p) == dist[11] + 1

    def test_same_vertex_empty(self):
        assert all_shortest_paths(graph("path7"), 2, 2) == []


class TestGlobalProperties:
    def test_bc_nonnegative(self, any_graph):
        assert (brandes_betweenness(any_graph) >= 0).all()

    def test_leaves_have_zero_bc(self):
        bc = exact_bc("tree15")
        g = graph("tree15")
        for v in range(g.n):
            if g.degrees()[v] == 1:
                assert bc[v] == 0.0

    def test_total_bc_identity_on_tree(self):
        # On a tree every pair has exactly one path: Σ_v BC(v) equals
        # Σ_{s≠t} (d(s,t) − 1) over ordered pairs.
        from repro.bfs.local import bfs_sigma

        g = graph("tree15")
        total = sum(
            int(bfs_sigma(g, s)[0][t]) - 1
            for s in range(g.n)
            for t in range(g.n)
            if s != t
        )
        assert np.isclose(exact_bc("tree15").sum(), total)
