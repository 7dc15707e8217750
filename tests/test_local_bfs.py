"""Kernel tests: CSR BFS / σ / dependency vs independent references."""
import numpy as np
import pytest

from repro.bfs.local import (
    _ranges,
    bfs_sigma,
    block_size,
    dependency_block,
    dependency_vector,
    pair_dependency,
    random_shortest_path,
)
from repro.brandes.reference import (
    all_shortest_paths,
    brandes_dependency,
    brandes_sssp,
)
from repro.graphs import generators as gen
from repro.graphs.csr import from_edges

from .conftest import SMALL_GRAPHS, graph


class TestRanges:
    def test_basic(self):
        out = _ranges(np.array([0, 10]), np.array([3, 2]))
        assert list(out) == [0, 1, 2, 10, 11]

    def test_zero_counts_skipped(self):
        out = _ranges(np.array([5, 7, 20]), np.array([2, 0, 1]))
        assert list(out) == [5, 6, 20]

    def test_all_zero(self):
        assert len(_ranges(np.array([3, 4]), np.array([0, 0]))) == 0

    def test_empty(self):
        assert len(_ranges(np.array([], dtype=int), np.array([], dtype=int))) == 0


class TestBfsSigma:
    @pytest.mark.parametrize("key", sorted(SMALL_GRAPHS))
    def test_matches_reference_all_sources(self, key):
        g = graph(key)
        for s in range(g.n):
            dist, sigma = bfs_sigma(g, s)
            _, _, ref_sigma, ref_dist = brandes_sssp(g, s)
            assert np.array_equal(dist, np.array(ref_dist))
            assert np.allclose(sigma, np.array(ref_sigma))

    def test_source_values(self):
        g = graph("grid3x4")
        dist, sigma = bfs_sigma(g, 5)
        assert dist[5] == 0 and sigma[5] == 1.0

    def test_diamond_sigma(self):
        # 0-1, 0-2, 1-3, 2-3: two shortest paths 0→3.
        g = from_edges(4, graph_edges([(0, 1), (0, 2), (1, 3), (2, 3)]))
        _, sigma = bfs_sigma(g, 0)
        assert sigma[3] == 2.0

    def test_unreachable_marked(self):
        g = from_edges(4, graph_edges([(0, 1), (2, 3)]))
        dist, sigma = bfs_sigma(g, 0)
        assert dist[2] == -1 and dist[3] == -1 and sigma[2] == 0.0

    def test_complete_graph_sigma_one(self):
        g = graph("complete6")
        _, sigma = bfs_sigma(g, 0)
        assert np.allclose(sigma[1:], 1.0)  # direct edges, unique paths

    def test_even_cycle_two_paths_to_antipode(self):
        g = gen.cycle_graph(8)
        _, sigma = bfs_sigma(g, 0)
        assert sigma[4] == 2.0


def graph_edges(pairs):
    import pandas as pd

    return pd.DataFrame(pairs, columns=["src", "dst"])


class TestDependencyVector:
    @pytest.mark.parametrize("key", sorted(SMALL_GRAPHS))
    def test_matches_reference_all_sources(self, key):
        g = graph(key)
        for s in range(g.n):
            assert np.allclose(dependency_vector(g, s), brandes_dependency(g, s))

    def test_source_dependency_zero(self, any_graph):
        assert dependency_vector(any_graph, 0)[0] == 0.0

    def test_definition_via_pair_dependencies(self):
        # δ_s•(r) = Σ_t δ_st(r) with endpoints excluded.
        g = graph("er30")
        s = 3
        d = dependency_vector(g, s)
        for r in (0, 7, 15):
            if r == s:
                continue
            total = sum(
                pair_dependency(g, s, t, r) for t in range(g.n) if t not in (s, r)
            )
            assert np.isclose(d[r], total)

    def test_nonnegative(self, any_graph):
        for s in range(any_graph.n):
            assert (dependency_vector(any_graph, s) >= 0).all()


def diamond_chain(k: int):
    """``k`` diamonds in a row: hub ``3i`` meets hub ``3i + 3`` via ``3i + 1``
    and ``3i + 2``, so σ from vertex 0 doubles at every hub (n = 3k + 1)."""
    pairs = []
    for i in range(k):
        h = 3 * i
        pairs += [(h, h + 1), (h, h + 2), (h + 1, h + 3), (h + 2, h + 3)]
    return from_edges(3 * k + 1, graph_edges(pairs))


class TestDependencyBlock:
    @pytest.mark.parametrize("key", sorted(SMALL_GRAPHS))
    def test_rows_equal_vector(self, key):
        g = graph(key)
        block = dependency_block(g, np.arange(g.n))
        for s in range(g.n):
            assert np.array_equal(block[s], dependency_vector(g, s))

    def test_disconnected_with_isolated_vertex(self):
        # Components {0, 1, 2} and {3, 4}; vertex 5 is isolated.
        g = from_edges(6, graph_edges([(0, 1), (1, 2), (3, 4)]))
        block = dependency_block(g, np.arange(g.n))
        assert np.isfinite(block).all()
        assert block[0, 1] == 1.0  # only the pair 0→2 passes through 1
        assert (block[:3, 3:] == 0).all() and (block[3:, :3] == 0).all()
        assert (block[5] == 0).all()
        for s in range(g.n):
            assert np.array_equal(block[s], dependency_vector(g, s))

    def test_sources_span_several_blocks(self):
        g = gen.grid_2d(100, 100)
        sources = np.arange(0, g.n, 200)[::-1]
        assert len(sources) > 2 * block_size(g)
        block = dependency_block(g, sources)
        for row, s in zip(block, sources):
            assert np.array_equal(row, dependency_vector(g, int(s)))


class TestSigmaOverflow:
    """σ from vertex 0 of 1 100 diamonds is 2^1100: float64 overflows."""

    def test_vector_raises(self):
        with pytest.raises(FloatingPointError, match="source 0"):
            dependency_vector(diamond_chain(1100), 0)

    def test_block_raises_naming_source(self):
        g = diamond_chain(1100)
        assert g.n == 3301
        with pytest.raises(FloatingPointError, match="source 0"):
            # Hub 1650 is 550 diamonds from either end: σ ≤ 2^550 is finite.
            dependency_block(g, [1650, 0])


class TestPairDependency:
    def test_endpoint_zero(self):
        g = graph("path7")
        assert pair_dependency(g, 0, 3, 0) == 0.0
        assert pair_dependency(g, 0, 3, 3) == 0.0

    def test_on_path_interior_one(self):
        g = graph("path7")
        assert pair_dependency(g, 0, 6, 3) == 1.0

    def test_off_shortest_path_zero(self):
        g = gen.cycle_graph(9)
        # Geodesic 0→2 goes 0-1-2; vertex 5 is off it.
        assert pair_dependency(g, 0, 2, 5) == 0.0

    def test_fractional_on_diamond(self):
        g = from_edges(4, graph_edges([(0, 1), (0, 2), (1, 3), (2, 3)]))
        assert pair_dependency(g, 0, 3, 1) == 0.5

    def test_matches_enumeration(self):
        g = graph("roc3x4")
        s, t = 0, 9
        paths = all_shortest_paths(g, s, t)
        for r in range(g.n):
            if r in (s, t):
                continue
            frac = sum(1 for p in paths if r in p[1:-1]) / len(paths)
            assert np.isclose(pair_dependency(g, s, t, r), frac)


class TestRandomShortestPath:
    def test_valid_geodesic(self):
        g = graph("grid3x4")
        dist, _ = bfs_sigma(g, 0)
        rng = np.random.default_rng(0)
        for t in range(1, g.n):
            p = random_shortest_path(g, 0, t, rng)
            assert p[0] == 0 and p[-1] == t and len(p) == dist[t] + 1
            for a, b in zip(p, p[1:]):
                assert b in g.neighbors(a)

    def test_same_endpoints_none(self):
        g = graph("path7")
        assert random_shortest_path(g, 2, 2, np.random.default_rng(0)) is None

    def test_unreachable_none(self):
        g = from_edges(4, graph_edges([(0, 1), (2, 3)]))
        assert random_shortest_path(g, 0, 3, np.random.default_rng(0)) is None

    def test_uniform_over_diamond(self):
        # Two geodesics 0→3; each must appear ~half the time.
        g = from_edges(4, graph_edges([(0, 1), (0, 2), (1, 3), (2, 3)]))
        rng = np.random.default_rng(42)
        via1 = sum(
            1 for _ in range(4000) if random_shortest_path(g, 0, 3, rng)[1] == 1
        )
        assert 0.45 < via1 / 4000 < 0.55

    def test_uniform_over_even_cycle(self):
        g = gen.cycle_graph(6)
        rng = np.random.default_rng(7)
        clockwise = sum(
            1 for _ in range(4000) if random_shortest_path(g, 0, 3, rng)[1] == 1
        )
        assert 0.45 < clockwise / 4000 < 0.55
