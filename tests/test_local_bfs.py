"""Kernel tests: CSR BFS / σ / dependency vs independent references."""
import numpy as np
import pytest

from repro.bfs import local
from repro.bfs.local import (
    _ranges,
    _weighted_pick,
    bfs_block,
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


def layered(*widths):
    """Layers of the given widths, each joined to the next by all arcs."""
    first = np.cumsum((0,) + widths)
    pairs = [
        (a, b)
        for i in range(len(widths) - 1)
        for a in range(first[i], first[i + 1])
        for b in range(first[i + 1], first[i + 2])
    ]
    return from_edges(int(first[-1]), graph_edges(pairs))


def random_layers(depth: int, width: int, seed: int):
    """``depth + 1`` layers of ``width`` vertices; each vertex past the first
    layer has 3 to ``width`` random parents in the layer before, so σ soon
    passes 2^53 and the order of each σ sum shows in its last bits."""
    rng = np.random.default_rng(seed)
    pairs = [
        (i * width + int(a), (i + 1) * width + b)
        for i in range(depth)
        for b in range(width)
        for a in rng.choice(width, size=int(rng.integers(3, width + 1)), replace=False)
    ]
    return from_edges((depth + 1) * width, graph_edges(pairs))


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


class TestBfsBlock:
    @pytest.mark.parametrize("key", sorted(SMALL_GRAPHS))
    def test_rows_equal_bfs_sigma(self, key, monkeypatch):
        # Blocks of 4 sources, so every source list spans several blocks.
        monkeypatch.setattr(local, "block_size", lambda g: 4)
        g = graph(key)
        sources = np.arange(g.n)[::-1]
        dist, sigma = bfs_block(g, sources)
        for s, d_row, s_row in zip(sources, dist, sigma):
            d_ref, s_ref = bfs_sigma(g, int(s))
            assert np.array_equal(d_row, d_ref) and np.array_equal(s_row, s_ref)

    def test_disconnected_with_isolated_vertex(self):
        g = from_edges(6, graph_edges([(0, 1), (1, 2), (3, 4)]))
        dist, sigma = bfs_block(g, np.arange(g.n))
        assert list(dist[0]) == [0, 1, 2, -1, -1, -1]
        assert list(dist[5]) == [-1] * 5 + [0] and list(sigma[5]) == [0.0] * 5 + [1.0]
        for s in range(g.n):
            d_ref, s_ref = bfs_sigma(g, s)
            assert np.array_equal(dist[s], d_ref) and np.array_equal(sigma[s], s_ref)


@pytest.fixture
def bottom_up_levels(monkeypatch):
    """Frontier sizes of the levels the block sweep takes bottom-up."""
    levels = []
    real = local._bottom_up

    def spy(g, frontier, *rest):
        levels.append(len(frontier))
        return real(g, frontier, *rest)

    monkeypatch.setattr(local, "_bottom_up", spy)
    return levels


def assert_rows_equal_oracles(g, sources):
    block = dependency_block(g, sources)
    dist, sigma = bfs_block(g, sources)
    for i, s in enumerate(sources):
        d_ref, s_ref = bfs_sigma(g, int(s))
        assert np.array_equal(block[i], dependency_vector(g, int(s)))
        assert np.array_equal(dist[i], d_ref) and np.array_equal(sigma[i], s_ref)


class TestDirections:
    """The block sweep takes the bottom-up step on the wide levels of
    low-diameter graphs, never on high-diameter ones, and its rows stay
    bit-identical to the single-source oracles either way."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: gen.erdos_renyi(40, 0.3, seed=5),
            lambda: gen.barbell(20),
            lambda: gen.complete_graph(12),
            lambda: gen.star_graph(30),
            lambda: gen.barabasi_albert(300, 3, seed=1),
        ],
        ids=["er40-p0.3", "barbell20", "complete12", "star30", "ba300"],
    )
    def test_bottom_up_runs_and_rows_equal_oracles(self, make, bottom_up_levels):
        g = make()
        assert_rows_equal_oracles(g, np.arange(g.n))
        assert bottom_up_levels

    @pytest.mark.parametrize(
        "make",
        [lambda: gen.path_graph(2001), lambda: gen.grid_2d(30, 30)],
        ids=["path2001", "grid30x30"],
    )
    def test_high_diameter_stays_top_down(self, make, bottom_up_levels):
        g = make()
        dependency_block(g, np.arange(0, g.n, 7))
        bfs_block(g, np.arange(0, g.n, 7))
        assert bottom_up_levels == []

    def test_sources_in_different_components(self, bottom_up_levels):
        # A dense G(n, p) component, the path k - (k + 1) - (k + 2) and the
        # isolated vertex k + 3: the bottom-up step also scans the arcs of
        # components its sources cannot reach.
        er = gen.erdos_renyi(20, 0.4, seed=1)
        k = er.n
        pairs = [(v, int(w)) for v in range(k) for w in er.neighbors(v) if v < w]
        g = from_edges(k + 4, graph_edges(pairs + [(k, k + 1), (k + 1, k + 2)]))
        sources = np.r_[k + 3, 0:8, k + 1, 8:k]
        assert_rows_equal_oracles(g, sources)
        assert bottom_up_levels

    @pytest.mark.parametrize("key", sorted(SMALL_GRAPHS) + ["layers60x8"])
    def test_every_level_bottom_up(self, key, monkeypatch):
        # The bottom-up step alone, from the sources' own level on, still
        # gives the oracle rows.
        def bottom_up(g, frontier, v, starts, counts, seen):
            slot = np.full(len(seen), -1, dtype=np.int32)
            return local._bottom_up(g, frontier, seen, slot)

        monkeypatch.setattr(local, "_top_down", bottom_up)
        g = random_layers(60, 8, seed=7) if key == "layers60x8" else graph(key)
        assert_rows_equal_oracles(g, np.arange(g.n)[::-1])


@pytest.fixture
def top_down_dedups(monkeypatch):
    """How each level the block sweep takes top-down dedups its heads:
    ``"dense"`` (bitmap) or ``"sort"`` (``np.unique``)."""
    paths = []
    real_top_down, real_dense = local._top_down, local._dense_unique

    def top_down(*args):
        paths.append("sort")
        return real_top_down(*args)

    def dense(*args):
        paths[-1] = "dense"
        return real_dense(*args)

    monkeypatch.setattr(local, "_top_down", top_down)
    monkeypatch.setattr(local, "_dense_unique", dense)
    return paths


class TestDenseDedup:
    """Wide top-down levels dedup their heads through a ``B·n`` bitmap,
    narrow ones with a sort; both give ``np.unique``'s sorted heads and
    inverse, so the rows stay bit-identical to the oracles."""

    def test_equals_np_unique(self):
        rng = np.random.default_rng(3)
        for n, rows in [(1, 1), (7, 1), (50, 3), (300, 8)]:
            size = n * rows
            for arcs in {0, 1, 2, size // 16, size // 2, size, 4 * size}:
                # Arc order: grouped by source row, repeated heads within a row.
                row = np.sort(rng.integers(0, rows, size=arcs))
                head = row * n + rng.integers(0, n, size=arcs)
                want_nxt, want_inv = np.unique(head, return_inverse=True)
                nxt, inv = local._dense_unique(head, size)
                assert np.array_equal(nxt, want_nxt) and np.array_equal(inv, want_inv)

    @pytest.mark.parametrize(
        "make",
        [lambda: gen.barabasi_albert(300, 3, seed=1), lambda: gen.erdos_renyi(40, 0.3, seed=5)],
        ids=["ba300", "er40-p0.3"],
    )
    def test_dense_runs_and_rows_equal_oracles(self, make, top_down_dedups):
        g = make()
        assert_rows_equal_oracles(g, np.arange(g.n))
        assert "dense" in top_down_dedups

    def test_sigma_past_2_53(self, top_down_dedups):
        # σ sums whose order shows in their last bits.
        g = random_layers(60, 8, seed=7)
        assert_rows_equal_oracles(g, np.arange(g.n)[::-1])
        assert "dense" in top_down_dedups

    def test_path_keeps_the_sort(self, top_down_dedups):
        g = gen.path_graph(2001)
        assert_rows_equal_oracles(g, np.arange(0, g.n, 7))
        assert top_down_dedups and set(top_down_dedups) == {"sort"}

    @pytest.mark.parametrize("key", sorted(SMALL_GRAPHS) + ["layers60x8"])
    def test_every_level_dense(self, key, monkeypatch):
        # The bitmap on every non-empty top-down level still gives the oracle rows.
        monkeypatch.setattr(local, "DENSE_LEVEL", 2**40)
        g = random_layers(60, 8, seed=7) if key == "layers60x8" else graph(key)
        assert_rows_equal_oracles(g, np.arange(g.n)[::-1])


class TestDependencySumIdentity:
    """``Σ_v δ_s•(v) = Σ_{t ≠ s reachable} (d(s, t) − 1)``: each target ``t``
    spreads one unit over each of the ``d(s, t) − 1`` inner positions of its
    shortest paths. The identity does not depend on graph size."""

    @staticmethod
    def check(g, s, row):
        dist, _ = bfs_sigma(g, s)
        assert np.isclose(row.sum(), float((dist[dist > 0] - 1).sum()), rtol=1e-9, atol=0)

    @pytest.mark.parametrize("key", sorted(SMALL_GRAPHS))
    def test_small_graphs(self, key):
        g = graph(key)
        block = dependency_block(g, np.arange(g.n))
        for s in range(g.n):
            self.check(g, s, dependency_vector(g, s))
            self.check(g, s, block[s])

    def test_grid_100x100(self):
        g = gen.grid_2d(100, 100)
        s = 0  # a corner: the most shortest paths, σ up to C(198, 99)
        self.check(g, s, dependency_vector(g, s))
        self.check(g, s, dependency_block(g, [s])[0])


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

    def test_bfs_block_raises_naming_source(self):
        with pytest.raises(FloatingPointError, match="source 0"):
            bfs_block(diamond_chain(1100), [1650, 0])

    def test_raises_on_bottom_up_level(self, bottom_up_levels):
        # Complete-bipartite layers of widths 1, 4 × 511, 512, 1: σ from
        # vertex 0 is 2^1022 on the 512-wide layer, which is the frontier of
        # the one bottom-up level, and 512 · 2^1022 overflows at the apex.
        # From vertex 1021, on the 256th layer, σ stays below 2^520.
        g = layered(1, *[4] * 511, 512, 1)
        with pytest.raises(FloatingPointError, match="source 0"):
            dependency_block(g, [1021, 0])
        with pytest.raises(FloatingPointError, match="source 0"):
            bfs_block(g, [1021, 0])
        assert bottom_up_levels == [512, 512]

    def test_random_shortest_path_raises(self):
        # σ at the far end is inf, so the walk's weights would be NaN.
        g = diamond_chain(1100)
        with pytest.raises(FloatingPointError, match="source 0"):
            random_shortest_path(g, 0, g.n - 1, np.random.default_rng(0))


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


class TestWeightedPick:
    def test_equals_rng_choice(self):
        # Same pick and same generator state as rng.choice, on weights that
        # span many magnitudes, like σ along a level.
        for seed in range(300):
            w_rng = np.random.default_rng(seed)
            k = int(w_rng.integers(1, 12))
            w = np.exp2(w_rng.integers(0, 60, size=k)) * w_rng.random(k) + 1.0
            a = w_rng.permutation(1000)[:k]
            mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(5):
                assert _weighted_pick(a, w, mine.random()) == theirs.choice(a, p=w / w.sum())
            assert mine.random() == theirs.random()
