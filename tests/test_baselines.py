"""Tests for the three comparator algorithms (Table 5)."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.distance_sampler import (
    distance_distribution,
    distance_sampler_estimate,
)
from repro.baselines import rk_sampler
from repro.baselines.rk_sampler import landmarks, prune, rk_estimate
from repro.baselines.uniform_source import uniform_source_estimate
from repro.bfs.local import bfs_sigma, random_shortest_path
from repro.brandes import exact
from repro.brandes.reference import brandes_betweenness
from repro.graphs import generators as gen
from repro.graphs.csr import from_edges

from .conftest import SMALL_GRAPHS, dep_column, exact_bc, graph
from .test_local_bfs import diamond_chain, graph_edges


def _scores(key, r):
    col = dep_column(key, r)
    return {v: float(col[v]) for v in range(len(col))}


class TestUniformSource:
    def test_determinism(self, spark):
        key, r = "er30", 0
        a = uniform_source_estimate(None, graph(key), r, 100, seed=5, scores=_scores(key, r))
        b = uniform_source_estimate(None, graph(key), r, 100, seed=5, scores=_scores(key, r))
        assert a.estimate_bc == b.estimate_bc

    def test_unbiased(self, spark):
        key = "ba30"
        bc = exact_bc(key)
        r = int(np.argmax(bc))
        ests = [
            uniform_source_estimate(
                None, graph(key), r, 400, seed=s, scores=_scores(key, r)
            ).estimate_bc
            for s in range(30)
        ]
        assert abs(np.mean(ests) - bc[r]) / bc[r] < 0.05

    def test_nbc_scaling(self, spark):
        key, r = "er30", 3
        g = graph(key)
        res = uniform_source_estimate(None, g, r, 50, seed=1, scores=_scores(key, r))
        assert np.isclose(res.estimate_nbc, res.estimate_bc / (g.n * (g.n - 1)))

    def test_never_samples_r(self, spark):
        # r excluded from the pool: zero-BC vertex keeps estimate 0 only
        # if δ contributions exclude it; star leaf as target.
        res = uniform_source_estimate(
            None, graph("star8"), 1, 200, seed=2, scores=_scores("star8", 1)
        )
        assert res.estimate_bc == 0.0

    def test_star_center_exact_every_run(self, spark):
        # δ_s•(0) = n−2 for every source s ≠ 0: zero-variance case.
        g = graph("star8")
        res = uniform_source_estimate(
            None, g, 0, 10, seed=3, scores=_scores("star8", 0)
        )
        assert np.isclose(res.estimate_bc, exact_bc("star8")[0])


class TestDistanceSampler:
    def test_distribution_proportional_to_distance(self):
        g = graph("path7")
        p = distance_distribution(g, 0)
        dist, _ = bfs_sigma(g, 0)
        assert np.isclose(p.sum(), 1.0)
        assert np.allclose(p, dist / dist.sum())

    def test_zero_at_r(self):
        assert distance_distribution(graph("er30"), 4)[4] == 0.0

    def test_determinism(self, spark):
        key, r = "ba30", 0
        a = distance_sampler_estimate(None, graph(key), r, 100, seed=9, scores=_scores(key, r))
        b = distance_sampler_estimate(None, graph(key), r, 100, seed=9, scores=_scores(key, r))
        assert a.estimate_bc == b.estimate_bc

    def test_unbiased(self, spark):
        key = "er30"
        bc = exact_bc(key)
        r = int(np.argmax(bc))
        ests = [
            distance_sampler_estimate(
                None, graph(key), r, 400, seed=s, scores=_scores(key, r)
            ).estimate_bc
            for s in range(30)
        ]
        assert abs(np.mean(ests) - bc[r]) / bc[r] < 0.05


def rk_pairs(g, T, seed):
    """``(s, t, pair_seed)``: the pairs and per-pair seeds ``rk_estimate`` draws."""
    rng = np.random.default_rng(seed)
    s = rng.integers(0, g.n, size=T)
    t = (s + 1 + rng.integers(0, g.n - 1, size=T)) % g.n
    return s, t, rng.integers(0, 2**62, size=T)


def rk_oracle(g, r, T, seed):
    """Serial RK: the same seeded pairs, each through ``random_shortest_path``."""
    hits = 0
    for a, b, ps in zip(*rk_pairs(g, T, seed)):
        path = random_shortest_path(g, int(a), int(b), np.random.default_rng(int(ps)))
        hits += path is not None and r in path[1:-1]
    return hits / T


RK_GRAPHS = {
    **{key: (lambda key=key: graph(key)) for key in SMALL_GRAPHS},
    # Components {0, 1, 2} and {3, 4}; vertex 5 is isolated.
    "disconnected6": lambda: from_edges(6, graph_edges([(0, 1), (1, 2), (3, 4)])),
}


def roles(g):
    """Max-BC vertex, the BC-median vertex and a lowest-degree vertex (a leaf
    where there is one)."""
    order = np.argsort(-brandes_betweenness(g), kind="stable")
    return {int(order[0]), int(order[len(order) // 2]), int(np.argmin(np.diff(g.indptr)))}


@st.composite
def random_graphs(draw):
    """A random simple graph on 2–14 vertices, connected or not."""
    n = draw(st.integers(2, 14))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
    )
    return from_edges(n, graph_edges(sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})))


def assert_prune_sound(g):
    """No pair ``prune`` drops has a shortest path through its ``r``, for every
    ``r`` and every ordered pair of distinct vertices."""
    dist = np.array([bfs_sigma(g, v)[0] for v in range(g.n)])
    s, t = np.nonzero(~np.eye(g.n, dtype=bool))
    for r in range(g.n):
        keep, dist_r = prune(g, r, s, t)
        assert np.array_equal(dist_r, dist[r])
        d_sr, d_rt = dist[s, r], dist[r, t]
        on = (s != r) & (t != r) & (d_sr >= 0) & (d_rt >= 0) & (d_sr + d_rt == dist[s, t])
        assert not (on & ~keep).any()


class TestRKPruning:
    """``prune`` drops only pairs without a shortest path through ``r``, for
    any number of landmarks, and drops sources on a real graph."""

    @pytest.mark.parametrize("landmarks", [0, 1, 2, 16])
    @pytest.mark.parametrize("key", sorted(RK_GRAPHS))
    def test_sound_on_suite(self, monkeypatch, key, landmarks):
        monkeypatch.setattr(rk_sampler, "LANDMARKS", landmarks)
        assert_prune_sound(RK_GRAPHS[key]())

    @given(random_graphs(), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_sound_on_random_graphs(self, g, landmarks):
        with mock.patch.object(rk_sampler, "LANDMARKS", landmarks):
            assert_prune_sound(g)

    def test_landmarks_by_degree_without_r(self):
        g = graph("star8")  # centre 0 has degree 7, every leaf degree 1
        assert list(landmarks(g, 3)) == [0, 1, 2, 4, 5, 6, 7]
        assert list(landmarks(g, 0)) == [1, 2, 3, 4, 5, 6, 7]

    def test_landmark_pass_ignores_sigma_overflow(self):
        # σ from the first hubs of 1 100 diamonds overflows float64; the
        # pruning reads only distances, so it must not raise.
        g = diamond_chain(1100)
        s, t = np.array([300, 0]), np.array([2000, g.n - 1])
        keep, dist_r = prune(g, 1650, s, t)
        assert keep.all() and np.array_equal(dist_r, bfs_sigma(g, 1650)[0])

    def test_ba300_hub_sweeps_fewer_sources(self, spark, monkeypatch):
        g = gen.barabasi_albert(300, 3, seed=1)
        r = int(np.argmax(np.diff(g.indptr)))
        handed = []

        def spy(spark, g, sources, fold, label, sweep=exact.dependency_block):
            if label == "baselines.rk_estimate":
                handed.append(sources)
            return exact.map_blocks(spark, g, sources, fold, label, sweep)

        monkeypatch.setattr(rk_sampler, "map_blocks", spy)
        res = rk_estimate(spark, g, r, 300, seed=5)
        (swept,) = handed
        assert 0 < len(swept) < len(np.unique(rk_pairs(g, 300, 5)[0]))
        assert res.estimate_nbc == rk_oracle(g, r, 300, 5)


class TestRKSampler:
    @pytest.mark.parametrize("key", sorted(RK_GRAPHS))
    def test_equals_serial_oracle(self, spark, key):
        g = RK_GRAPHS[key]()
        for r in sorted({0, g.n // 2, g.n - 1} | roles(g)):
            for seed in (1, 2, 3):
                got = rk_estimate(spark, g, r, 200, seed=seed).estimate_nbc
                assert got == rk_oracle(g, r, 200, seed)

    @pytest.mark.parametrize("path", ["driver", "spark"])
    @pytest.mark.parametrize("step", [1, 2])
    @pytest.mark.parametrize("key", sorted(RK_GRAPHS))
    def test_several_blocks_per_chunk(self, spark, monkeypatch, request, key, step, path):
        # The small graphs sweep each chunk in one block; force several.
        if path == "spark":
            request.getfixturevalue("on_spark")
        monkeypatch.setattr(exact, "block_size", lambda g: step)
        g = RK_GRAPHS[key]()
        for r in list(dict.fromkeys([*sorted(roles(g)), g.n // 2, g.n - 1]))[:3]:
            for seed in (1, 2, 3):
                got = rk_estimate(spark, g, r, 200, seed=seed).estimate_nbc
                assert got == rk_oracle(g, r, 200, seed)

    def test_determinism(self, spark):
        a = rk_estimate(spark, graph("er30"), 0, 200, seed=4)
        b = rk_estimate(spark, graph("er30"), 0, 200, seed=4)
        assert a.estimate_nbc == b.estimate_nbc

    def test_star_center_converges(self, spark):
        g = graph("star8")
        nbc = exact_bc("star8")[0] / (g.n * (g.n - 1))
        res = rk_estimate(spark, g, 0, 3000, seed=6)
        assert abs(res.estimate_nbc - nbc) < 0.05

    def test_leaf_zero(self, spark):
        res = rk_estimate(spark, graph("star8"), 3, 500, seed=7)
        assert res.estimate_nbc == 0.0

    def test_estimate_in_unit_interval(self, spark):
        res = rk_estimate(spark, graph("grid3x4"), 5, 300, seed=8)
        assert 0.0 <= res.estimate_nbc <= 1.0

    def test_path_middle_converges(self, spark):
        g = graph("path7")
        nbc = exact_bc("path7")[3] / (g.n * (g.n - 1))
        res = rk_estimate(spark, g, 3, 3000, seed=9)
        assert abs(res.estimate_nbc - nbc) < 0.05
