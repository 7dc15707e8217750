"""Tests for the three comparator algorithms (Table 5)."""
import numpy as np
import pytest

from repro.baselines.distance_sampler import (
    distance_distribution,
    distance_sampler_estimate,
)
from repro.baselines.rk_sampler import rk_estimate
from repro.baselines.uniform_source import uniform_source_estimate
from repro.bfs.local import bfs_sigma, random_shortest_path
from repro.graphs.csr import from_edges

from .conftest import SMALL_GRAPHS, dep_column, exact_bc, graph
from .test_local_bfs import graph_edges


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


def rk_oracle(g, r, T, seed):
    """Serial RK: the same seeded pairs, each through ``random_shortest_path``."""
    rng = np.random.default_rng(seed)
    s = rng.integers(0, g.n, size=T)
    t = (s + 1 + rng.integers(0, g.n - 1, size=T)) % g.n
    pair_seed = rng.integers(0, 2**62, size=T)
    hits = 0
    for a, b, ps in zip(s, t, pair_seed):
        path = random_shortest_path(g, int(a), int(b), np.random.default_rng(int(ps)))
        hits += path is not None and r in path[1:-1]
    return hits / T


RK_GRAPHS = {
    **{key: (lambda key=key: graph(key)) for key in SMALL_GRAPHS},
    # Components {0, 1, 2} and {3, 4}; vertex 5 is isolated.
    "disconnected6": lambda: from_edges(6, graph_edges([(0, 1), (1, 2), (3, 4)])),
}


class TestRKSampler:
    @pytest.mark.parametrize("key", sorted(RK_GRAPHS))
    def test_equals_serial_oracle(self, spark, key):
        g = RK_GRAPHS[key]()
        for r in (0, g.n // 2, g.n - 1):
            for seed in (1, 2):
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
