"""Distributed exact Brandes ≡ pure-Python reference."""
import numpy as np
import pytest
from pyspark import SparkContext

from repro.baselines.rk_sampler import rk_estimate
from repro.bfs.local import dependency_vector
from repro.brandes.exact import (
    betweenness_all,
    betweenness_of,
    betweenness_vector,
    dependency_matrix,
    normalized_bc,
)
from repro.brandes.reference import brandes_dependency
from repro.graphs import generators as gen

from .conftest import SMALL_GRAPHS, dep_column, exact_bc, graph


@pytest.mark.parametrize("key", sorted(SMALL_GRAPHS))
def test_betweenness_vector_matches_reference(spark, key):
    assert np.allclose(betweenness_vector(spark, graph(key)), exact_bc(key))


def test_betweenness_all_schema(spark):
    df = betweenness_all(spark, graph("er30"))
    assert set(df.columns) == {"id", "bc"}
    assert df.count() == graph("er30").n


def test_betweenness_of_single_vertex(spark):
    key = "ba30"
    bc = exact_bc(key)
    r = int(np.argmax(bc))
    assert np.isclose(betweenness_of(spark, graph(key), r), bc[r])


class TestDependencyMatrix:
    def test_full_matrix_matches_reference(self, spark):
        key = "er30"
        g = graph(key)
        targets = [0, 5, 11]
        dm = dependency_matrix(spark, g, targets)
        assert len(dm) == g.n * len(targets)
        for r in targets:
            sub = dm[dm["r"] == r].sort_values("s")
            assert np.allclose(sub["delta"].to_numpy(), dep_column(key, r))

    def test_sources_subset(self, spark):
        key = "grid3x4"
        g = graph(key)
        dm = dependency_matrix(spark, g, [0], sources=[3, 7])
        assert sorted(dm["s"]) == [3, 7]
        for row in dm.itertuples(index=False):
            assert np.isclose(row.delta, brandes_dependency(g, int(row.s))[0])

    def test_duplicate_targets_deduplicated(self, spark):
        g = graph("path7")
        dm = dependency_matrix(spark, g, [3, 3], sources=[0])
        assert len(dm) == 1

    def test_column_sum_is_bc(self, spark):
        key = "barbell5"
        dm = dependency_matrix(spark, graph(key), [5])
        assert np.isclose(dm["delta"].sum(), exact_bc(key)[5])

    def test_empty_targets_rejected(self, spark):
        with pytest.raises(ValueError, match="empty"):
            dependency_matrix(spark, graph("path7"), [])

    @pytest.mark.parametrize("r", [-1, 7])
    def test_target_out_of_range_rejected(self, spark, r):
        with pytest.raises(ValueError, match="target"):
            dependency_matrix(spark, graph("path7"), [3, r])

    @pytest.mark.parametrize("s", [-1, 7])
    def test_source_out_of_range_rejected(self, spark, s):
        with pytest.raises(ValueError, match="source"):
            dependency_matrix(spark, graph("path7"), [3], sources=[0, s])

    def test_more_sources_than_tasks(self, spark):
        # Several chunks and several blocks per chunk, rows in (r, s) order.
        g = gen.grid_2d(100, 100)
        src = list(range(0, g.n, 97))
        dm = dependency_matrix(spark, g, [5050, 0], sources=src)
        assert list(dm["r"]) == [0] * len(src) + [5050] * len(src)
        assert list(dm["s"]) == src * 2
        want = np.array([dependency_vector(g, s)[[0, 5050]] for s in src])
        assert np.array_equal(dm["delta"].to_numpy(), want.T.ravel())


class TestSparkResources:
    @pytest.fixture
    def broadcasts(self, monkeypatch):
        """Every broadcast created while the test runs."""
        made = []
        orig = SparkContext.broadcast

        def spy(sc, value):
            b = orig(sc, value)
            made.append(b)
            return b

        monkeypatch.setattr(SparkContext, "broadcast", spy)
        return made

    @pytest.mark.parametrize(
        "call",
        [
            lambda spark, g: betweenness_vector(spark, g),
            lambda spark, g: dependency_matrix(spark, g, [0, 3]),
            lambda spark, g: rk_estimate(spark, g, 0, 50, seed=1),
        ],
        ids=["betweenness_vector", "dependency_matrix", "rk_estimate"],
    )
    def test_broadcasts_destroyed(self, spark, broadcasts, call):
        call(spark, graph("er30"))
        assert broadcasts
        assert not any(b._jbroadcast.isValid() for b in broadcasts)

    def test_job_labelled_then_cleared(self, spark, monkeypatch):
        labels = []
        orig = SparkContext.setJobDescription

        def spy(sc, value):
            labels.append(value)
            orig(sc, value)

        monkeypatch.setattr(SparkContext, "setJobDescription", spy)
        betweenness_vector(spark, graph("er30"))
        dependency_matrix(spark, graph("er30"), [0])
        assert labels == [
            "brandes.betweenness_vector", None, "brandes.dependency_matrix", None
        ]
        assert spark.sparkContext.getLocalProperty("spark.job.description") is None


def test_betweenness_vector_bit_identical_between_runs(spark):
    g = gen.grid_2d(30, 30)
    a, b = betweenness_vector(spark, g), betweenness_vector(spark, g)
    assert np.array_equal(a, b)
    assert np.allclose(a, sum(dependency_vector(g, s) for s in range(g.n)))


class TestNormalizedBc:
    def test_scale(self):
        assert normalized_bc(90.0, 10) == 1.0

    def test_bounds_on_suite(self, spark):
        key = "star8"
        g = graph(key)
        bc = exact_bc(key)
        for v in range(g.n):
            assert 0.0 <= normalized_bc(float(bc[v]), g.n) <= 1.0

    def test_star_center_value(self):
        # (n−1)(n−2)/(n(n−1)) = (n−2)/n.
        n = 8
        assert np.isclose(normalized_bc(float(exact_bc("star8")[0]), n), (n - 2) / n)
