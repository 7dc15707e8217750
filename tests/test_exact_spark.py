"""Distributed exact Brandes ≡ pure-Python reference."""
import importlib
import os
import sys
import zipfile
import zipimport

import numpy as np
import pytest
from pyspark import SparkContext

from repro.baselines.rk_sampler import rk_estimate
from repro.bfs.local import dependency_vector
from repro.brandes.exact import (
    _drop_zip_importers,
    betweenness_vector,
    dependency_matrix,
    map_chunks,
    normalized_bc,
)
from repro.brandes.reference import brandes_dependency
from repro.graphs import generators as gen

from .conftest import SMALL_GRAPHS, dep_column, exact_bc, graph


@pytest.mark.parametrize("key", sorted(SMALL_GRAPHS))
def test_betweenness_vector_matches_reference(spark, key):
    assert np.allclose(betweenness_vector(spark, graph(key)), exact_bc(key))


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

    def test_rk_job_labelled_then_restored(self, spark, monkeypatch):
        labels = []
        orig = SparkContext.setJobDescription

        def spy(sc, value):
            labels.append(value)
            orig(sc, value)

        monkeypatch.setattr(SparkContext, "setJobDescription", spy)
        spark.sparkContext.setJobDescription("caller")
        try:
            rk_estimate(spark, graph("er30"), 0, 50, seed=1)
            assert labels == ["caller", "baselines.rk_estimate", "caller"]
        finally:
            orig(spark.sparkContext, None)


class TestZipImporters:
    """``importlib.invalidate_caches()`` re-reads the archive of every cached
    zip importer; each ``map_chunks`` task leaves its worker with none."""

    def test_drop_then_import_reads_no_archive(self, tmp_path, monkeypatch):
        archive = tmp_path / "zipped.zip"
        with zipfile.ZipFile(archive, "w") as z:
            z.writestr("zipped_first.py", "VALUE = 1\n")
            z.writestr("zipped_second.py", "VALUE = 2\n")
        monkeypatch.syspath_prepend(str(archive))
        for name in ("zipped_first", "zipped_second"):
            monkeypatch.delitem(sys.modules, name, raising=False)
        assert importlib.import_module("zipped_first").VALUE == 1
        assert isinstance(sys.path_importer_cache[str(archive)], zipimport.zipimporter)

        reads = []
        read = zipimport._read_directory
        monkeypatch.setattr(
            zipimport, "_read_directory", lambda path: reads.append(path) or read(path)
        )
        importlib.invalidate_caches()
        assert str(archive) in reads  # the cost being removed
        reads.clear()

        _drop_zip_importers()
        assert not any(
            isinstance(f, zipimport.zipimporter) for f in sys.path_importer_cache.values()
        )
        assert importlib.import_module("zipped_second").VALUE == 2
        _drop_zip_importers()
        importlib.invalidate_caches()
        assert reads == []

    def test_tasks_leave_no_zip_importers(self, spark):
        def task(graph, chunk):
            cache = sys.path_importer_cache.values()
            return os.getpid(), sum(isinstance(f, zipimport.zipimporter) for f in cache)

        chunks = list(range(spark.sparkContext.defaultParallelism))
        first = map_chunks(spark, graph("path7"), chunks, task, "test.first")
        second = map_chunks(spark, graph("path7"), chunks, task, "test.second")
        reused = [count for pid, count in second if pid in {p for p, _ in first}]
        assert reused and reused == [0] * len(reused)


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
