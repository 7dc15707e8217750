"""Distributed exact Brandes ≡ pure-Python reference."""
import importlib
import os
import sys
import zipfile
import zipimport

import numpy as np
import pytest
from pyspark import SparkContext

from repro.baselines.rk_sampler import prune, rk_estimate
from repro.bfs.local import dependency_vector
from repro.brandes import exact
from repro.brandes.exact import (
    _drop_zip_importers,
    betweenness_vector,
    dependency_matrix,
    map_chunks,
    normalized_bc,
)
from repro.brandes.reference import brandes_dependency
from repro.graphs import generators as gen
from repro.graphs.csr import from_edges

from .conftest import SMALL_GRAPHS, dep_column, exact_bc, graph, job_group
from .test_baselines import rk_pairs
from .test_local_bfs import graph_edges


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


@pytest.fixture
def broadcasts(monkeypatch):
    """Every broadcast created while the test runs."""
    made = []
    orig = SparkContext.broadcast

    def spy(sc, value):
        b = orig(sc, value)
        made.append(b)
        return b

    monkeypatch.setattr(SparkContext, "broadcast", spy)
    return made


@pytest.fixture
def job_labels(monkeypatch):
    """Every Spark job description set while the test runs."""
    labels = []
    orig = SparkContext.setJobDescription

    def spy(sc, value):
        labels.append(value)
        orig(sc, value)

    monkeypatch.setattr(SparkContext, "setJobDescription", spy)
    return labels


def _rk_on_er30(spark, g):
    # rk_estimate starts a job only if some of its pairs survive pruning.
    assert prune(g, 0, *rk_pairs(g, 50, 1)[:2])[0].any()
    return rk_estimate(spark, g, 0, 50, seed=1)


class TestSparkResources:
    @pytest.mark.parametrize(
        "call",
        [
            lambda spark, g: betweenness_vector(spark, g),
            lambda spark, g: dependency_matrix(spark, g, [0, 3]),
            _rk_on_er30,
        ],
        ids=["betweenness_vector", "dependency_matrix", "rk_estimate"],
    )
    def test_broadcasts_destroyed(self, spark, on_spark, broadcasts, call):
        call(spark, graph("er30"))
        assert broadcasts
        assert not any(b._jbroadcast.isValid() for b in broadcasts)

    def test_job_labelled_then_cleared(self, spark, on_spark, job_labels):
        betweenness_vector(spark, graph("er30"))
        dependency_matrix(spark, graph("er30"), [0])
        assert job_labels == [
            "brandes.betweenness_vector", None, "brandes.dependency_matrix", None
        ]
        assert spark.sparkContext.getLocalProperty("spark.job.description") is None

    def test_rk_job_labelled_then_restored(self, spark, on_spark, monkeypatch):
        labels = []
        orig = SparkContext.setJobDescription

        def spy(sc, value):
            labels.append(value)
            orig(sc, value)

        monkeypatch.setattr(SparkContext, "setJobDescription", spy)
        spark.sparkContext.setJobDescription("caller")
        try:
            _rk_on_er30(spark, graph("er30"))
            assert labels == ["caller", "baselines.rk_estimate", "caller"]
        finally:
            orig(spark.sparkContext, None)


def _disconnected():
    # Components {0, 1, 2} and {3, 4}; vertex 5 is isolated.
    return from_edges(6, graph_edges([(0, 1), (1, 2), (3, 4)]))


class TestDriverPath:
    """Calls of at most ``LOCAL_WORK`` sweep elements run on the driver, with
    the chunks, task and fold of the Spark job, so their results are the same
    bit for bit. This holds for the RK baseline's pairs too."""

    @pytest.mark.parametrize("key", sorted(SMALL_GRAPHS) + ["disconnected"])
    def test_same_as_spark(self, spark, monkeypatch, key):
        g = _disconnected() if key == "disconnected" else graph(key)

        def run(local_work):
            monkeypatch.setattr(exact, "LOCAL_WORK", local_work)
            dm = dependency_matrix(spark, g, range(g.n))
            rk = [rk_estimate(spark, g, r, 200, seed=3).estimate_nbc for r in range(g.n)]
            return betweenness_vector(spark, g), dm["delta"].to_numpy(), rk

        (bc_driver, dm_driver, rk_driver), (bc_spark, dm_spark, rk_spark) = run(2**62), run(0)
        assert np.array_equal(bc_driver, bc_spark)
        assert np.array_equal(dm_driver, dm_spark)
        assert rk_driver == rk_spark

    def test_starts_no_job(self, spark, monkeypatch, broadcasts, job_labels):
        with job_group(spark, "test.driver-path") as jobs:
            betweenness_vector(spark, graph("er30"))
            dependency_matrix(spark, graph("er30"), [0, 3])
            assert jobs() == []
            assert broadcasts == [] and job_labels == []
            # The same group does see a job on the Spark path.
            monkeypatch.setattr(exact, "LOCAL_WORK", 0)
            betweenness_vector(spark, graph("er30"))
            assert len(jobs()) == 1

    def test_cutoff_is_inclusive(self, spark, monkeypatch, broadcasts):
        g = graph("er30")
        src = [1, 4, 9, 16, 25]
        work = len(src) * (g.n + len(g.indices))
        monkeypatch.setattr(exact, "LOCAL_WORK", work)
        local = dependency_matrix(spark, g, [0], sources=src)
        assert broadcasts == []
        monkeypatch.setattr(exact, "LOCAL_WORK", work - 1)
        remote = dependency_matrix(spark, g, [0], sources=src)
        assert len(broadcasts) == 1
        assert local.equals(remote)


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
        work = exact.LOCAL_WORK + 1  # above the cut: a Spark job
        first = map_chunks(spark, graph("path7"), chunks, task, "test.first", work)
        second = map_chunks(spark, graph("path7"), chunks, task, "test.second", work)
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
