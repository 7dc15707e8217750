"""End-to-end sampler runs through the real Spark scoring phase."""
import numpy as np
import pytest

from repro.baselines.distance_sampler import distance_distribution, distance_sampler_estimate
from repro.baselines.uniform_source import uniform_source_estimate
from repro.core.mh_joint import mh_joint, score_vertices_joint
from repro.core.mh_single import mh_single, score_vertices

from .conftest import dep_column, exact_bc, graph
from .test_imh_scan import assert_single_is_joint

# These graphs are below ``exact.LOCAL_WORK``; score them on Spark anyway.
pytestmark = pytest.mark.usefixtures("on_spark")


class TestScoreVertices:
    def test_csr_kernel_matches_ground_truth(self, spark):
        key, r = "er30", 0
        g = graph(key)
        col = dep_column(key, r)
        vs = np.array([1, 5, 9])
        out = np.full(g.n, np.nan)
        score_vertices(spark, g, vs, r, out)
        for v in vs:
            assert np.isclose(out[v], col[v])
        assert np.isnan(np.delete(out, vs)).all()

    def test_joint_scoring_vector_per_R(self, spark):
        key = "ba30"
        R = [0, 1, 5]
        g = graph(key)
        vs = np.array([3, 8])
        out = np.full((g.n, len(R)), np.nan)
        score_vertices_joint(spark, g, vs, R, out)
        for v in vs:
            vec = out[v]
            assert len(vec) == 3
            for i, r in enumerate(R):
                assert np.isclose(vec[i], dep_column(key, r)[v])
        assert np.isnan(np.delete(out, vs, axis=0)).all()


class TestEndToEnd:
    def test_mh_single_spark_path_equals_precomputed(self, spark):
        key, r = "er30", 0
        g = graph(key)
        col = dep_column(key, r)
        pre = {v: float(col[v]) for v in range(g.n)}
        a = mh_single(spark, g, r, 150, seed=21)  # scores via Spark
        b = mh_single(None, g, r, 150, seed=21, scores=pre)
        assert np.array_equal(a.states, b.states)
        assert np.isclose(a.estimate, b.estimate)
        assert a.n_scored > 0 and b.n_scored == 0

    def test_mh_joint_spark_path_equals_precomputed(self, spark):
        key = "ba30"
        g = graph(key)
        R = [0, 1]
        pre = {
            v: np.array([dep_column(key, r)[v] for r in R]) for v in range(g.n)
        }
        a = mh_joint(spark, g, R, 150, seed=31)
        b = mh_joint(None, g, R, 150, seed=31, scores=pre)
        assert np.array_equal(a.v_chain, b.v_chain)
        assert np.allclose(a.ratio, b.ratio, equal_nan=True)

    def test_partial_scores_topped_up(self, spark):
        # Supplying only some scores: the rest must come from Spark and
        # the chain must equal the fully-precomputed run.
        key, r = "er30", 0
        g = graph(key)
        col = dep_column(key, r)
        partial = {v: float(col[v]) for v in range(0, g.n, 2)}
        full = {v: float(col[v]) for v in range(g.n)}
        a = mh_single(spark, g, r, 100, seed=5, scores=partial)
        b = mh_single(None, g, r, 100, seed=5, scores=full)
        assert np.array_equal(a.states, b.states)

    def test_partial_table_topped_up(self, spark):
        # A dense table with NaN rows: Spark scores the missing rows, the
        # chains equal the full-table runs bit for bit (both tables come
        # from the same kernel), and the caller's table is left as it was.
        key = "ba30"
        g = graph(key)
        R = [0, 1, 5]
        full = np.full((g.n, len(R)), np.nan)
        score_vertices_joint(spark, g, np.arange(g.n), R, full)
        partial = full.copy()
        partial[1::3] = np.nan
        before = partial.copy()
        a = mh_single(spark, g, R[0], 100, seed=5, scores=partial[:, 0])
        b = mh_single(None, g, R[0], 100, seed=5, scores=full[:, 0])
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.delta_chain, b.delta_chain)
        assert np.array_equal(a.accepted, b.accepted)
        assert a.n_scored > 0 and b.n_scored == 0
        c = mh_joint(spark, g, R, 100, seed=5, scores=partial)
        d = mh_joint(None, g, R, 100, seed=5, scores=full)
        assert np.array_equal(c.v_chain, d.v_chain)
        assert np.array_equal(c.r_idx_chain, d.r_idx_chain)
        assert np.array_equal(c.delta_chain, d.delta_chain)
        assert np.array_equal(c.accepted, d.accepted)
        assert c.n_scored > 0 and d.n_scored == 0
        assert np.array_equal(partial, before, equal_nan=True)

    def test_mh_single_is_mh_joint_on_spark(self, spark):
        key, r = "ba30", 1
        g = graph(key)
        single = mh_single(spark, g, r, 200, seed=7)
        joint = mh_joint(spark, g, [r], 200, seed=7)
        assert single.n_scored > 0
        assert_single_is_joint(single, joint)

    @pytest.mark.parametrize("method", ["uniform", "distance"])
    def test_baselines_partial_scores_topped_up(self, spark, method):
        # The baselines fill their NaN entries through the samplers' scoring
        # path: the estimate equals the full-column run, n_scored counts the
        # distinct unscored samples, and the caller's column is unchanged.
        key, r, T, seed = "er30", 0, 120, 9
        g = graph(key)
        full = np.full(g.n, np.nan)
        score_vertices(spark, g, np.arange(g.n), r, full)
        partial = full.copy()
        partial[::3] = np.nan
        before = partial.copy()
        rng = np.random.default_rng(seed)
        if method == "uniform":
            run = uniform_source_estimate
            pool = np.setdiff1d(np.arange(g.n), [r])
            samples = pool[rng.integers(0, len(pool), size=T)]
        else:
            run = distance_sampler_estimate
            samples = rng.choice(g.n, size=T, p=distance_distribution(g, r))
        unscored = np.unique(samples[np.isnan(partial[samples])])
        a = run(spark, g, r, T, seed=seed, scores=partial)
        b = run(None, g, r, T, seed=seed, scores=full)
        assert a.estimate_bc == b.estimate_bc and a.estimate_nbc == b.estimate_nbc
        assert a.n_scored == len(unscored) > 0 and b.n_scored == 0
        assert np.array_equal(partial, before, equal_nan=True)
