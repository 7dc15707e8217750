"""Tests for the joint-space MH sampler (§4.3).

As in ``test_mh_single.py``, full score tables make the Spark phase a
no-op so these tests exercise the chain and estimators exactly.
"""
import numpy as np
import pytest

from repro.brandes.relative import (
    min_ratio,
    relative_bc_chain,
)
from repro.core.mh_joint import mh_joint, run_joint_chain

from .conftest import dep_column, exact_bc, graph


def _joint_scores(key, R):
    cols = {r: dep_column(key, r) for r in R}
    n = graph(key).n
    return {v: np.array([cols[r][v] for r in R], dtype=float) for v in range(n)}


def _top_vertices(key, k=3):
    bc = exact_bc(key)
    order = np.argsort(bc)[::-1]
    return [int(v) for v in order[:k] if bc[v] > 0]


class TestRunJointChain:
    def test_accept_higher(self):
        scores = np.array([[1.0, 2.0], [3.0, 0.5]])
        r_idx, v, acc = run_joint_chain(
            np.array([0]), np.array([1]), np.array([0.999]), 1, 0, scores
        )
        # current (r=1, v=0): δ=2; proposal (r=0, v=1): δ=3 → accept.
        assert acc[0] and r_idx[1] == 0 and v[1] == 1

    def test_reject_zero(self):
        scores = np.array([[1.0], [0.0]])
        r_idx, v, acc = run_joint_chain(
            np.array([0, 0]), np.array([1, 1]), np.zeros(2), 0, 0, scores
        )
        assert not acc.any() and (v == 0).all()

    def test_escape_zero_start(self):
        scores = np.array([[0.0], [4.0]])
        _, v, acc = run_joint_chain(
            np.array([0]), np.array([1]), np.array([0.99]), 0, 0, scores
        )
        assert acc[0] and v[1] == 1

    def test_shapes(self):
        scores = np.ones((3, 2))
        r_idx, v, acc = run_joint_chain(
            np.array([0, 1, 0]), np.array([1, 2, 0]), np.zeros(3), 0, 0, scores
        )
        assert len(r_idx) == 4 and len(v) == 4 and len(acc) == 3


class TestMhJointBasics:
    def test_determinism(self):
        key = "er30"
        R = _top_vertices(key)
        s = _joint_scores(key, R)
        a = mh_joint(None, graph(key), R, 800, seed=5, scores=s)
        b = mh_joint(None, graph(key), R, 800, seed=5, scores=s)
        assert np.array_equal(a.v_chain, b.v_chain)
        assert np.allclose(a.ratio, b.ratio, equal_nan=True)

    def test_subchain_sizes_sum(self):
        key = "er30"
        R = _top_vertices(key)
        res = mh_joint(None, graph(key), R, 500, seed=1, scores=_joint_scores(key, R))
        assert res.subchain_sizes.sum() == 501

    def test_diagonal_is_one(self):
        key = "ba30"
        R = _top_vertices(key)
        res = mh_joint(None, graph(key), R, 400, seed=2, scores=_joint_scores(key, R))
        assert np.allclose(np.diag(res.ratio), 1.0)
        assert np.allclose(np.diag(res.relative), 1.0)

    def test_ratio_matrix_exact_reciprocal(self):
        # ratio[i,j] and ratio[j,i] are built from the same two sample
        # means, so they are exact reciprocals by construction.
        key = "er30"
        R = _top_vertices(key)
        res = mh_joint(None, graph(key), R, 2000, seed=3, scores=_joint_scores(key, R))
        for i in range(len(R)):
            for j in range(len(R)):
                if i != j and np.isfinite(res.ratio[i, j]):
                    assert np.isclose(res.ratio[i, j] * res.ratio[j, i], 1.0)

    def test_no_spark_needed_with_full_scores(self):
        key = "grid3x4"
        R = _top_vertices(key)
        res = mh_joint(None, graph(key), R, 100, seed=0, scores=_joint_scores(key, R))
        assert res.n_scored == 0

    def test_delta_chain_consistent(self):
        key = "ba30"
        R = _top_vertices(key)
        s = _joint_scores(key, R)
        res = mh_joint(None, graph(key), R, 300, seed=7, scores=s)
        for t in (0, 150, 300):
            assert np.allclose(res.delta_chain[t], s[int(res.v_chain[t])])


class TestJointConvergence:
    def test_ratio_converges_to_exact(self):
        key = "er30"
        bc = exact_bc(key)
        R = _top_vertices(key, k=3)
        res = mh_joint(None, graph(key), R, 120_000, seed=11, scores=_joint_scores(key, R))
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                exact = bc[R[i]] / bc[R[j]]
                assert abs(res.ratio[i, j] - exact) / exact < 0.1, (i, j)

    def test_relative_converges_to_chain_consistent_value(self):
        key = "ba30"
        R = _top_vertices(key, k=2)
        cols = {r: dep_column(key, r) for r in R}
        res = mh_joint(None, graph(key), R, 120_000, seed=13, scores=_joint_scores(key, R))
        exact_star = relative_bc_chain(cols[R[0]], cols[R[1]])
        assert abs(res.relative[0, 1] - exact_star) < 0.03

    def test_marginal_r_distribution(self):
        # Stationary marginal over r is ∝ BC(r) (sum Eq. 18 over v).
        key = "er30"
        bc = exact_bc(key)
        R = _top_vertices(key, k=3)
        res = mh_joint(None, graph(key), R, 120_000, seed=17, scores=_joint_scores(key, R))
        expect = np.array([bc[r] for r in R])
        expect = expect / expect.sum()
        emp = res.subchain_sizes / res.subchain_sizes.sum()
        assert np.abs(emp - expect).max() < 0.03

    def test_joint_stationary_distribution(self):
        # Empirical (r, v) frequencies ≈ Eq. 18.
        key = "barbell5"
        bc = exact_bc(key)
        R = [5, 4]  # separator and a clique vertex
        assert bc[R[0]] > 0 and bc[R[1]] > 0
        cols = {r: dep_column(key, r) for r in R}
        res = mh_joint(None, graph(key), R, 150_000, seed=19, scores=_joint_scores(key, R))
        Z = sum(cols[r].sum() for r in R)
        n = graph(key).n
        emp = np.zeros((2, n))
        for ridx, v in zip(res.r_idx_chain, res.v_chain):
            emp[ridx, v] += 1
        emp /= emp.sum()
        expect = np.stack([cols[r] / Z for r in R])
        assert 0.5 * np.abs(emp - expect).sum() < 0.03  # total variation

    def test_eq19_via_sampling(self):
        # The sampled Eq.-22 ratio matches the exact Eq.-19 rhs.
        key = "grid3x4"
        bc = exact_bc(key)
        R = _top_vertices(key, k=2)
        cols = {r: dep_column(key, r) for r in R}
        num = relative_bc_chain(cols[R[0]], cols[R[1]])
        den = relative_bc_chain(cols[R[1]], cols[R[0]])
        res = mh_joint(None, graph(key), R, 120_000, seed=23, scores=_joint_scores(key, R))
        assert abs(res.ratio[0, 1] - num / den) / (num / den) < 0.1
