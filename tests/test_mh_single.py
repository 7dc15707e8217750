"""Tests for the single-space MH sampler (§4.2).

Chain-level tests precompute the full score table so the sampler's Spark
phase is a no-op (``spark=None``) — the chain itself is exact sequential
arithmetic. Spark integration of the scoring phase is covered in
``test_spark_integration.py``.
"""
import numpy as np
import pytest

from repro.brandes.exact import normalized_bc
from repro.brandes.relative import (
    mu_r,
    single_space_limit,
    stationary_distribution,
)
from repro.core.mh_single import mh_single, run_chain

from .conftest import dep_column, exact_bc, graph


def _scores(key, r):
    col = dep_column(key, r)
    return {v: float(col[v]) for v in range(len(col))}


class TestRunChain:
    def test_always_accept_higher_delta(self):
        scores = np.array([1.0, 5.0])
        states, dchain, acc = run_chain(
            np.array([1]), np.array([0.999999]), 0, scores
        )
        assert acc[0] and states[1] == 1 and dchain[1] == 5.0

    def test_reject_zero_delta_proposal(self):
        scores = np.array([1.0, 0.0])
        states, _, acc = run_chain(np.array([1, 1, 1]), np.full(3, 0.0), 0, scores)
        assert not acc.any() and (states == 0).all()

    def test_escape_zero_delta_start(self):
        scores = np.array([0.0, 2.0])
        states, _, acc = run_chain(np.array([1]), np.array([0.99]), 0, scores)
        assert acc[0] and states[1] == 1

    def test_zero_to_zero_moves(self):
        scores = np.array([0.0, 0.0])
        states, _, acc = run_chain(np.array([1]), np.array([0.5]), 0, scores)
        assert acc[0] and states[1] == 1

    def test_acceptance_probability_ratio(self):
        # From δ=4 to δ=1 the move probability is exactly 0.25.
        scores = np.array([4.0, 1.0])
        T = 40_000
        rng = np.random.default_rng(3)
        props = np.ones(T, dtype=int)
        unis = rng.random(T)
        # Reset to state 0 each step by construction: count immediate accepts.
        accepts = sum(
            run_chain(props[t : t + 1], unis[t : t + 1], 0, scores)[2][0]
            for t in range(T)
        )
        assert abs(accepts / T - 0.25) < 0.01

    def test_chain_shapes(self):
        scores = np.ones(4)
        states, dchain, acc = run_chain(
            np.array([1, 2, 3]), np.full(3, 0.0), 0, scores
        )
        assert len(states) == 4 and len(dchain) == 4 and len(acc) == 3


class TestMhSingleDeterminism:
    def test_same_seed_same_result(self):
        r = 5
        a = mh_single(None, graph("barbell5"), r, 500, seed=9, scores=_scores("barbell5", r))
        b = mh_single(None, graph("barbell5"), r, 500, seed=9, scores=_scores("barbell5", r))
        assert np.array_equal(a.states, b.states)
        assert a.estimate == b.estimate

    def test_different_seeds_differ(self):
        r = 5
        a = mh_single(None, graph("barbell5"), r, 500, seed=1, scores=_scores("barbell5", r))
        b = mh_single(None, graph("barbell5"), r, 500, seed=2, scores=_scores("barbell5", r))
        assert not np.array_equal(a.states, b.states)

    def test_no_spark_needed_with_full_scores(self):
        res = mh_single(None, graph("er30"), 0, 200, seed=0, scores=_scores("er30", 0))
        assert res.n_scored == 0


class TestChainInvariants:
    @pytest.mark.parametrize("key,r", [("barbell5", 5), ("er30", 0), ("star8", 0)])
    def test_states_in_vertex_set(self, key, r):
        g = graph(key)
        res = mh_single(None, g, r, 300, seed=4, scores=_scores(key, r))
        assert res.states.min() >= 0 and res.states.max() < g.n

    def test_estimate_matches_delta_chain(self):
        g = graph("er30")
        res = mh_single(None, g, 0, 300, seed=4, scores=_scores("er30", 0))
        manual = res.delta_chain.sum() / (len(res.delta_chain) * (g.n - 1))
        assert np.isclose(res.estimate, manual)

    def test_delta_chain_consistent_with_states(self):
        key, r = "ba30", 0
        col = dep_column(key, r)
        res = mh_single(None, graph(key), r, 300, seed=8, scores=_scores(key, r))
        assert np.allclose(res.delta_chain, col[res.states])

    def test_positive_support_never_leaves(self):
        # Once on a δ>0 state, the chain never accepts a δ=0 state.
        key, r = "er30", 0
        col = dep_column(key, r)
        res = mh_single(None, graph(key), r, 2000, seed=2, scores=_scores(key, r))
        on_support = np.flatnonzero(col[res.states] > 0)
        if len(on_support):
            assert (col[res.states[on_support[0] :]] > 0).all()

    def test_acceptance_rate_range(self):
        res = mh_single(None, graph("er30"), 0, 500, seed=1, scores=_scores("er30", 0))
        assert 0.0 < res.acceptance_rate <= 1.0


class TestConvergence:
    def test_converges_to_ergodic_limit(self):
        key, r = "barbell5", 5
        g = graph(key)
        col = dep_column(key, r)
        lim = single_space_limit(col, g.n)
        res = mh_single(None, g, r, 60_000, seed=11, scores=_scores(key, r))
        assert abs(res.estimate - lim) < 0.01

    def test_star_center_exact_regime(self):
        # μ → 1: estimate ≈ nbc up to the μ-envelope.
        key, r = "star8", 0
        g = graph(key)
        col = dep_column(key, r)
        nbc = normalized_bc(float(col.sum()), g.n)
        mu = mu_r(col)
        res = mh_single(None, g, r, 40_000, seed=13, scores=_scores(key, r))
        assert nbc - 0.01 <= res.estimate <= mu * nbc + 0.01

    def test_empirical_stationary_distribution(self):
        key, r = "er30", 0
        col = dep_column(key, r)
        pi = stationary_distribution(col)
        res = mh_single(None, graph(key), r, 120_000, seed=17, scores=_scores(key, r))
        freq = np.bincount(res.states, minlength=len(col)) / len(res.states)
        tv = 0.5 * np.abs(freq - pi).sum()
        assert tv < 0.03

    def test_bias_envelope_empirical(self):
        # Long-run mean estimate within [nbc, μ·nbc] for several vertices.
        key = "ba30"
        g = graph(key)
        bc = exact_bc(key)
        for r in np.argsort(bc)[::-1][:3]:
            r = int(r)
            col = dep_column(key, r)
            nbc = normalized_bc(float(col.sum()), g.n)
            mu = mu_r(col)
            res = mh_single(None, g, r, 80_000, seed=23, scores=_scores(key, r))
            assert nbc - 0.02 <= res.estimate <= mu * nbc + 0.02

    def test_zero_bc_vertex_estimates_zero(self):
        # A star leaf: every δ is 0, the estimate is exactly 0.
        res = mh_single(None, graph("star8"), 1, 500, seed=3, scores=_scores("star8", 1))
        assert res.estimate == 0.0

    def test_error_shrinks_with_T(self):
        key, r = "er30", 0
        g = graph(key)
        lim = single_space_limit(dep_column(key, r), g.n)
        errs = []
        for T in (200, 2000, 20000):
            ests = [
                mh_single(None, g, r, T, seed=100 + c, scores=_scores(key, r)).estimate
                for c in range(8)
            ]
            errs.append(np.mean(np.abs(np.array(ests) - lim)))
        assert errs[2] < errs[0]
