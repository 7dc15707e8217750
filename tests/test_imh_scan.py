"""The shared Independence-MH scan against the dict-based reference loop.

``reference_chain`` and ``reference_joint_chain`` are the samplers'
original accept/reject loops over ``{v: δ}`` / ``{v: δ-vector}`` dicts
and NumPy scalars, kept here as oracles: the dense-table scan must give
the same states and accept flags, bit for bit.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.brandes.exact import score_table
from repro.core.mh_joint import mh_joint, run_joint_chain
from repro.core.mh_single import mh_single, run_chain

from .conftest import SMALL_GRAPHS, dep_column, graph


def reference_chain(proposals, uniforms, v0, scores):
    T = len(proposals)
    states = np.empty(T + 1, dtype=np.int64)
    delta_chain = np.empty(T + 1, dtype=np.float64)
    accepted = np.zeros(T, dtype=bool)
    cur, dcur = int(v0), scores[int(v0)]
    states[0], delta_chain[0] = cur, dcur
    for t in range(T):
        prop = int(proposals[t])
        dprop = scores[prop]
        if dcur == 0.0:
            move = True
        else:
            move = uniforms[t] < min(1.0, dprop / dcur)
        if move:
            cur, dcur = prop, dprop
            accepted[t] = True
        states[t + 1], delta_chain[t + 1] = cur, dcur
    return states, delta_chain, accepted


def reference_joint_chain(prop_r, prop_v, uniforms, r0_idx, v0, scores):
    T = len(prop_r)
    r_idx = np.empty(T + 1, dtype=np.int64)
    v = np.empty(T + 1, dtype=np.int64)
    accepted = np.zeros(T, dtype=bool)
    cur_r, cur_v = int(r0_idx), int(v0)
    dcur = float(scores[cur_v][cur_r])
    r_idx[0], v[0] = cur_r, cur_v
    for t in range(T):
        pr, pv = int(prop_r[t]), int(prop_v[t])
        dprop = float(scores[pv][pr])
        if dcur == 0.0:
            move = True
        else:
            move = uniforms[t] < min(1.0, dprop / dcur)
        if move:
            cur_r, cur_v, dcur = pr, pv, dprop
            accepted[t] = True
        r_idx[t + 1], v[t + 1] = cur_r, cur_v
    return r_idx, v, accepted


@st.composite
def scan_inputs(draw):
    """A random δ table (k ∈ {1, 2, 3}, at least 30 % exact zeros, the
    start cell among them) and a seeded proposal stream."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 40))
    k = draw(st.sampled_from([1, 2, 3]))
    T = draw(st.integers(1, 300))
    zero_frac = draw(st.floats(0.3, 0.95))
    rng = np.random.default_rng(seed)
    table = rng.exponential(size=(n, k)) * rng.integers(1, 10**6, size=(n, k))
    table[rng.random((n, k)) < zero_frac] = 0.0
    v0, r0 = int(rng.integers(0, n)), int(rng.integers(0, k))
    table[v0, r0] = 0.0
    return table, v0, r0, rng.integers(0, k, T), rng.integers(0, n, T), rng.random(T)


@given(scan_inputs())
@settings(max_examples=200, deadline=None)
def test_run_chain_equals_reference(inputs):
    table, v0, r0, _, prop_v, uniforms = inputs
    col = table[:, r0].copy()
    got = run_chain(prop_v, uniforms, v0, col)
    ref = reference_chain(prop_v, uniforms, v0, {v: col[v] for v in range(len(col))})
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@given(scan_inputs())
@settings(max_examples=200, deadline=None)
def test_run_joint_chain_equals_reference(inputs):
    table, v0, r0, prop_r, prop_v, uniforms = inputs
    got = run_joint_chain(prop_r, prop_v, uniforms, r0, v0, table)
    ref = reference_joint_chain(
        prop_r, prop_v, uniforms, r0, v0, {v: table[v] for v in range(len(table))}
    )
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestScoreTable:
    def test_dicts_and_arrays_give_the_same_chain(self):
        key, R = "ba30", [0, 1, 5]
        g = graph(key)
        table = np.column_stack([dep_column(key, r) for r in R])
        a = mh_single(None, g, R[0], 400, seed=3, scores=table[:, 0])
        b = mh_single(None, g, R[0], 400, seed=3, scores=dict(enumerate(table[:, 0])))
        assert np.array_equal(a.states, b.states) and a.estimate == b.estimate
        c = mh_joint(None, g, R, 400, seed=3, scores=table)
        d = mh_joint(None, g, R, 400, seed=3, scores=dict(enumerate(table)))
        assert np.array_equal(c.v_chain, d.v_chain)
        assert np.array_equal(c.ratio, d.ratio, equal_nan=True)

    def test_caller_table_never_mutated(self):
        key, R = "er30", [0, 3]
        g = graph(key)
        table = np.column_stack([dep_column(key, r) for r in R])
        before = table.copy()
        mh_single(None, g, R[0], 300, seed=1, scores=table[:, 0])
        mh_joint(None, g, R, 300, seed=1, scores=table)
        assert np.array_equal(table, before)

    def test_missing_entries_are_nan(self):
        out = score_table({1: 2.0}, 3)
        assert np.isnan(out[[0, 2]]).all() and out[1] == 2.0
        assert np.isnan(score_table(None, 4, 2)).all()

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            score_table(np.zeros(5), 6)
        with pytest.raises(ValueError):
            score_table(np.zeros((6, 2)), 6, 3)

    @pytest.mark.parametrize("key", [-1, 4, -5])
    def test_out_of_range_keys_rejected(self, key):
        # A negative key must not wrap around to the end of the table, and a
        # key past the end must fail as a bad vertex, not as an IndexError.
        with pytest.raises(ValueError, match=f"scored vertex {key} out of range"):
            score_table({0: 1.0, key: 0.5}, 4)
        with pytest.raises(ValueError, match=f"scored vertex {key} out of range"):
            score_table({key: np.array([0.5, 1.0]), 1: np.ones(2)}, 4, 2)

    def test_in_range_keys_kept_in_dict_order(self):
        out = score_table({3: 1.0, 0: 2.0}, 4)
        assert out[3] == 1.0 and out[0] == 2.0 and np.isnan(out[[1, 2]]).all()
        out = score_table({3: np.array([1.0, 2.0])}, 4, 2)
        assert np.array_equal(out[3], [1.0, 2.0]) and np.isnan(out[:3]).all()


def assert_single_is_joint(single, joint):
    """``mh_single`` on ``r`` is ``mh_joint`` on ``[r]``, array for array."""
    assert np.array_equal(single.states, joint.v_chain)
    assert np.array_equal(single.delta_chain, joint.delta_chain[:, 0])
    assert np.array_equal(single.accepted, joint.accepted)
    assert np.array_equal(joint.r_idx_chain, np.zeros(single.T + 1))
    assert np.array_equal(joint.ratio, [[1.0]])
    assert single.n_scored == joint.n_scored


@pytest.mark.parametrize("key", sorted(SMALL_GRAPHS))
def test_single_is_joint_with_one_target(key):
    # With one target the joint sampler's r-draws take no bits from the
    # PCG64 stream, so both samplers walk the same chain.
    g = graph(key)
    for r in (0, g.n // 2):
        col = dep_column(key, r)
        for seed in range(5):
            for T in (1, 50, 3000):
                single = mh_single(None, g, r, T, seed=seed, scores=col)
                joint = mh_joint(None, g, [r], T, seed=seed, scores=col[:, None])
                assert_single_is_joint(single, joint)
