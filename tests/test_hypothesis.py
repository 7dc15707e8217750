"""Property-based tests over random small graphs (Hypothesis)."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfs.local import bfs_block, bfs_sigma, dependency_block, dependency_vector
from repro.brandes.reference import brandes_betweenness, brandes_dependency
from repro.brandes.relative import eq21_residual, min_ratio, mu_r
from repro.core.mh_joint import mh_joint
from repro.core.mh_single import mh_single
from repro.graphs.csr import from_edges, is_connected, largest_component
from repro.graphs.generators import erdos_renyi

from .conftest import job_group


def _random_connected(seed: int, n: int = 14, p: float = 0.25):
    return erdos_renyi(n, p, seed=seed)


graph_seeds = st.integers(min_value=0, max_value=10_000)


@given(graph_seeds)
@settings(max_examples=25, deadline=None)
def test_kernel_equals_reference(seed):
    g = _random_connected(seed)
    block = dependency_block(g, np.arange(g.n))
    dist, sigma = bfs_block(g, np.arange(g.n))
    for s in range(g.n):
        ref = brandes_dependency(g, s)
        assert np.allclose(dependency_vector(g, s), ref)
        assert np.allclose(block[s], ref)
        d_ref, s_ref = bfs_sigma(g, s)
        assert np.array_equal(dist[s], d_ref) and np.array_equal(sigma[s], s_ref)


@given(graph_seeds)
@settings(max_examples=25, deadline=None)
def test_bc_symmetry_of_distance(seed):
    g = _random_connected(seed)
    for s in range(min(g.n, 5)):
        dist_s, _ = bfs_sigma(g, s)
        for t in range(g.n):
            dist_t, _ = bfs_sigma(g, t)
            assert dist_s[t] == dist_t[s]


@given(graph_seeds)
@settings(max_examples=20, deadline=None)
def test_eq21_identity_random_graphs(seed):
    g = _random_connected(seed)
    bc = brandes_betweenness(g)
    pos = np.flatnonzero(bc > 0)
    if len(pos) < 2:
        return
    cols = {
        int(r): np.array([brandes_dependency(g, s)[r] for s in range(g.n)])
        for r in pos[:3]
    }
    keys = list(cols)
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            assert abs(eq21_residual(cols[keys[i]], cols[keys[j]])) < 1e-9


@given(graph_seeds)
@settings(max_examples=20, deadline=None)
def test_mu_at_least_one_random(seed):
    g = _random_connected(seed)
    bc = brandes_betweenness(g)
    for r in np.flatnonzero(bc > 0)[:3]:
        col = np.array([brandes_dependency(g, s)[r] for s in range(g.n)])
        assert mu_r(col) >= 1.0


@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=40, deadline=None)
def test_csr_roundtrip_random_edgelists(pairs):
    import pandas as pd

    canon = {(min(a, b), max(a, b)) for a, b in pairs}
    df = pd.DataFrame(sorted(canon), columns=["src", "dst"])
    g = from_edges(10, df)
    assert g.m == len(canon)
    back = g.edge_pandas()
    assert set(zip(back["src"], back["dst"])) == canon
    lc = largest_component(g)
    assert is_connected(lc)
    # Oracle for the component labeller: BFS reachability from each vertex.
    reach = [bfs_sigma(g, v)[0] >= 0 for v in range(g.n)]
    assert is_connected(g) == bool(reach[0].all())
    assert lc.n == max(int(r.sum()) for r in reach)


@given(st.integers(0, 5000))
@settings(max_examples=30, deadline=None)
def test_min_ratio_bounds_random(seed):
    rng = np.random.default_rng(seed)
    a = rng.random(20) * rng.integers(0, 2, 20)
    b = rng.random(20) * rng.integers(0, 2, 20)
    out = min_ratio(a, b)
    assert ((out >= 0) & (out <= 1)).all()


@st.composite
def disconnected_graphs(draw):
    """A random simple graph on 2–12 vertices whose last vertex is isolated
    (edges join only the others), so it is never connected."""
    import pandas as pd

    n = draw(st.integers(2, 12))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 2), st.integers(0, n - 2)), max_size=2 * n)
    )
    canon = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    return from_edges(n, pd.DataFrame(canon, columns=["src", "dst"], dtype="int64"))


@given(disconnected_graphs(), st.data())
@settings(max_examples=30, deadline=None)
def test_samplers_on_disconnected_graphs(spark, g, data):
    # Scored through brandes.exact (driver path: these graphs are far below
    # LOCAL_WORK, so no Spark job starts) against the serial kernel's table.
    r = data.draw(st.integers(0, g.n - 1))
    R = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=3, unique=True))
    T = data.draw(st.integers(1, 60))
    seed = data.draw(st.integers(0, 2**16))
    rows = np.array([dependency_vector(g, v) for v in range(g.n)])
    with job_group(spark, "test.disconnected-samplers") as jobs:
        a = mh_single(spark, g, r, T, seed=seed)
        c = mh_joint(spark, g, R, T, seed=seed)
        assert jobs() == []
    b = mh_single(None, g, r, T, seed=seed, scores=rows[:, r])
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.delta_chain, b.delta_chain)
    assert np.array_equal(a.accepted, b.accepted)
    assert a.estimate == b.estimate and np.isfinite(a.estimate)
    assert np.isfinite(a.estimate_accepted_only)
    d = mh_joint(None, g, R, T, seed=seed, scores=rows[:, R])
    assert np.array_equal(c.v_chain, d.v_chain)
    assert np.array_equal(c.r_idx_chain, d.r_idx_chain)
    assert np.array_equal(c.delta_chain, d.delta_chain)
    assert np.array_equal(c.accepted, d.accepted)
    assert np.array_equal(c.ratio, d.ratio, equal_nan=True)
    # NaN is the Eq.-22 estimators' value for an empty sub-chain S(j) or a
    # zero denominator; every estimate over a non-empty S(j) is finite.
    assert np.isfinite(c.relative[:, c.subchain_sizes > 0]).all()
    assert not np.isinf(c.ratio).any()
