"""§4.3 — the joint-space Metropolis-Hastings sampler over R × V(G).

States are pairs ⟨r, v⟩; proposals draw both components uniformly;
acceptance is ``min{1, δ_v'•(r') / δ_v•(r)}`` (Eq. 17); the stationary
law is Eq. 18. From one realised chain we estimate *all* pairwise
betweenness ratios (Eq. 22) and relative scores simultaneously —
Bennett's acceptance-ratio method in graph clothing.

Distributed structure mirrors :mod:`repro.core.mh_single`: pre-drawn
i.i.d. proposals, Spark scores each **distinct** proposed ``v`` with one
Brandes pass that yields ``δ_v•(r)`` for every ``r ∈ R`` at once, the
O(T) accept/reject scan runs on the driver.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from ..brandes.exact import check_sampler_args, dependency_matrix
from ..brandes.relative import min_ratio
from ..graphs.csr import CSRGraph
from .estimators import eq22_ratio, relative_score_estimate


@dataclass(frozen=True)
class JointChainResult:
    """Realised joint chain plus all pairwise estimates."""

    R: tuple[int, ...]
    T: int
    seed: int
    r_idx_chain: np.ndarray  # index into R per state (length T+1)
    v_chain: np.ndarray  # v component per state
    delta_chain: np.ndarray  # (T+1, |R|): δ_{v_t}•(r) for every r ∈ R
    accepted: np.ndarray  # bool per iteration
    ratio: np.ndarray  # (k, k): Eq. 22 estimate of BC(R[i])/BC(R[j])
    relative: np.ndarray  # (k, k): B̈C_{R[j]}(R[i]) (Eq. 22 numerator)
    subchain_sizes: np.ndarray  # |S(j)| per j (chain-multiset reading)
    n_scored: int

    @property
    def acceptance_rate(self) -> float:
        """Fraction of iterations that moved."""
        return float(self.accepted.mean()) if len(self.accepted) else 0.0


def score_vertices_joint(
    spark: SparkSession, g: CSRGraph, vertices: np.ndarray, R: list[int]
) -> dict[int, np.ndarray]:
    """``v → [δ_v•(r) for r in R]`` — one Brandes pass per distinct v."""
    distinct = np.unique(vertices)
    dm = dependency_matrix(spark, g, R, sources=distinct)
    # dependency_matrix returns one run of sorted sources per sorted target;
    # map the targets back to the caller's R order.
    targets = np.unique(R)
    delta = dm["delta"].to_numpy().reshape(len(targets), len(distinct))
    rows = np.ascontiguousarray(delta[np.searchsorted(targets, R)].T)
    return dict(zip(distinct.tolist(), rows))


def run_joint_chain(
    prop_r: np.ndarray,
    prop_v: np.ndarray,
    uniforms: np.ndarray,
    r0_idx: int,
    v0: int,
    scores: dict[int, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sequential Eq.-17 accept/reject scan (driver side).

    Same zero-δ convention as the single-space chain. Returns
    ``(r_idx_chain, v_chain, accepted)``.
    """
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


def mh_joint(
    spark: SparkSession,
    g: CSRGraph,
    R: list[int],
    T: int,
    *,
    seed: int = 0,
    scores: dict[int, np.ndarray] | None = None,
) -> JointChainResult:
    """Run the joint-space sampler for ``T`` iterations.

    Deterministic in ``seed``. ``scores`` may carry a precomputed
    ``v → δ-vector-over-R`` table (multi-chain coverage runs); missing
    vertices are scored via Spark. Raises ``ValueError`` if ``R`` is empty,
    has duplicates or a non-vertex, ``T < 1`` or ``g`` has fewer than 2
    vertices.
    """
    check_sampler_args(g, R, T)
    k = len(R)
    rng = np.random.default_rng(seed)
    r0_idx = int(rng.integers(0, k))
    v0 = int(rng.integers(0, g.n))
    prop_r = rng.integers(0, k, size=T)
    prop_v = rng.integers(0, g.n, size=T)
    uniforms = rng.random(T)
    needed = np.unique(np.concatenate([[v0], prop_v]))
    scores = dict(scores) if scores else {}
    missing = np.array([v for v in needed if int(v) not in scores], dtype=np.int64)
    if len(missing):
        scores.update(score_vertices_joint(spark, g, missing, R))
    r_idx, v_chain, accepted = run_joint_chain(
        prop_r, prop_v, uniforms, r0_idx, v0, scores
    )
    delta_chain = np.stack([scores[int(v)] for v in v_chain])  # (T+1, k)
    ratio = np.full((k, k), np.nan)
    relative = np.full((k, k), np.nan)
    sizes = np.array([(r_idx == j).sum() for j in range(k)])
    for j in range(k):
        on_j = r_idx == j
        dj = delta_chain[on_j, j]
        for i in range(k):
            if i == j:
                ratio[i, j] = 1.0
                relative[i, j] = 1.0
                continue
            f_ij = min_ratio(delta_chain[on_j, i], dj)
            relative[i, j] = relative_score_estimate(f_ij)
            on_i = r_idx == i
            f_ji = min_ratio(delta_chain[on_i, j], delta_chain[on_i, i])
            ratio[i, j] = eq22_ratio(f_ij, f_ji)
    return JointChainResult(
        R=tuple(int(r) for r in R),
        T=T,
        seed=seed,
        r_idx_chain=r_idx,
        v_chain=v_chain,
        delta_chain=delta_chain,
        accepted=accepted,
        ratio=ratio,
        relative=relative,
        subchain_sizes=sizes,
        n_scored=len(missing),
    )
