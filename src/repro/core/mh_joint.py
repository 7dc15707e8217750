"""§4.3 — the joint-space Metropolis-Hastings sampler over R × V(G).

States are pairs ⟨r, v⟩; proposals draw both components uniformly;
acceptance is ``min{1, δ_v'•(r') / δ_v•(r)}`` (Eq. 17); the stationary
law is Eq. 18. From one realised chain we estimate *all* pairwise
betweenness ratios (Eq. 22) and relative scores simultaneously —
Bennett's acceptance-ratio method in graph clothing.

Distributed structure mirrors :mod:`repro.core.mh_single`: pre-drawn
i.i.d. proposals, each **distinct** proposed ``v`` is scored with one
Brandes pass that yields ``δ_v•(r)`` for every ``r ∈ R`` at once into an
``n × |R|`` δ table, and the shared O(T) scan runs on the driver.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from ..brandes.exact import check_sampler_args, dependency_matrix, score_table
from ..brandes.relative import min_ratio
from ..graphs.csr import CSRGraph
from .estimators import eq22_ratio, relative_score_estimate
from .mh_single import _imh_scan, _last_accepted


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
    spark: SparkSession,
    g: CSRGraph,
    vertices: np.ndarray,
    R: list[int],
    table: np.ndarray,
) -> None:
    """Write ``[δ_v•(r) for r in R]`` into ``table[v]`` for each distinct
    ``v`` in ``vertices`` — one Brandes pass per ``v`` yields every ``r``."""
    dm = dependency_matrix(spark, g, R, sources=np.unique(vertices))
    R = np.asarray(R)
    order = np.argsort(R)
    j = order[np.searchsorted(R[order], dm["r"].to_numpy())]
    table[dm["s"].to_numpy(), j] = dm["delta"].to_numpy()


def run_joint_chain(
    prop_r: np.ndarray,
    prop_v: np.ndarray,
    uniforms: np.ndarray,
    r0_idx: int,
    v0: int,
    table: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sequential Eq.-17 accept/reject scan (driver side), the single-space
    chain's scan over the dense ``n × |R|`` table ``table[v, j] = δ_v•(R[j])``.
    Returns ``(r_idx_chain, v_chain, accepted)``."""
    k = table.shape[1]
    cells = np.r_[int(v0) * k + int(r0_idx), prop_v * k + prop_r]
    d = table.ravel()[cells]
    accepted = _imh_scan(d[1:], uniforms, d[0])
    v, r_idx = np.divmod(cells[_last_accepted(accepted)], k)
    return r_idx, v, accepted


def mh_joint(
    spark: SparkSession,
    g: CSRGraph,
    R: list[int],
    T: int,
    *,
    seed: int = 0,
    scores: np.ndarray | dict[int, np.ndarray] | None = None,
) -> JointChainResult:
    """Run the joint-space sampler for ``T`` iterations.

    Deterministic in ``seed``. ``scores`` may carry a precomputed δ table
    (multi-chain coverage runs): an ``n × |R|`` array with NaN rows for
    unscored vertices, or a dict ``v → δ-vector over R``. It is copied,
    never written; missing vertices are scored by ``dependency_matrix``.
    Raises ``ValueError`` if ``R`` is empty, has duplicates or a
    non-vertex, ``T < 1`` or ``g`` has fewer than 2 vertices.
    """
    check_sampler_args(g, R, T)
    k = len(R)
    rng = np.random.default_rng(seed)
    r0_idx = int(rng.integers(0, k))
    v0 = int(rng.integers(0, g.n))
    prop_r = rng.integers(0, k, size=T)
    prop_v = rng.integers(0, g.n, size=T)
    uniforms = rng.random(T)
    table = score_table(scores, g.n, k)
    needed = np.unique(np.r_[v0, prop_v])
    missing = needed[np.isnan(table[needed]).any(axis=1)]
    if len(missing):
        score_vertices_joint(spark, g, missing, R, table)
    r_idx, v_chain, accepted = run_joint_chain(
        prop_r, prop_v, uniforms, r0_idx, v0, table
    )
    delta_chain = table[v_chain]  # (T+1, k)
    ratio = np.full((k, k), np.nan)
    relative = np.full((k, k), np.nan)
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
        subchain_sizes=np.bincount(r_idx, minlength=k),
        n_scored=len(missing),
    )
