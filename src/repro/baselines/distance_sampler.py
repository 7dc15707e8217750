"""Baseline: Chehreghani's distance-proportional sampler ([13], §3.2).

Sources are drawn with ``P[s] = d(r,s) / Σ_u d(r,u)`` (one BFS from ``r``
gives all distances), and ``δ_s•(r)/P[s]`` is the unbiased importance
estimator of ``BC(r)``. This is the sampler whose *optimal* limit
(``P[s] ∝ δ_s•(r)``, Eq. 5) the paper's MH chain targets — the natural
head-to-head comparison in Table 5.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from ..bfs.local import bfs_sigma
from ..brandes.exact import check_sampler_args, score_table
from ..core.mh_single import score_vertices
from ..graphs.csr import CSRGraph
from .uniform_source import BaselineResult


def distance_distribution(g: CSRGraph, r: int) -> np.ndarray:
    """``P[s] ∝ d(r, s)`` over all vertices (0 at ``r`` itself).

    Raises ``ValueError`` if ``r`` is not a vertex of ``g``.
    """
    if not 0 <= r < g.n:
        raise ValueError(f"target {r} out of range [0, {g.n})")
    dist, _ = bfs_sigma(g, r)
    w = dist.astype(np.float64)
    w[w < 0] = 0.0  # unreachable — excluded (connected graphs: none)
    tot = w.sum()
    if tot == 0:
        raise ValueError("degenerate graph: all distances zero")
    return w / tot


def distance_sampler_estimate(
    spark: SparkSession,
    g: CSRGraph,
    r: int,
    T: int,
    *,
    seed: int = 0,
    scores: np.ndarray | dict[int, float] | None = None,
) -> BaselineResult:
    """Estimate ``BC(r)`` from ``T`` distance-proportional samples.

    Raises ``ValueError`` if ``r`` is not a vertex of ``g``, ``T < 1`` or
    ``g`` has fewer than 2 vertices.
    """
    check_sampler_args(g, [r], T)
    rng = np.random.default_rng(seed)
    p = distance_distribution(g, r)
    samples = rng.choice(g.n, size=T, p=p)
    col = score_table(scores, g.n)
    missing = np.unique(samples[np.isnan(col[samples])])
    if len(missing):
        score_vertices(spark, g, missing, r, col)
    est = float((col[samples] / p[samples]).mean())
    return BaselineResult(
        r=int(r),
        T=T,
        seed=seed,
        estimate_bc=est,
        estimate_nbc=est / (g.n * (g.n - 1)),
        n_scored=len(missing),
    )
