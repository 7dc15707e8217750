"""Baseline: Riondato–Kornaropoulos shortest-path sampler ([30], §3.2).

Sample ``T`` vertex pairs ``(s, t)`` u.a.r., draw one uniformly random
shortest ``s–t`` path each, and estimate the normalised betweenness
``nbc(r) = BC(r)/(n(n−1))`` as the fraction of sampled paths with ``r``
as an interior vertex. Each pair walks with its own seeded generator, so
the estimate depends only on ``(g, r, T, seed)``. A pair can hit only if
``d(s,r) + d(r,t) = d(s,t)``. One driver BFS from ``r`` and
:data:`LANDMARKS` landmarks bounds ``d(s,t) ≤ d(s,l) + d(l,t)`` (the ALT
bound of Goldberg & Harrelson, SODA 2005), and :func:`prune` drops every
pair that this bound, or an endpoint, puts off ``r``: such a pair has no
shortest path through ``r`` and would score no hit. The surviving pairs,
sorted by source, are a fold over the exact layer's sweep driver
:func:`~repro.brandes.exact.map_blocks` (one Spark job, or in-process when
their sweeps are small): one :func:`~repro.bfs.local.bfs_block` row per
distinct source, and a walk only for pairs that have ``r`` on some
shortest path. The VC-dimension sample budget lives in
:func:`repro.core.theory.rk_sample_budget`.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from ..bfs.local import bfs_block, walk_back
from ..brandes.exact import check_sampler_args, map_blocks
from ..graphs.csr import CSRGraph
from .uniform_source import BaselineResult

# Landmarks of the pruning BFS. On BA-2000 at the top-BC r with T = 2000
# (median over 16 seeds; one core of a 4-vCPU x86-64 host), 8 / 16 / 24 /
# 32 landmarks left 674 / 582 / 549 / 523 of 1 262 drawn sources to sweep,
# for 2.4 / 4.0 / 5.9 / 7.6 ms of pruning; 16 is the most that stays within a
# 5 ms budget for the driver, and fewer leave more sources to sweep.
LANDMARKS = 16
# Sources per sweep of that BFS. On the same graph, 6 at a time peaked at
# 1.7 MB of allocations against 3.8 MB for all 17 at once (tracemalloc), and
# pruned in 4.2 against 5.3 ms (interleaved, median of 41).
LANDMARK_BLOCK = 6


def landmarks(g: CSRGraph, r: int) -> np.ndarray:
    """The :data:`LANDMARKS` highest-degree vertices other than ``r``, ties
    to the lower id."""
    order = np.argsort(-np.diff(g.indptr), kind="stable")
    return order[order != r][:LANDMARKS]


def prune(
    g: CSRGraph, r: int, s: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(keep, dist_r)``: ``keep[i]`` is false when pair ``(s[i], t[i])``
    cannot have a shortest path through ``r``, and ``dist_r`` is ``d(r, ·)``.

    A pair is dropped when ``r ∈ {s, t}``, when ``r`` is unreachable from
    ``s`` or ``t``, or when some landmark ``l`` reachable from both has
    ``d(s,l) + d(l,t) < d(s,r) + d(r,t)``. The distances come from
    unchecked :func:`bfs_block` sweeps, so an overflowed σ raises nothing.
    """
    src = np.r_[r, landmarks(g, r)]
    dist = np.concatenate([
        bfs_block(g, src[i : i + LANDMARK_BLOCK], check=False)[0]
        for i in range(0, len(src), LANDMARK_BLOCK)
    ])
    d_r, d_s, d_t = dist[0], dist[1:, s], dist[1:, t]
    # 2n exceeds every d(s,r) + d(r,t): a landmark off either end bounds nothing.
    via_l = np.where((d_s >= 0) & (d_t >= 0), d_s + d_t, 2 * g.n)
    via_r = d_r[s] + d_r[t]
    keep = (s != r) & (t != r) & (d_r[s] >= 0) & (d_r[t] >= 0)
    return keep & (via_l.min(axis=0, initial=2 * g.n) >= via_r), d_r


def rk_estimate(
    spark: SparkSession,
    g: CSRGraph,
    r: int,
    T: int,
    *,
    seed: int = 0,
) -> BaselineResult:
    """Estimate ``nbc(r)`` from ``T`` random shortest paths.

    Raises ``ValueError`` if ``r`` is not a vertex of ``g``, ``T < 1`` or
    ``g`` has fewer than 2 vertices.
    """
    check_sampler_args(g, [r], T)
    r = int(r)
    rng = np.random.default_rng(seed)
    # Distinct endpoints per pair, as RK requires.
    s = rng.integers(0, g.n, size=T)
    t = (s + 1 + rng.integers(0, g.n - 1, size=T)) % g.n
    pair_seed = rng.integers(0, 2**62, size=T)
    keep, dist_r = prune(g, r, s, t)
    pairs = np.stack([s, t, pair_seed], axis=1)[keep]
    src, dst, seeds = pairs[np.argsort(pairs[:, 0], kind="stable")].T

    def fold(graph: CSRGraph, blocks) -> int:
        """Hits among the pairs whose sources are the ``blocks``' sources."""
        hits = 0
        for block, (dist, sigma) in blocks:
            lo, hi = np.searchsorted(src, [block[0], block[-1] + 1])
            row, to = np.searchsorted(block, src[lo:hi]), dst[lo:hi]
            d_st, d_sr = dist[row, to], dist[row, r]
            # prune kept only pairs with r ∉ {s, t} and r reachable from both.
            on = d_sr + dist_r[to] == d_st
            for k in np.flatnonzero(on):
                # The walk meets r at r's level or not at all: stop there.
                walk = walk_back(
                    graph, dist[row[k]], sigma[row[k]], int(to[k]),
                    np.random.default_rng(int(seeds[lo + k])), stop=int(d_sr[k]),
                )
                hits += walk[-1] == r
        return hits

    sources = np.unique(src)
    nbc = sum(map_blocks(spark, g, sources, fold, "baselines.rk_estimate", bfs_block)) / T
    return BaselineResult(
        r=r,
        T=T,
        seed=seed,
        estimate_bc=nbc * g.n * (g.n - 1),
        estimate_nbc=nbc,
        n_scored=T,
    )
