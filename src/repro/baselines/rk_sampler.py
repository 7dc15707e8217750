"""Baseline: Riondato–Kornaropoulos shortest-path sampler ([30], §3.2).

Sample ``T`` vertex pairs ``(s, t)`` u.a.r., draw one uniformly random
shortest ``s–t`` path each, and estimate the normalised betweenness
``nbc(r) = BC(r)/(n(n−1))`` as the fraction of sampled paths with ``r``
as an interior vertex. Each pair walks with its own seeded generator, so
the estimate depends only on ``(g, r, T, seed)``. The pairs run as one
Spark job grouped by source: one block BFS per distinct source, and a
walk only for pairs that have ``r`` on some shortest path. The
VC-dimension sample budget lives in
:func:`repro.core.theory.rk_sample_budget`.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from ..bfs.local import bfs_block, bfs_sigma, block_size, walk_back
from ..brandes.exact import check_sampler_args, map_chunks, source_chunks
from ..graphs.csr import CSRGraph
from .uniform_source import BaselineResult


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
    pairs = np.stack([s, t, pair_seed], axis=1)[np.argsort(s, kind="stable")]
    # Each chunk carries every pair of a contiguous run of distinct sources.
    cuts = [c[0] for c in source_chunks(spark, np.unique(s))[1:]]
    chunks = np.split(pairs, np.searchsorted(pairs[:, 0], cuts))
    dist_r, _ = bfs_sigma(g, r)

    def task(graph: CSRGraph, chunk: np.ndarray) -> int:
        """Hits among ``chunk``'s pairs (sorted by source)."""
        sources, first = np.unique(chunk[:, 0], return_index=True)
        first = np.append(first, len(chunk))
        step = block_size(graph)
        hits = 0
        for i in range(0, len(sources), step):
            dist, sigma = bfs_block(graph, sources[i : i + step])
            lo, hi = first[i], first[min(i + step, len(sources))]
            src, dst, seeds = chunk[lo:hi].T
            row = np.searchsorted(sources[i : i + step], src)
            d_st, d_sr = dist[row, dst], dist[row, r]
            # r ∉ {s, t}, t reachable, and r on some shortest s–t path. When
            # t is reachable but r is not, d_sr + dist_r[t] = −2 ≠ d_st.
            on = (src != r) & (dst != r) & (d_st >= 0) & (d_sr + dist_r[dst] == d_st)
            for k in np.flatnonzero(on):
                # The walk meets r at r's level or not at all: stop there.
                walk = walk_back(
                    graph, dist[row[k]], sigma[row[k]], int(dst[k]),
                    np.random.default_rng(int(seeds[k])), stop=int(d_sr[k]),
                )
                hits += walk[-1] == r
        return hits

    nbc = sum(map_chunks(spark, g, chunks, task, "baselines.rk_estimate")) / T
    return BaselineResult(
        r=r,
        T=T,
        seed=seed,
        estimate_bc=nbc * g.n * (g.n - 1),
        estimate_nbc=nbc,
        n_scored=T,
    )
