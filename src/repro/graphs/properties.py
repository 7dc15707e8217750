"""Graph-level properties: eccentricity-based diameter bounds from BFS
sweeps of the CSR kernel, used by the dataset table (T1)."""
from __future__ import annotations

import numpy as np

from ..bfs.local import bfs_sigma
from .csr import CSRGraph


def diameter(g: CSRGraph, *, sources: int | None = None, seed: int = 0) -> int:
    """Exact diameter when ``sources`` is None (BFS from every vertex),
    else a lower bound from ``sources`` random BFS sweeps."""
    if sources is None or sources >= g.n:
        src_list = range(g.n)
    else:
        rng = np.random.default_rng(seed)
        src_list = rng.choice(g.n, size=sources, replace=False)
    best = 0
    for s in src_list:
        dist, _ = bfs_sigma(g, int(s))
        ecc = int(dist[dist >= 0].max())
        best = max(best, ecc)
    return best
