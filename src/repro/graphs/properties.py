"""Graph-level properties: eccentricity-based diameter bounds from BFS
sweeps of the CSR kernel, used by the dataset table (T1)."""
from __future__ import annotations

import numpy as np

from ..bfs.local import bfs_block
from .csr import CSRGraph


def diameter(g: CSRGraph, *, sources: int | None = None, seed: int = 0) -> int:
    """Exact diameter when ``sources`` is None (BFS from every vertex),
    else a lower bound from ``sources`` random BFS sweeps."""
    if sources is None or sources >= g.n:
        src = np.arange(g.n)
    else:
        src = np.random.default_rng(seed).choice(g.n, size=sources, replace=False)
    dist, _ = bfs_block(g, src, check=False)
    return int(dist.max(initial=0))
