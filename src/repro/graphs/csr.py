"""Immutable CSR adjacency for undirected simple graphs.

The CSR (``indptr``/``indices`` int32 arrays) is the in-memory graph
representation every O(|E|) kernel in :mod:`repro.bfs` runs on. It is
small enough to broadcast to Spark executors (two NumPy arrays), which is
how all per-sample work in the samplers and baselines is distributed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd


@dataclass(frozen=True)
class CSRGraph:
    """Compressed-sparse-row adjacency of an undirected simple graph.

    ``indices[indptr[v]:indptr[v+1]]`` are the (sorted) neighbours of
    vertex ``v``. Vertices are ``0..n-1``. Both directions of every
    undirected edge are stored, so ``len(indices) == 2*m``.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    name: str = field(default="graph", compare=False)

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    def degrees(self) -> np.ndarray:
        """Degree of every vertex, as an int64 array of length ``n``."""
        return np.diff(self.indptr).astype(np.int64)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour array of vertex ``v`` (a CSR slice, no copy)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_pandas(self) -> pd.DataFrame:
        """Canonical undirected edge list (``src < dst``), one row per edge."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        dst = self.indices.astype(np.int64)
        keep = src < dst
        return (
            pd.DataFrame({"src": src[keep], "dst": dst[keep]})
            .sort_values(["src", "dst"])
            .reset_index(drop=True)
        )


def from_edges(n: int, edges: pd.DataFrame, *, name: str = "graph") -> CSRGraph:
    """Build a validated :class:`CSRGraph` from a canonical edge list.

    ``edges`` must have integer columns ``src``/``dst`` with values in
    ``[0, n)``. Self-loops and duplicate (undirected) edges are rejected —
    the paper assumes simple loop-free graphs (§2).
    """
    src = np.asarray(edges["src"], dtype=np.int64)
    dst = np.asarray(edges["dst"], dtype=np.int64)
    if len(src) and (src.min() < 0 or dst.min() < 0 or max(src.max(), dst.max()) >= n):
        raise ValueError(f"edge endpoints out of range [0, {n})")
    if np.any(src == dst):
        raise ValueError("self-loops are not allowed")
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    canon = lo * np.int64(n) + hi
    if len(np.unique(canon)) != len(canon):
        raise ValueError("duplicate (multi-)edges are not allowed")
    both_src = np.concatenate([src, dst])
    both_dst = np.concatenate([dst, src])
    order = np.lexsort((both_dst, both_src))
    both_src, both_dst = both_src[order], both_dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, both_src + 1, 1)
    indptr = np.cumsum(indptr)
    return CSRGraph(
        n=n,
        indptr=indptr.astype(np.int64),
        indices=both_dst.astype(np.int32),
        name=name,
    )


def _component_labels(g: CSRGraph) -> np.ndarray:
    """Connected-component label of every vertex, by BFS.

    Components are numbered ``0, 1, …`` in order of their lowest vertex,
    so vertex 0 is always in component 0.
    """
    label = np.full(g.n, -1, dtype=np.int64)
    comp = 0
    for s in range(g.n):
        if label[s] >= 0:
            continue
        label[s] = comp
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in g.neighbors(v):
                    if label[w] < 0:
                        label[w] = comp
                        nxt.append(int(w))
            frontier = nxt
        comp += 1
    return label


def is_connected(g: CSRGraph) -> bool:
    """True iff ``g`` is connected (every vertex in vertex 0's component)."""
    return not _component_labels(g).any()


def largest_component(g: CSRGraph) -> CSRGraph:
    """The induced subgraph on the largest connected component of ``g``.

    Vertices are relabelled ``0..n'-1`` preserving relative order. Used by
    random-graph generators that may produce disconnected samples — the
    paper assumes connected graphs (§2).
    """
    label = _component_labels(g)
    sizes = np.bincount(label)
    keep = label == int(np.argmax(sizes))
    remap = np.cumsum(keep) - 1
    e = g.edge_pandas()
    # Both ends of an edge share a component, so testing one end suffices.
    e = e[keep[e["src"].to_numpy()]]
    out = pd.DataFrame(
        {"src": remap[e["src"].to_numpy()], "dst": remap[e["dst"].to_numpy()]}
    )
    return from_edges(int(keep.sum()), out, name=g.name)
