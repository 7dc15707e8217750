"""Deterministic synthetic graph generators.

Dataset substitution (see DESIGN.md): the EDBT camera-ready evaluates on
SNAP networks that cannot be downloaded offline; these seeded families
cover the same structural regimes the paper's theory distinguishes —
scale-free hubs (``barabasi_albert``), homogeneous random graphs
(``erdos_renyi``), explicit balanced vertex separators (``barbell``,
``two_communities``, ``star``) for Theorem 2, and high-``μ(r)``
worst cases (``path`` endpoints, ``ring_of_cliques``).

Every generator returns a validated :class:`~repro.graphs.csr.CSRGraph`
and is deterministic in ``seed``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .csr import CSRGraph, from_edges, is_connected, largest_component


def _edges_df(pairs) -> pd.DataFrame:
    if len(pairs) == 0:
        return pd.DataFrame({"src": [], "dst": []}, dtype="int64")
    a = np.asarray(pairs, dtype=np.int64)
    lo, hi = np.minimum(a[:, 0], a[:, 1]), np.maximum(a[:, 0], a[:, 1])
    return pd.DataFrame({"src": lo, "dst": hi}).drop_duplicates().reset_index(drop=True)


def path_graph(n: int) -> CSRGraph:
    """Path ``0 - 1 - ... - (n-1)``. Endpoint vertices have the largest
    ``μ(r)`` in the suite — the anti-example to Theorem 2."""
    pairs = [(i, i + 1) for i in range(n - 1)]
    return from_edges(n, _edges_df(pairs), name=f"path-{n}")


def cycle_graph(n: int) -> CSRGraph:
    """Cycle on ``n`` vertices — vertex-transitive, all BC equal."""
    pairs = [(i, (i + 1) % n) for i in range(n)]
    return from_edges(n, _edges_df(pairs), name=f"cycle-{n}")


def star_graph(n: int) -> CSRGraph:
    """Star with centre 0 and ``n-1`` leaves — centre is the extreme
    balanced separator (``μ(centre) = 1`` exactly)."""
    pairs = [(0, i) for i in range(1, n)]
    return from_edges(n, _edges_df(pairs), name=f"star-{n}")


def complete_graph(n: int) -> CSRGraph:
    """Complete graph — every BC is 0 (all shortest paths are edges)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return from_edges(n, _edges_df(pairs), name=f"complete-{n}")


def grid_2d(rows: int, cols: int) -> CSRGraph:
    """``rows × cols`` 4-neighbour grid (vertex ``r*cols + c``)."""
    pairs = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                pairs.append((v, v + 1))
            if r + 1 < rows:
                pairs.append((v, v + cols))
    return from_edges(rows * cols, _edges_df(pairs), name=f"grid-{rows}x{cols}")


def barbell(clique_size: int, *, bridge: int = 1) -> CSRGraph:
    """Two ``clique_size``-cliques joined through a path of ``bridge``
    cut vertices. With ``bridge=1`` the middle vertex is the canonical
    *balanced vertex separator* of Theorem 2: removing it leaves two
    components of Θ(n) vertices each, so ``μ(middle)`` is a constant.

    Vertex layout: ``0..k-1`` left clique, ``k..k+bridge-1`` bridge
    (``separator_vertex`` = ``k`` when ``bridge == 1``), rest right clique.
    """
    k = clique_size
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    off = k + bridge
    pairs += [(off + i, off + j) for i in range(k) for j in range(i + 1, k)]
    chain = [k - 1] + [k + b for b in range(bridge)] + [off]
    pairs += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    n = 2 * k + bridge
    return from_edges(n, _edges_df(pairs), name=f"barbell-{k}x2+{bridge}")


def ring_of_cliques(n_cliques: int, clique_size: int) -> CSRGraph:
    """``n_cliques`` cliques of ``clique_size`` arranged in a ring,
    adjacent cliques joined by a single edge between designated ports."""
    pairs = []
    for c in range(n_cliques):
        base = c * clique_size
        pairs += [
            (base + i, base + j)
            for i in range(clique_size)
            for j in range(i + 1, clique_size)
        ]
    for c in range(n_cliques):
        a = c * clique_size + 1 if clique_size > 1 else c * clique_size
        b = ((c + 1) % n_cliques) * clique_size
        pairs.append((a, b))
    n = n_cliques * clique_size
    return from_edges(n, _edges_df(pairs), name=f"roc-{n_cliques}x{clique_size}")


def random_tree(n: int, *, seed: int = 0) -> CSRGraph:
    """Uniform random recursive tree: vertex ``i`` attaches to a uniform
    random earlier vertex. Connected by construction."""
    g = np.random.default_rng(seed)
    parents = [int(g.integers(0, i)) for i in range(1, n)]
    pairs = [(p, i + 1) for i, p in enumerate(parents)]
    return from_edges(n, _edges_df(pairs), name=f"tree-{n}-s{seed}")


def erdos_renyi(n: int, p: float, *, seed: int = 0) -> CSRGraph:
    """G(n, p); the largest connected component is returned (the paper
    assumes connected graphs), so the result may have fewer vertices."""
    g = np.random.default_rng(seed)
    iu = np.triu_indices(n, k=1)
    mask = g.random(len(iu[0])) < p
    pairs = np.stack([iu[0][mask], iu[1][mask]], axis=1)
    graph = from_edges(n, _edges_df(pairs), name=f"er-{n}-p{p}-s{seed}")
    return graph if is_connected(graph) else largest_component(graph)


def barabasi_albert(n: int, m_attach: int, *, seed: int = 0) -> CSRGraph:
    """Barabási–Albert preferential attachment: each new vertex attaches
    to ``m_attach`` distinct existing vertices chosen ∝ degree. Connected
    by construction; produces the scale-free hub structure under which
    the paper's high-centrality vertices have small ``μ(r)``."""
    if m_attach < 1 or n <= m_attach:
        raise ValueError("need n > m_attach >= 1")
    g = np.random.default_rng(seed)
    # Repeated-endpoints list implements preferential attachment in O(1)
    # per draw (each edge endpoint appears once per incident edge).
    pairs = [(i, j) for i in range(m_attach + 1) for j in range(i + 1, m_attach + 1)]
    pool = [v for e in pairs for v in e]
    for v in range(m_attach + 1, n):
        chosen: set[int] = set()
        while len(chosen) < m_attach:
            chosen.add(pool[int(g.integers(0, len(pool)))])
        for t in chosen:
            pairs.append((v, t))
            pool.extend((v, t))
    return from_edges(n, _edges_df(pairs), name=f"ba-{n}-m{m_attach}-s{seed}")


def two_communities(
    community_size: int, *, p_in: float = 0.3, seed: int = 0
) -> CSRGraph:
    """Planted two-community graph: two G(k, p_in) communities whose only
    inter-community connection is a designated hub vertex adjacent to
    every vertex. The hub (vertex ``2*community_size``) is a balanced
    vertex separator — the realistic analogue of the barbell middle."""
    k = community_size
    g = np.random.default_rng(seed)
    pairs = []
    for base in (0, k):
        iu = np.triu_indices(k, k=1)
        mask = g.random(len(iu[0])) < p_in
        pairs += [(int(a) + base, int(b) + base) for a, b in zip(iu[0][mask], iu[1][mask])]
    hub = 2 * k
    pairs += [(hub, v) for v in range(2 * k)]
    return from_edges(2 * k + 1, _edges_df(pairs), name=f"2comm-{k}-s{seed}")


def wheel_graph(n: int) -> CSRGraph:
    """Wheel: cycle on ``n-1`` vertices plus hub 0 adjacent to all."""
    rim = list(range(1, n))
    pairs = [(0, v) for v in rim]
    pairs += [(rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))]
    return from_edges(n, _edges_df(pairs), name=f"wheel-{n}")
