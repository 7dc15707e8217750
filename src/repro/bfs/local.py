"""NumPy CSR kernels: BFS, shortest-path counts, Brandes dependencies.

These are the O(|E|) per-sample units of work every sampler in the paper
is priced in ("worst case time complexity of processing each sample is
O(|E(G)|)", §4.2). They run inside Spark tasks against a broadcast
:class:`~repro.graphs.csr.CSRGraph`, and on the driver for small graphs.

All kernels are vectorised level-synchronous sweeps — no per-edge Python
loops — so a 100k-edge graph costs ~1 ms per source.
:func:`dependency_block` sweeps many sources at once, so each per-level
NumPy call serves the whole block; :func:`dependency_vector` is its
single-source oracle.
"""
from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph


def bfs_sigma(g: CSRGraph, source: int) -> tuple[np.ndarray, np.ndarray]:
    """Distances and shortest-path counts from ``source``.

    Returns ``(dist, sigma)``: ``dist[v]`` is the hop distance (−1 if
    unreachable), ``sigma[v]`` the number of shortest ``source→v`` paths
    (float64 — counts explode combinatorially on dense graphs).
    """
    n = g.n
    dist = np.full(n, -1, dtype=np.int32)
    sigma = np.zeros(n, dtype=np.float64)
    dist[source] = 0
    sigma[source] = 1.0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        # All CSR slices of the frontier, flattened.
        starts, ends = g.indptr[frontier], g.indptr[frontier + 1]
        counts = ends - starts
        flat = np.repeat(frontier, counts)
        nbrs = g.indices[_ranges(starts, counts)]
        new_mask = dist[nbrs] == -1
        tree_mask = new_mask | (dist[nbrs] == level + 1)
        contrib_src, contrib_dst = flat[tree_mask], nbrs[tree_mask]
        np.add.at(sigma, contrib_dst, sigma[contrib_src])
        newly = np.unique(nbrs[new_mask])
        dist[newly] = level + 1
        frontier = newly.astype(np.int64)
        level += 1
    return dist, sigma


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[i], starts[i]+counts[i])`` without a loop.

    Zero-count entries are dropped first (they'd otherwise collide on the
    same jump index), matching ``np.repeat(x, counts)`` semantics.
    """
    nz = counts > 0
    starts, counts = starts[nz], counts[nz]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    ends = np.cumsum(counts)
    out[0] = starts[0]
    out[ends[:-1]] = starts[1:] - starts[:-1] - counts[:-1] + 1
    return np.cumsum(out)


def dependency_vector(g: CSRGraph, source: int) -> np.ndarray:
    """Brandes dependency ``δ_source•(v)`` for every vertex ``v``.

    One BFS plus the reverse level sweep of Eq. 4 — the paper's core
    O(|E|) primitive. ``δ_source•(source) = 0`` by convention.
    """
    dist, sigma = bfs_sigma(g, source)
    delta = np.zeros(g.n, dtype=np.float64)
    if not (dist >= 0).any():
        return delta
    order = np.argsort(dist, kind="stable")
    reach = order[dist[order] >= 0]
    # Process levels deepest-first; within a level, vertices are
    # independent so the per-level edge scatter can be vectorised.
    max_d = int(dist[reach].max())
    by_level = [reach[dist[reach] == d] for d in range(max_d, 0, -1)]
    for verts in by_level:
        if verts.size == 0:
            continue
        starts, ends = g.indptr[verts], g.indptr[verts + 1]
        counts = ends - starts
        flat = np.repeat(verts, counts)
        nbrs = g.indices[_ranges(starts, counts)]
        # Parents of w are neighbours one level closer to the source.
        parent_mask = dist[nbrs] == dist[flat] - 1
        w, p = flat[parent_mask], nbrs[parent_mask]
        share = (sigma[p] / sigma[w]) * (1.0 + delta[w])
        np.add.at(delta, p, share)
    delta[source] = 0.0
    _check_finite(sigma, delta, np.array([source]))
    return delta


def block_size(g: CSRGraph) -> int:
    """Sources per :func:`dependency_block` sweep: ``max(1, 2**20 // (n + 2m))``."""
    return max(1, 2**20 // (g.n + len(g.indices)))


def dependency_block(g: CSRGraph, sources) -> np.ndarray:
    """``δ_s•(·)`` for every ``s`` in ``sources``: a ``(len(sources), n)`` array.

    Row ``i`` is bit-identical to ``dependency_vector(g, sources[i])``:
    every σ and δ entry sums the same terms in the same order. Sources are
    swept :func:`block_size` at a time. One sweep holds visited flags, ``σ``
    and ``δ`` as flat ``B·n`` arrays (entry ``b·n + v``) plus the recorded
    shortest-path DAG of at most ``B·m`` arcs, so with
    ``B = max(1, 2**20 // (n + 2m))`` its working set stays near 2^20
    elements whatever the graph.
    """
    src = np.asarray(sources, dtype=np.int64)
    out = np.empty((len(src), g.n))
    step = block_size(g)
    for i in range(0, len(src), step):
        out[i : i + step] = _sweep(g, src[i : i + step])
    return out


def _sweep(g: CSRGraph, src: np.ndarray) -> np.ndarray:
    """One level-synchronous Brandes sweep of the block ``src`` (see above).

    Each level touches only its frontier's arcs: ``np.unique`` dedupes the
    next frontier and ``np.bincount`` over compact indices sums σ forward
    and δ backward, so no level costs O(B·n). The reverse sweep replays the
    DAG arcs the forward pass recorded instead of gathering neighbours again.
    """
    n = g.n
    seen = np.zeros(len(src) * n, dtype=bool)
    sigma = np.zeros(len(src) * n)
    delta = np.zeros(len(src) * n)
    frontier = np.arange(len(src), dtype=np.int64) * n + src
    seen[frontier] = True
    sigma[frontier] = 1.0
    dag = []  # per level: (frontier, arc → frontier index, arc head)
    while frontier.size:
        v = frontier % n
        starts = g.indptr[v]
        counts = g.indptr[v + 1] - starts
        tail = np.repeat(np.arange(len(frontier)), counts)
        head = np.repeat(frontier - v, counts) + g.indices[_ranges(starts, counts)]
        new = ~seen[head]
        tail, head = tail[new], head[new]
        nxt, inv = np.unique(head, return_inverse=True)
        sigma[nxt] = np.bincount(inv, weights=sigma[frontier[tail]])
        seen[nxt] = True
        dag.append((frontier, tail, head))
        frontier = nxt
    # Arcs out of the sources are skipped: δ_s•(s) = 0 by convention.
    for parents, tail, head in reversed(dag[1:]):
        share = (sigma[parents[tail]] / sigma[head]) * (1.0 + delta[head])
        delta[parents] = np.bincount(tail, weights=share, minlength=len(parents))
    delta = delta.reshape(len(src), n)
    _check_finite(sigma.reshape(len(src), n), delta, src)
    return delta


def _check_finite(sigma: np.ndarray, delta: np.ndarray, src: np.ndarray) -> None:
    """Raise if a row of σ or δ is not finite: σ overflowed float64."""
    bad = ~(np.isfinite(sigma).all(axis=-1) & np.isfinite(delta).all(axis=-1))
    if bad.any():
        raise FloatingPointError(
            f"non-finite dependency from source {int(src[np.argmax(bad)])}: "
            "shortest-path counts overflow float64"
        )


def dependency_on(g: CSRGraph, source: int, targets: np.ndarray) -> np.ndarray:
    """``δ_source•(r)`` for each ``r`` in ``targets`` (one Brandes pass).

    Key to the joint-space sampler: the dependency of one source on *all*
    of ``R`` comes from a single O(|E|) computation.
    """
    return dependency_vector(g, source)[np.asarray(targets, dtype=np.int64)]


def pair_dependency(g: CSRGraph, s: int, t: int, r: int) -> float:
    """``δ_st(r) = σ_st(r)/σ_st`` with the endpoint convention
    ``δ_st(r)=0`` for ``r ∈ {s, t}`` and 0 when ``t`` unreachable."""
    if r == s or r == t or s == t:
        return 0.0
    dist, sigma = bfs_sigma(g, s)
    if dist[t] < 0 or sigma[t] == 0:
        return 0.0
    if dist[r] < 0 or dist[r] + _dist_from(g, r, t) != dist[t]:
        return 0.0
    sigma_rt = bfs_sigma(g, r)[1][t]
    return float(sigma[r] * sigma_rt / sigma[t])


def _dist_from(g: CSRGraph, a: int, b: int) -> int:
    d, _ = bfs_sigma(g, a)
    return int(d[b]) if d[b] >= 0 else 1 << 30


def random_shortest_path(
    g: CSRGraph, s: int, t: int, rng: np.random.Generator
) -> list[int] | None:
    """A uniformly random shortest ``s–t`` path (RK sampler primitive).

    Walk backwards from ``t`` choosing each predecessor ``p`` with
    probability ``σ_sp / Σ_p' σ_sp'`` — this makes every shortest path
    equally likely. Returns None if ``t`` is unreachable or ``s == t``.
    """
    if s == t:
        return None
    dist, sigma = bfs_sigma(g, s)
    if dist[t] < 0:
        return None
    path = [t]
    cur = t
    while cur != s:
        nbrs = g.neighbors(cur)
        preds = nbrs[dist[nbrs] == dist[cur] - 1]
        w = sigma[preds]
        cur = int(rng.choice(preds, p=w / w.sum()))
        path.append(cur)
    path.reverse()
    return path
