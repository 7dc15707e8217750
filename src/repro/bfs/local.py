"""NumPy CSR kernels: BFS, shortest-path counts, Brandes dependencies.

These are the O(|E|) per-sample units of work every sampler in the paper
is priced in ("worst case time complexity of processing each sample is
O(|E(G)|)", §4.2). They run inside Spark tasks against a broadcast
:class:`~repro.graphs.csr.CSRGraph`, and on the driver for small graphs.

All kernels are vectorised level-synchronous sweeps — no per-edge Python
loops — so a 100k-edge graph costs ~1 ms per source.
:func:`dependency_block` sweeps many sources at once, so each per-level
NumPy call serves the whole block; :func:`dependency_vector` is its
single-source oracle. :func:`bfs_block` is the forward half of the same
sweep, with :func:`bfs_sigma` as its oracle. The block sweep is
direction-optimizing: a level scans either its frontier's arcs
(top-down) or the unseen vertices' arcs (bottom-up, on the large middle
levels of low-diameter graphs), whichever is fewer; the oracles always
scan top-down, and the rows are bit-identical either way.
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
    _check_finite(source, sigma, delta)
    return delta


def block_size(g: CSRGraph) -> int:
    """Sources per :func:`dependency_block` or :func:`bfs_block` sweep:
    ``max(1, 2**20 // (n + 2m))``."""
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


def bfs_block(g: CSRGraph, sources) -> tuple[np.ndarray, np.ndarray]:
    """``(dist, sigma)`` of every ``s`` in ``sources``: two ``(len(sources), n)`` arrays.

    Row ``i`` is bit-identical to ``bfs_sigma(g, sources[i])``. Sources are
    swept :func:`block_size` at a time by the forward half of the
    :func:`dependency_block` sweep. Raises ``FloatingPointError`` naming the
    source when σ overflows float64.
    """
    src = np.asarray(sources, dtype=np.int64)
    dist = np.full((len(src), g.n), -1, dtype=np.int32)
    sigma = np.empty((len(src), g.n))
    step = block_size(g)
    for i in range(0, len(src), step):
        block = src[i : i + step]
        flat, dag = _forward(g, block)
        d = dist[i : i + step].reshape(-1)
        for level, (frontier, _, _) in enumerate(dag):
            d[frontier] = level
        sigma[i : i + step] = flat.reshape(len(block), g.n)
        _check_finite(block, sigma[i : i + step])
    return dist, sigma


def _forward(g: CSRGraph, src: np.ndarray) -> tuple[np.ndarray, list]:
    """Forward half of a block sweep: flat ``B·n`` σ and the recorded DAG.

    Each level takes whichever step scans fewer arcs (Beamer, Asanović &
    Patterson, SC 2012): :func:`_top_down` scans the frontier's arcs,
    :func:`_bottom_up` the arcs of the still-unseen vertices. The unseen
    vertices' arcs are counted down from ``B·2m`` by each frontier's arcs,
    so the choice costs no extra gather; bottom-up also pays an O(B·n)
    scan for the unseen vertices, hence the ``B·n // 4`` margin. Either
    step sums each child's σ over its parents in ascending order, as
    :func:`bfs_sigma` does, so σ is bit-identical whichever step runs.
    ``dag[d]`` is ``(frontier, tail, head)`` of level ``d``: the flat ids
    ``b·n + v`` at distance ``d`` (sorted), and each arc into level
    ``d + 1`` as an index into ``frontier`` and a flat head id. Arcs into
    one head come in ascending tail order, and arcs out of one tail in
    ascending head order, from either step.
    """
    n = g.n
    size = len(src) * n
    seen = np.zeros(size, dtype=bool)
    sigma = np.zeros(size)
    frontier = np.arange(len(src), dtype=np.int64) * n + src
    seen[frontier] = True
    sigma[frontier] = 1.0
    left = len(src) * len(g.indices)  # arcs out of vertices never in a frontier
    slot = None  # frontier index of each flat id, −1 if never on a frontier
    dag = []
    while frontier.size:
        v = frontier % n
        starts = g.indptr[v]
        counts = g.indptr[v + 1] - starts
        arcs = int(counts.sum())
        left -= arcs
        if arcs > left + size // 4:
            if slot is None:
                slot = np.full(size, -1, dtype=np.int32 if size < 2**31 else np.int64)
            tail, head, nxt, inv = _bottom_up(g, frontier, seen, slot)
        else:
            tail, head, nxt, inv = _top_down(g, frontier, v, starts, counts, seen)
        sigma[nxt] = np.bincount(inv, weights=sigma[frontier[tail]])
        seen[nxt] = True
        dag.append((frontier, tail, head))
        frontier = nxt
    return sigma, dag


def _top_down(
    g: CSRGraph, frontier: np.ndarray, v: np.ndarray, starts: np.ndarray,
    counts: np.ndarray, seen: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """One level from the frontier's arcs (``v``, ``starts``, ``counts``:
    its vertices and their CSR slices): ``(tail, head, next, inv)``, where
    arcs ``tail → head`` lead to unseen heads, ``next`` is the sorted
    distinct heads and ``inv`` each arc's index into ``next``."""
    tail = np.repeat(np.arange(len(frontier)), counts)
    head = np.repeat(frontier - v, counts) + g.indices[_ranges(starts, counts)]
    new = ~seen[head]
    tail, head = tail[new], head[new]
    nxt, inv = np.unique(head, return_inverse=True)
    return tail, head, nxt, inv


def _bottom_up(
    g: CSRGraph, frontier: np.ndarray, seen: np.ndarray, slot: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The same level as :func:`_top_down`, from the arcs of the unseen
    vertices: each arc whose other end is on the frontier, found through
    ``slot``, a ``B·n`` array that holds −1 except at earlier frontiers. A
    vertex is reached when it has a frontier parent. Arcs come grouped by
    head."""
    n = g.n
    u = np.flatnonzero(~seen)
    w = u % n
    starts = g.indptr[w]
    counts = g.indptr[w + 1] - starts
    # Earlier frontiers keep their stale indices: no unseen vertex is
    # adjacent to one, or it would have been reached already.
    slot[frontier] = np.arange(len(frontier))
    tail = slot[np.repeat(u - w, counts) + g.indices[_ranges(starts, counts)]]
    hit = tail >= 0
    tail, head = tail[hit], np.repeat(u, counts)[hit]
    first = np.empty(len(head), dtype=bool)
    first[:1] = True
    np.not_equal(head[1:], head[:-1], out=first[1:])
    return tail, head, head[first], np.cumsum(first) - 1


def _sweep(g: CSRGraph, src: np.ndarray) -> np.ndarray:
    """One level-synchronous Brandes sweep of the block ``src`` (see
    :func:`dependency_block`).

    The reverse sweep replays the DAG arcs the forward pass recorded,
    summing δ with ``np.bincount``, instead of gathering neighbours again.
    """
    sigma, dag = _forward(g, src)
    delta = np.zeros(len(sigma))
    # Arcs out of the sources are skipped: δ_s•(s) = 0 by convention.
    for parents, tail, head in reversed(dag[1:]):
        share = (sigma[parents[tail]] / sigma[head]) * (1.0 + delta[head])
        delta[parents] = np.bincount(tail, weights=share, minlength=len(parents))
    delta = delta.reshape(len(src), g.n)
    _check_finite(src, sigma.reshape(len(src), g.n), delta)
    return delta


def _check_finite(src, *rows: np.ndarray) -> None:
    """Raise if row ``i`` of any of ``rows`` (σ, δ) is not finite: σ overflowed
    float64 on the sweep from source ``src[i]``."""
    bad = ~np.logical_and.reduce([np.isfinite(a).all(axis=-1) for a in rows])
    if bad.any():
        raise FloatingPointError(
            f"non-finite σ or δ from source {int(np.atleast_1d(src)[np.argmax(bad)])}: "
            "shortest-path counts overflow float64"
        )


def pair_dependency(g: CSRGraph, s: int, t: int, r: int) -> float:
    """``δ_st(r) = σ_st(r)/σ_st`` with the endpoint convention
    ``δ_st(r)=0`` for ``r ∈ {s, t}`` and 0 when ``t`` unreachable."""
    if r == s or r == t or s == t:
        return 0.0
    dist, sigma = bfs_sigma(g, s)
    if dist[t] < 0 or sigma[t] == 0 or dist[r] < 0:
        return 0.0
    # r and t share s's component, so dist_r[t] is finite.
    dist_r, sigma_r = bfs_sigma(g, r)
    if dist[r] + dist_r[t] != dist[t]:
        return 0.0
    return float(sigma[r] * sigma_r[t] / sigma[t])


def random_shortest_path(
    g: CSRGraph, s: int, t: int, rng: np.random.Generator
) -> list[int] | None:
    """A uniformly random shortest ``s–t`` path (RK sampler primitive).

    Returns None if ``t`` is unreachable or ``s == t``, and raises
    ``FloatingPointError`` naming ``s`` when σ from ``s`` overflows float64.
    """
    if s == t:
        return None
    dist, sigma = bfs_sigma(g, s)
    _check_finite(s, sigma)
    if dist[t] < 0:
        return None
    return walk_back(g, dist, sigma, t, rng)[::-1]


def walk_back(
    g: CSRGraph,
    dist: np.ndarray,
    sigma: np.ndarray,
    t: int,
    rng: np.random.Generator,
    *,
    stop: int = 0,
) -> list[int]:
    """``t``, then one predecessor per level down to distance ``stop``.

    ``dist``, ``sigma`` are one source's :func:`bfs_sigma` row. Each
    predecessor ``p`` of the current vertex is chosen with probability
    ``σ_sp / Σ_p' σ_sp'``, which makes every shortest path into ``t``
    equally likely; with ``stop = 0`` the walk is a whole path, reversed.
    """
    path = [t]
    while dist[path[-1]] > stop:
        cur = path[-1]
        nbrs = g.neighbors(cur)
        preds = nbrs[dist[nbrs] == dist[cur] - 1]
        path.append(int(_weighted_pick(preds, sigma[preds], rng)))
    return path


def _weighted_pick(a: np.ndarray, w: np.ndarray, rng: np.random.Generator):
    """``rng.choice(a, p=w / w.sum())``, by the same arithmetic and the same
    one draw from ``rng``, without ``choice``'s argument checks."""
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return a[cdf.searchsorted(rng.random(), side="right")]
