"""Pure-Python ground truth: Brandes, brute force, closed forms.

Three independent ways to compute betweenness, used to validate the CSR
kernel and the Spark jobs:

* :func:`brandes_betweenness` — textbook Brandes with explicit
  predecessor lists (no NumPy vectorisation tricks);
* :func:`brute_force_betweenness` — enumerate *all* shortest paths per
  pair by DFS over the SPD (exponential; graphs up to ~40 vertices);
* closed forms for star / path / cycle / complete / barbell graphs.

Convention: ordered source-target pairs (Eq. 1 sums over ordered
``s, t``), endpoints excluded. On undirected graphs this is twice the
"undirected-pair" value some texts report.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from ..graphs.csr import CSRGraph


def brandes_sssp(g: CSRGraph, s: int):
    """Forward phase of Brandes from ``s``.

    Returns ``(order, preds, sigma, dist)``: vertices in non-decreasing
    distance order, predecessor lists, path counts, distances.
    """
    n = g.n
    dist = [-1] * n
    sigma = [0.0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    dist[s] = 0
    sigma[s] = 1.0
    order: list[int] = []
    q = deque([s])
    while q:
        v = q.popleft()
        order.append(v)
        for w in g.neighbors(v):
            w = int(w)
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                q.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] += sigma[v]
                preds[w].append(v)
    return order, preds, sigma, dist


def brandes_dependency(g: CSRGraph, s: int) -> np.ndarray:
    """``δ_s•(v)`` for all ``v`` — textbook accumulation (Eq. 4)."""
    order, preds, sigma, _ = brandes_sssp(g, s)
    delta = [0.0] * g.n
    for w in reversed(order):
        for p in preds[w]:
            delta[p] += (sigma[p] / sigma[w]) * (1.0 + delta[w])
    delta[s] = 0.0
    return np.array(delta)


def brandes_betweenness(g: CSRGraph) -> np.ndarray:
    """Exact ``BC(v)`` for all ``v`` (ordered-pair convention)."""
    bc = np.zeros(g.n)
    for s in range(g.n):
        bc += brandes_dependency(g, s)
    return bc


def all_shortest_paths(g: CSRGraph, s: int, t: int) -> list[list[int]]:
    """Every shortest ``s–t`` path, by DFS over the SPD (small graphs)."""
    _, preds, _, dist = brandes_sssp(g, s)
    if s == t or dist[t] < 0:
        return []
    out: list[list[int]] = []

    def walk(v: int, acc: list[int]) -> None:
        if v == s:
            out.append([s] + acc[::-1])
            return
        for p in preds[v]:
            walk(p, acc + [v])

    walk(t, [])
    return out


def brute_force_betweenness(g: CSRGraph) -> np.ndarray:
    """``BC`` by explicit path enumeration — O(exponential), tiny graphs."""
    bc = np.zeros(g.n)
    for s in range(g.n):
        for t in range(g.n):
            if s == t:
                continue
            paths = all_shortest_paths(g, s, t)
            if not paths:
                continue
            for p in paths:
                for v in p[1:-1]:
                    bc[v] += 1.0 / len(paths)
    return bc


def closed_form(name: str, n: int) -> np.ndarray:
    """Closed-form ordered-pair betweenness for named families.

    ``star``: centre ``(n−1)(n−2)``, leaves 0. ``complete``: all 0.
    ``path``: vertex ``i`` has ``2·i·(n−1−i)``. ``cycle`` (odd ``n``):
    every vertex ``(n−1)(n−3)/4`` (12 on cycle-9), computed from the pair
    count: each ordered pair at distance ``d`` has a unique shortest path
    crossing ``d−1`` interior vertices (odd cycles have unique geodesics).
    """
    if name == "star":
        bc = np.zeros(n)
        bc[0] = (n - 1) * (n - 2)
        return bc
    if name == "complete":
        return np.zeros(n)
    if name == "path":
        return np.array([2.0 * i * (n - 1 - i) for i in range(n)])
    if name == "cycle":
        if n % 2 == 0:
            raise ValueError("closed form implemented for odd cycles only")
        # Odd cycle: unique geodesics; by symmetry each vertex carries the
        # same load: total interior crossings / n. Ordered pairs at
        # distance d (1 ≤ d ≤ (n−1)/2): n per d each way → interior d−1.
        total = sum(2 * n * (d - 1) for d in range(1, (n - 1) // 2 + 1))
        return np.full(n, total / n)
    raise ValueError(f"no closed form for {name}")


def barbell_center_bc(clique_size: int) -> float:
    """Ordered-pair ``BC`` of the middle vertex of ``barbell(k, bridge=1)``.

    Every (ordered) pair with one endpoint in each clique routes through
    the centre: ``2·k²``. No other shortest path visits it.
    """
    return 2.0 * clique_size * clique_size
