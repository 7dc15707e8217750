"""§4.2 and §4.3 — the Independence-MH sampler over R × V(G).

States are pairs ⟨r, v⟩; proposals draw both components uniformly;
acceptance is ``min{1, δ_v'•(r') / δ_v•(r)}`` (Eq. 17); the stationary
law is Eq. 18. From one realised chain we estimate *all* pairwise
betweenness ratios (Eq. 22) and relative scores simultaneously —
Bennett's acceptance-ratio method in graph clothing. With |R| = 1 this is
the single-space sampler of §4.2 (Eq. 17 reduces to Eq. 6, Eq. 18 to
Eq. 5), which :mod:`repro.core.mh_single` runs through :func:`mh_joint`.

Distributed execution exploits the *independence* structure: all ``T``
proposals are i.i.d. uniform and can be pre-drawn, so the expensive part
— one O(|E|) Brandes pass per **distinct** proposed ``v``, which yields
``δ_v•(r)`` for every ``r ∈ R`` at once — runs as one batch of Brandes
sweeps (one Spark job over a broadcast CSR, or in-process when the batch
costs less than a job; see :mod:`repro.brandes.exact`) into a dense
``n × |R|`` δ table (NaN = not yet scored), while the inherently
sequential accept/reject scan is O(T) float work in the calling process. For
``T ≥ n`` at most ``n`` passes are computed regardless of chain length.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np
from pyspark.sql import SparkSession

from ..brandes.exact import check_sampler_args, dependency_matrix, score_table
from ..brandes.relative import min_ratio
from ..graphs.csr import CSRGraph
from .estimators import eq22_ratio, relative_score_estimate


@dataclass(frozen=True)
class JointChainResult:
    """Realised joint chain plus all pairwise estimates."""

    R: tuple[int, ...]
    T: int
    seed: int
    r_idx_chain: np.ndarray  # index into R per state (length T+1)
    v_chain: np.ndarray  # v component per state
    delta_chain: np.ndarray  # (T+1, |R|): δ_{v_t}•(r) for every r ∈ R
    accepted: np.ndarray  # bool per iteration
    ratio: np.ndarray  # (k, k): Eq. 22 estimate of BC(R[i])/BC(R[j])
    relative: np.ndarray  # (k, k): B̈C_{R[j]}(R[i]) (Eq. 22 numerator)
    subchain_sizes: np.ndarray  # |S(j)| per j (chain-multiset reading)
    n_scored: int

    @property
    def acceptance_rate(self) -> float:
        """Fraction of iterations that moved."""
        return float(self.accepted.mean()) if len(self.accepted) else 0.0


def score_vertices_joint(
    spark: SparkSession,
    g: CSRGraph,
    vertices: np.ndarray,
    R: list[int],
    table: np.ndarray,
) -> None:
    """Write ``[δ_v•(r) for r in R]`` into ``table[v]`` for each distinct
    ``v`` in ``vertices`` — the scoring phase: one ``dependency_matrix``
    call, one Brandes pass per ``v`` yields every ``r``."""
    dm = dependency_matrix(spark, g, R, sources=np.unique(vertices))
    R = np.asarray(R)
    order = np.argsort(R)
    j = order[np.searchsorted(R[order], dm["r"].to_numpy())]
    table[dm["s"].to_numpy(), j] = dm["delta"].to_numpy()


def score_missing(
    spark: SparkSession,
    g: CSRGraph,
    vertices: np.ndarray,
    R: list[int],
    table: np.ndarray,
) -> int:
    """Score the rows of the ``n × |R|`` δ table ``table`` that are NaN
    among ``vertices`` (an index array), in place, with one
    :func:`score_vertices_joint` call (none if every row is scored).
    Returns how many distinct rows it scored."""
    missing = np.unique(vertices[np.isnan(table).any(axis=1)[vertices]])
    if len(missing):
        score_vertices_joint(spark, g, missing, R, table)
    return len(missing)


_SCAN_CHUNK = 4096  # steps per batch of Python floats: bounds the scan's memory


def _imh_scan(d_prop: np.ndarray, uniforms: np.ndarray, d0: float) -> np.ndarray:
    """The sequential Independence-MH accept/reject scan (Eqs. 6 and 17): the
    accept flag of each step, given each proposal's δ and the start state's
    ``d0``. Step ``t`` moves when ``u_t < δ_prop/δ_cur``, the same decision as
    ``u_t < min{1, δ_prop/δ_cur}`` for ``u_t ∈ [0, 1)``; from a δ = 0 state
    every proposal is accepted (zero-δ convention). The loop runs over Python
    floats, several times cheaper per step than NumPy scalars.
    """
    accepted = np.empty(len(d_prop), dtype=bool)
    dcur = float(d0)
    for lo in range(0, len(d_prop), _SCAN_CHUNK):
        flags: list[bool] = []
        append = flags.append
        hi = lo + _SCAN_CHUNK
        for d, u in zip(d_prop[lo:hi].tolist(), uniforms[lo:hi].tolist()):
            if dcur == 0.0 or u < d / dcur:
                dcur = d
                append(True)
            else:
                append(False)
        accepted[lo:hi] = flags
    return accepted


def run_joint_chain(
    prop_r: np.ndarray,
    prop_v: np.ndarray,
    uniforms: np.ndarray,
    r0_idx: int,
    v0: int,
    table: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact sequential Eq.-17 accept/reject scan (in-process) over the
    dense ``n × |R|`` table ``table[v, j] = δ_v•(R[j])``. Returns
    ``(r_idx_chain, v_chain, accepted)``."""
    accepted = _imh_scan(table[prop_v, prop_r], uniforms, table[v0, r0_idx])
    # per state, the last proposal accepted so far, −1 before the first move
    at = np.arange(-1, len(prop_v))
    at[1:][~accepted] = -1
    np.maximum.accumulate(at, out=at)
    v, r_idx = prop_v[at], prop_r[at]
    start = np.searchsorted(at, 0)  # the states that still hold the start
    v[:start], r_idx[:start] = v0, r0_idx
    return r_idx, v, accepted


def mh_joint(
    spark: SparkSession,
    g: CSRGraph,
    R: list[int],
    T: int,
    *,
    seed: int = 0,
    scores: np.ndarray | dict[int, np.ndarray] | None = None,
) -> JointChainResult:
    """Run the joint-space sampler for ``T`` iterations.

    Deterministic in ``seed`` (proposals, initial state and acceptance
    coin flips all come from one PCG64 stream; with |R| = 1 the r-draws
    consume none of it). ``scores`` may carry a precomputed δ table
    (multi-chain coverage runs): an ``n × |R|`` array with NaN rows for
    unscored vertices, or a dict ``v → δ-vector over R``. It is copied,
    never written; missing vertices are scored by ``dependency_matrix``.
    Raises ``ValueError`` if ``R`` is empty, has duplicates or a
    non-vertex, ``T < 1`` or ``g`` has fewer than 2 vertices.
    """
    check_sampler_args(g, R, T)
    k = len(R)
    rng = np.random.default_rng(seed)
    r0_idx = int(rng.integers(0, k))
    v0 = int(rng.integers(0, g.n))
    prop_r = rng.integers(0, k, size=T)
    prop_v = rng.integers(0, g.n, size=T)
    uniforms = rng.random(T)
    table = score_table(scores, g.n, k)
    n_scored = score_missing(spark, g, np.r_[v0, prop_v], R, table)
    r_idx, v_chain, accepted = run_joint_chain(
        prop_r, prop_v, uniforms, r0_idx, v0, table
    )
    delta_chain = table.take(v_chain, axis=0)  # (T+1, k)
    # the rows of each sub-chain S(j); with |R| = 1 there is no pair to estimate
    sub = [delta_chain[r_idx == j] for j in range(k)] if k > 1 else []
    ratio, relative = np.ones((k, k)), np.ones((k, k))
    for i, j in permutations(range(k), 2):
        f_ij = min_ratio(sub[j][:, i], sub[j][:, j])
        relative[i, j] = relative_score_estimate(f_ij)
        ratio[i, j] = eq22_ratio(f_ij, min_ratio(sub[i][:, j], sub[i][:, i]))
    return JointChainResult(
        R=tuple(int(r) for r in R),
        T=T,
        seed=seed,
        r_idx_chain=r_idx,
        v_chain=v_chain,
        delta_chain=delta_chain,
        accepted=accepted,
        ratio=ratio,
        relative=relative,
        subchain_sizes=np.bincount(r_idx, minlength=k),
        n_scored=n_scored,
    )
