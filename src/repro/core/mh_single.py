"""§4.2 — the single-space Metropolis-Hastings sampler for BC(r).

Independence MH on the state space V(G): uniform proposals, acceptance
``min{1, δ_v'•(r)/δ_v•(r)}`` (Eq. 6), stationary law ``P_r[·]`` (Eq. 5).

Distributed execution exploits the *independence* structure: all ``T``
proposals are i.i.d. uniform and can be pre-drawn, so the expensive part
— one O(|E|) Brandes pass per **distinct** proposed vertex — fans out as
a Spark job (batched Brandes sweeps over a broadcast CSR, or the
pure-DataFrame BFS kernel in ``dataframe`` mode), while the inherently
sequential accept/reject scan is O(T) float work on the driver. For
``T ≥ n`` at most ``n`` passes are computed regardless of chain length.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from ..bfs.dataframe_dependency import dependency_scores
from ..brandes.exact import check_sampler_args, dependency_matrix
from ..graphs.csr import CSRGraph
from ..graphs.spark_io import edges_spark, symmetric_edges
from .estimators import eq7_accepted_only, eq7_estimate


@dataclass(frozen=True)
class SingleChainResult:
    """Realised chain of the single-space sampler plus its estimates."""

    r: int
    T: int
    seed: int
    states: np.ndarray  # chain states v_0..v_T (length T+1)
    delta_chain: np.ndarray  # δ_{v_t}•(r) per state
    accepted: np.ndarray  # bool per iteration 1..T
    estimate: float  # Eq. 7, chain-multiset reading (ergodic average)
    estimate_accepted_only: float  # Eq. 7, literal accepted-set reading
    n_scored: int  # distinct vertices scored (Spark tasks' work)

    @property
    def acceptance_rate(self) -> float:
        """Fraction of iterations that moved."""
        return float(self.accepted.mean()) if len(self.accepted) else 0.0


def score_vertices(
    spark: SparkSession,
    g: CSRGraph,
    vertices: np.ndarray,
    r: int,
    *,
    kernel: str = "csr",
) -> dict[int, float]:
    """``δ_v•(r)`` for each distinct ``v`` — the Spark phase.

    ``kernel='csr'`` distributes NumPy Brandes passes over a broadcast
    CSR; ``kernel='dataframe'`` runs the level-synchronous DataFrame
    BFS + reverse sweep per vertex (the faithful pure-dataflow path,
    for small graphs / validation).
    """
    distinct = np.unique(vertices)
    if kernel == "csr":
        dm = dependency_matrix(spark, g, [r], sources=distinct)
        return dict(zip(dm["s"].astype(int), dm["delta"].astype(float)))
    if kernel == "dataframe":
        sym = symmetric_edges(edges_spark(spark, g)).localCheckpoint(eager=True)
        out: dict[int, float] = {}
        for v in distinct:
            dd = dependency_scores(spark, sym, int(v)).where(f"id = {int(r)}")
            rows = dd.collect()
            out[int(v)] = float(rows[0]["delta"]) if rows else 0.0
        return out
    raise ValueError(f"unknown kernel {kernel!r}")


def run_chain(
    proposals: np.ndarray,
    uniforms: np.ndarray,
    v0: int,
    scores: dict[int, float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact sequential accept/reject scan (driver side).

    Zero-δ convention: a proposal with δ=0 is rejected unless the current
    state also has δ=0 (pre-support phase), in which case it is accepted —
    zero-density states are transient and never re-entered.

    Returns ``(states, delta_chain, accepted)``.
    """
    T = len(proposals)
    states = np.empty(T + 1, dtype=np.int64)
    delta_chain = np.empty(T + 1, dtype=np.float64)
    accepted = np.zeros(T, dtype=bool)
    cur, dcur = int(v0), scores[int(v0)]
    states[0], delta_chain[0] = cur, dcur
    for t in range(T):
        prop = int(proposals[t])
        dprop = scores[prop]
        if dcur == 0.0:
            move = True
        else:
            move = uniforms[t] < min(1.0, dprop / dcur)
        if move:
            cur, dcur = prop, dprop
            accepted[t] = True
        states[t + 1], delta_chain[t + 1] = cur, dcur
    return states, delta_chain, accepted


def mh_single(
    spark: SparkSession,
    g: CSRGraph,
    r: int,
    T: int,
    *,
    seed: int = 0,
    kernel: str = "csr",
    scores: dict[int, float] | None = None,
) -> SingleChainResult:
    """Run the single-space sampler for ``T`` iterations.

    Deterministic in ``seed`` (proposals, initial state and acceptance
    coin flips all come from one PCG64 stream). ``scores`` may carry a
    precomputed δ table (e.g. when running many chains on one graph —
    Table 4 coverage runs) — any missing vertex is scored via Spark.
    Raises ``ValueError`` if ``r`` is not a vertex of ``g``, ``T < 1`` or
    ``g`` has fewer than 2 vertices.
    """
    check_sampler_args(g, [r], T)
    rng = np.random.default_rng(seed)
    v0 = int(rng.integers(0, g.n))
    proposals = rng.integers(0, g.n, size=T)
    uniforms = rng.random(T)
    needed = np.unique(np.concatenate([[v0], proposals]))
    scores = dict(scores) if scores else {}
    missing = np.array([v for v in needed if int(v) not in scores], dtype=np.int64)
    if len(missing):
        scores.update(score_vertices(spark, g, missing, r, kernel=kernel))
    states, delta_chain, accepted = run_chain(proposals, uniforms, v0, scores)
    return SingleChainResult(
        r=int(r),
        T=T,
        seed=seed,
        states=states,
        delta_chain=delta_chain,
        accepted=accepted,
        estimate=eq7_estimate(delta_chain, g.n),
        estimate_accepted_only=eq7_accepted_only(delta_chain, accepted, g.n),
        n_scored=len(missing),
    )
