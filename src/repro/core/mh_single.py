"""§4.2 — the single-space Metropolis-Hastings sampler for BC(r).

Independence MH on the state space V(G): uniform proposals, acceptance
``min{1, δ_v'•(r)/δ_v•(r)}`` (Eq. 6), stationary law ``P_r[·]`` (Eq. 5).
This is the joint-space sampler of :mod:`repro.core.mh_joint` on R = [r]
(Eq. 17 reduces to Eq. 6, Eq. 18 to Eq. 5), so :func:`mh_single` runs
:func:`~repro.core.mh_joint.mh_joint` on ``[r]`` and reads the Eq.-7
estimates off its chain; :func:`score_vertices` and :func:`run_chain` are
the |R| = 1 forms of the joint scoring and scan over a dense δ column.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

# dependency_matrix is not called here; perfbench/spans.py looks it up here
from ..brandes.exact import dependency_matrix, score_table  # noqa: F401
from ..graphs.csr import CSRGraph
from .estimators import eq7_accepted_only, eq7_estimate
from .mh_joint import mh_joint, run_joint_chain, score_vertices_joint


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
    spark: SparkSession, g: CSRGraph, vertices: np.ndarray, r: int, col: np.ndarray
) -> None:
    """Write ``δ_v•(r)`` into ``col[v]`` for each distinct ``v`` in
    ``vertices``: :func:`~repro.core.mh_joint.score_vertices_joint` on ``[r]``."""
    score_vertices_joint(spark, g, vertices, [r], col[:, None])


def run_chain(
    proposals: np.ndarray, uniforms: np.ndarray, v0: int, col: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The accept/reject scan over the dense column ``col[v] = δ_v•(r)``:
    :func:`~repro.core.mh_joint.run_joint_chain` on one target. Returns
    ``(states, delta_chain, accepted)``."""
    _, states, accepted = run_joint_chain(
        np.zeros_like(proposals), proposals, uniforms, 0, v0, col[:, None]
    )
    return states, col[states], accepted


def mh_single(
    spark: SparkSession,
    g: CSRGraph,
    r: int,
    T: int,
    *,
    seed: int = 0,
    scores: np.ndarray | dict[int, float] | None = None,
) -> SingleChainResult:
    """Run the single-space sampler for ``T`` iterations.

    Deterministic in ``seed``: the chain of ``mh_joint`` on ``[r]``, whose
    r-draws take no bits of the PCG64 stream. ``scores`` may carry a
    precomputed δ column (e.g. when running many chains on one graph —
    Table 4 coverage runs): an ``n``-vector with NaN for unscored
    vertices, or a dict ``{v: δ}``. It is copied, never written; any
    missing vertex is scored by ``dependency_matrix``. Raises
    ``ValueError`` if ``r`` is not a vertex of ``g``, ``T < 1`` or ``g``
    has fewer than 2 vertices.
    """
    col = score_table(scores, g.n)
    res = mh_joint(spark, g, [r], T, seed=seed, scores=col[:, None])
    delta_chain = res.delta_chain[:, 0]
    return SingleChainResult(
        r=int(r),
        T=T,
        seed=seed,
        states=res.v_chain,
        delta_chain=delta_chain,
        accepted=res.accepted,
        estimate=eq7_estimate(delta_chain, g.n),
        estimate_accepted_only=eq7_accepted_only(delta_chain, res.accepted, g.n),
        n_scored=res.n_scored,
    )
