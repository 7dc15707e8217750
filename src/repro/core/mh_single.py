"""§4.2 — the single-space Metropolis-Hastings sampler for BC(r).

Independence MH on the state space V(G): uniform proposals, acceptance
``min{1, δ_v'•(r)/δ_v•(r)}`` (Eq. 6), stationary law ``P_r[·]`` (Eq. 5).

Distributed execution exploits the *independence* structure: all ``T``
proposals are i.i.d. uniform and can be pre-drawn, so the expensive part
— one O(|E|) Brandes pass per **distinct** proposed vertex — runs as one
batch of Brandes sweeps (one Spark job over a broadcast CSR, or the driver
when the batch costs less than a job; see :mod:`repro.brandes.exact`),
while the inherently sequential accept/reject scan is O(T) float work on
the driver. For ``T ≥ n`` at most ``n`` passes are computed regardless of
chain length.

Scores live in a dense δ table (NaN = not yet scored). Both samplers run
the same scan, :func:`_imh_scan`; the joint-space one is this with |R| > 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from ..brandes.exact import check_sampler_args, dependency_matrix, score_table
from ..graphs.csr import CSRGraph
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
    spark: SparkSession, g: CSRGraph, vertices: np.ndarray, r: int, col: np.ndarray
) -> None:
    """Write ``δ_v•(r)`` into ``col[v]`` for each distinct ``v`` in
    ``vertices`` — the scoring phase: one ``dependency_matrix`` call, one
    Brandes pass per vertex."""
    dm = dependency_matrix(spark, g, [r], sources=np.unique(vertices))
    col[dm["s"].to_numpy()] = dm["delta"].to_numpy()


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


def _last_accepted(accepted: np.ndarray) -> np.ndarray:
    """Per state, the index of the candidate it holds: candidate 0 is the
    start state, candidate ``t + 1`` is proposal ``t``."""
    at = np.arange(len(accepted) + 1)
    at[1:][~accepted] = 0
    return np.maximum.accumulate(at, out=at)


def run_chain(
    proposals: np.ndarray, uniforms: np.ndarray, v0: int, col: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact sequential accept/reject scan (driver side) over the dense
    column ``col[v] = δ_v•(r)``. Returns ``(states, delta_chain, accepted)``."""
    cand = np.r_[int(v0), proposals]
    d = col[cand]
    accepted = _imh_scan(d[1:], uniforms, d[0])
    at = _last_accepted(accepted)
    return cand[at], d[at], accepted


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

    Deterministic in ``seed`` (proposals, initial state and acceptance
    coin flips all come from one PCG64 stream). ``scores`` may carry a
    precomputed δ column (e.g. when running many chains on one graph —
    Table 4 coverage runs): an ``n``-vector with NaN for unscored
    vertices, or a dict ``{v: δ}``. It is copied, never written; any
    missing vertex is scored by ``dependency_matrix``. Raises
    ``ValueError`` if ``r`` is not a vertex of ``g``, ``T < 1`` or ``g``
    has fewer than 2 vertices.
    """
    check_sampler_args(g, [r], T)
    rng = np.random.default_rng(seed)
    v0 = int(rng.integers(0, g.n))
    proposals = rng.integers(0, g.n, size=T)
    uniforms = rng.random(T)
    col = score_table(scores, g.n)
    needed = np.unique(np.r_[v0, proposals])
    missing = needed[np.isnan(col[needed])]
    if len(missing):
        score_vertices(spark, g, missing, r, col)
    states, delta_chain, accepted = run_chain(proposals, uniforms, v0, col)
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
