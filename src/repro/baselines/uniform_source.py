"""Baseline: uniform source sampling (Bader et al. [2] style).

Draw sources ``s ~ U(V \\ {r})`` i.i.d.; ``(n−1)·δ_s•(r)`` is an unbiased
estimator of ``BC(r)``. The per-sample work (one Brandes pass per
distinct source) runs through the MH sampler's own scoring phase
(:func:`repro.core.mh_joint.score_missing`), so time-per-sample
comparisons against the MH sampler are apples-to-apples.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from ..brandes.exact import check_sampler_args, score_table
from ..core.mh_joint import score_missing
from ..graphs.csr import CSRGraph


@dataclass(frozen=True)
class BaselineResult:
    """A baseline run: raw-scale and normalised estimates of BC(r)."""

    r: int
    T: int
    seed: int
    estimate_bc: float  # estimate of BC(r) (ordered-pair scale)
    estimate_nbc: float  # estimate of BC(r)/(n(n−1))
    n_scored: int


def uniform_source_estimate(
    spark: SparkSession,
    g: CSRGraph,
    r: int,
    T: int,
    *,
    seed: int = 0,
    scores: np.ndarray | dict[int, float] | None = None,
) -> BaselineResult:
    """Estimate ``BC(r)`` from ``T`` uniform source samples.

    Raises ``ValueError`` if ``r`` is not a vertex of ``g``, ``T < 1`` or
    ``g`` has fewer than 2 vertices.
    """
    check_sampler_args(g, [r], T)
    rng = np.random.default_rng(seed)
    pool = np.setdiff1d(np.arange(g.n), [r])
    samples = pool[rng.integers(0, len(pool), size=T)]
    col = score_table(scores, g.n)
    n_scored = score_missing(spark, g, samples, [r], col[:, None])
    est = float((g.n - 1) * col[samples].mean())
    return BaselineResult(
        r=int(r),
        T=T,
        seed=seed,
        estimate_bc=est,
        estimate_nbc=est / (g.n * (g.n - 1)),
        n_scored=n_scored,
    )
