"""Experiment execution for the evaluation tables (see DESIGN.md).

The accuracy experiments exploit a structural fact: one Brandes pass from
a source ``v`` yields ``δ_v•(r)`` for every target ``r`` at once (the
joint-space trick of §4.3), so one sweep of all sources gives the dense
``n × |R|`` table of every probe of a graph (:func:`exact_table`: a Spark
job of n Brandes passes, or the driver for a small graph). Every chain,
baseline rerun and exact target of a probe is then derived from its column
without re-touching the graph, so multi-chain coverage runs cost O(T)
floats per chain, not O(T·m). Runtime experiments (Table 7) deliberately
do **not** use this shortcut: they measure the real distributed scoring
path.
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import SparkSession

from ..baselines.distance_sampler import distance_sampler_estimate
from ..baselines.rk_sampler import rk_estimate
from ..baselines.uniform_source import uniform_source_estimate
from ..brandes.exact import betweenness_vector, normalized_bc
from ..brandes.relative import (
    mu_r,
    relative_bc_chain,
    relative_bc_eq23,
    single_space_limit,
)
from ..core.mh_joint import mh_joint, score_vertices_joint
from ..core.mh_single import mh_single
from ..core.theory import sample_budget, theorem1_tail
from ..graphs.csr import CSRGraph
from ..graphs.properties import diameter

Probes = list[tuple[int, str]]  # a graph's probe vertices with their roles


def exact_table(spark: SparkSession, g: CSRGraph, R: list[int]) -> np.ndarray:
    """``table[v, j] = δ_v•(R[j])`` for every vertex ``v``: the ground truth
    of all of a graph's probes from one sweep of all sources (one
    ``dependency_matrix`` call). Column ``j`` is bit-identical to
    ``exact_table(spark, g, [R[j]])[:, 0]``. Raises ``ValueError`` if ``R``
    is empty, has duplicates or a non-vertex."""
    if len(set(R)) != len(R):
        raise ValueError(f"R has duplicate vertices: {list(R)}")
    table = np.empty((g.n, len(R)))
    score_vertices_joint(spark, g, np.arange(g.n), list(R), table)
    return table


def _columns(spark: SparkSession, g: CSRGraph, probes: Probes) -> np.ndarray:
    """The dense dependency column of each probe, one row each. The rows are
    contiguous copies, so sums over a column add in the same order as over
    a single-target table."""
    return exact_table(spark, g, [r for r, _ in probes]).T.copy()


def dataset_row(spark: SparkSession, g: CSRGraph, *, diam_sources: int = 32) -> dict:
    """One Table-1 row: sizes, diameter bound, exact-BC cost and spread."""
    t0 = time.perf_counter()
    bc = betweenness_vector(spark, g)
    exact_secs = time.perf_counter() - t0
    return {
        "graph": g.name,
        "n": g.n,
        "m": g.m,
        "diameter>=": diameter(g, sources=min(diam_sources, g.n)),
        "max_degree": int(g.degrees().max()),
        "max_nbc": normalized_bc(float(bc.max()), g.n),
        "exact_bc_secs": round(exact_secs, 3),
    }


def mu_rows(spark: SparkSession, g: CSRGraph, probes: Probes) -> list[dict]:
    """Table-2 rows, one per probe: ``μ(r)`` and the quantities Theorem 2
    speaks to."""
    rows = []
    for (r, role), col in zip(probes, _columns(spark, g, probes)):
        mu = mu_r(col)
        rows.append(
            {
                "graph": g.name,
                "n": g.n,
                "m": g.m,
                "r": int(r),
                "role": role,
                "mu": round(mu, 4),
                "nbc": round(normalized_bc(float(col.sum()), g.n), 6),
                "eq14_T(eps=.05,delta=.1)": sample_budget(0.05, 0.1, mu)
                if np.isfinite(mu)
                else -1,
            }
        )
    return rows


def single_accuracy_rows(
    spark: SparkSession,
    g: CSRGraph,
    probes: Probes,
    Ts: list[int],
    *,
    n_chains: int = 20,
    seed0: int = 100,
) -> list[dict]:
    """Table-3 rows: single-space estimates vs both exact targets.

    For each probe and each ``T``: mean estimate, mean |err| against
    ``nbc(r)`` and against the ergodic limit ``E_π[f]``, and the
    multiplicative bias ``mean(est)/nbc`` which Theorem 1's envelope bounds
    by ``μ(r)``.
    """
    rows = []
    for (r, role), col in zip(probes, _columns(spark, g, probes)):
        nbc = normalized_bc(float(col.sum()), g.n)
        limit = single_space_limit(col, g.n)
        mu = mu_r(col)
        for T in Ts:
            ests, accs = [], []
            for c in range(n_chains):
                res = mh_single(spark, g, r, T, seed=seed0 + c, scores=col)
                ests.append(res.estimate)
                accs.append(res.acceptance_rate)
            ests = np.array(ests)
            rows.append(
                {
                    "graph": g.name,
                    "r": int(r),
                    "role": role,
                    "mu": round(mu, 3),
                    "T": T,
                    "nbc_exact": round(nbc, 6),
                    "E_pi_f": round(limit, 6),
                    "mean_est": round(float(ests.mean()), 6),
                    "mae_vs_nbc": round(float(np.abs(ests - nbc).mean()), 6),
                    "mae_vs_limit": round(float(np.abs(ests - limit).mean()), 6),
                    "bias_factor": round(float(ests.mean()) / nbc, 4)
                    if nbc > 0
                    else float("nan"),
                    "acc_rate": round(float(np.mean(accs)), 3),
                }
            )
    return rows


def coverage_row(
    spark: SparkSession,
    g: CSRGraph,
    r: int,
    role: str,
    *,
    epsilon: float = 0.05,
    delta: float = 0.1,
    n_chains: int = 50,
    seed0: int = 500,
) -> dict:
    """One Table-4 row: run ``T`` from Eq. 14 and measure the empirical
    failure rate ``P[|B̈C − target| > ε]`` against both targets."""
    col = exact_table(spark, g, [r])[:, 0]
    mu = mu_r(col)
    T = sample_budget(epsilon, delta, mu)
    nbc = normalized_bc(float(col.sum()), g.n)
    limit = single_space_limit(col, g.n)
    ests = np.array(
        [
            mh_single(spark, g, r, T, seed=seed0 + c, scores=col).estimate
            for c in range(n_chains)
        ]
    )
    return {
        "graph": g.name,
        "r": int(r),
        "role": role,
        "mu": round(mu, 3),
        "eq14_T": T,
        "bound_eq12": round(theorem1_tail(T, epsilon, mu), 4),
        "fail_rate_vs_nbc": float((np.abs(ests - nbc) > epsilon).mean()),
        "fail_rate_vs_limit": float((np.abs(ests - limit) > epsilon).mean()),
        "delta": delta,
        "epsilon": epsilon,
        "n_chains": n_chains,
    }


def baseline_rows(
    spark: SparkSession,
    g: CSRGraph,
    probes: Probes,
    T: int,
    *,
    n_reps: int = 10,
    seed0: int = 900,
) -> list[dict]:
    """Table-5 rows: per probe, each method's mean relative error of
    ``nbc(r)`` at an equal per-run sample budget ``T`` (one dependency pass
    ≙ one sample; one RK path ≙ one sample)."""
    out = []
    for (r, role), col in zip(probes, _columns(spark, g, probes)):
        nbc = normalized_bc(float(col.sum()), g.n)
        methods = {
            "mh (this paper)": lambda s: mh_single(
                spark, g, r, T, seed=s, scores=col
            ).estimate,
            "uniform-source [2]": lambda s: uniform_source_estimate(
                spark, g, r, T, seed=s, scores=col
            ).estimate_nbc,
            "distance [13]": lambda s: distance_sampler_estimate(
                spark, g, r, T, seed=s, scores=col
            ).estimate_nbc,
            "rk paths [30]": lambda s: rk_estimate(spark, g, r, T, seed=s).estimate_nbc,
        }
        for name, fn in methods.items():
            e = np.array(
                [
                    abs(fn(seed0 + i) - nbc) / nbc if nbc > 0 else np.nan
                    for i in range(n_reps)
                ]
            )
            out.append(
                {
                    "graph": g.name,
                    "r": int(r),
                    "role": role,
                    "T": T,
                    "method": name,
                    "nbc_exact": round(nbc, 6),
                    "mean_rel_err": round(float(np.nanmean(e)), 4),
                    "max_rel_err": round(float(np.nanmax(e)), 4),
                }
            )
    return out


def joint_rows(
    spark: SparkSession,
    g: CSRGraph,
    R: list[int],
    Ts: list[int],
    *,
    n_chains: int = 10,
    seed0: int = 1500,
) -> list[dict]:
    """Table-6 rows: Eq.-22 ratio error vs the exact BC ratio, and the
    relative-score estimate vs both exact targets, per ordered pair."""
    table = exact_table(spark, g, R)
    cols = {int(r): c for r, c in zip(R, np.ascontiguousarray(table.T))}
    bc = {r: float(c.sum()) for r, c in cols.items()}
    rows = []
    for T in Ts:
        runs = [
            mh_joint(spark, g, list(R), T, seed=seed0 + c, scores=table)
            for c in range(n_chains)
        ]
        for i, ri in enumerate(R):
            for j, rj in enumerate(R):
                if i == j or bc[int(rj)] == 0 or bc[int(ri)] == 0:
                    continue
                exact_ratio = bc[int(ri)] / bc[int(rj)]
                exact_star = relative_bc_chain(cols[int(ri)], cols[int(rj)])
                exact_23 = relative_bc_eq23(cols[int(ri)], cols[int(rj)])
                ratios = np.array([run.ratio[i, j] for run in runs])
                rels = np.array([run.relative[i, j] for run in runs])
                rows.append(
                    {
                        "graph": g.name,
                        "T": T,
                        "ri": int(ri),
                        "rj": int(rj),
                        "exact_ratio": round(exact_ratio, 4),
                        "est_ratio": round(float(np.nanmean(ratios)), 4),
                        "ratio_rel_err": round(
                            float(np.nanmean(np.abs(ratios - exact_ratio)))
                            / exact_ratio,
                            4,
                        ),
                        "exact_rel_star": round(exact_star, 4),
                        "est_rel": round(float(np.nanmean(rels)), 4),
                        "rel_err_vs_star": round(
                            float(np.nanmean(np.abs(rels - exact_star))), 4
                        ),
                        "exact_eq23": round(exact_23, 4),
                    }
                )
    return rows


def runtime_row(
    spark: SparkSession, g: CSRGraph, T: int, *, seed: int = 7
) -> dict:
    """One Table-7 row: real distributed sampling vs exact Brandes."""
    t0 = time.perf_counter()
    bc = betweenness_vector(spark, g)
    exact_secs = time.perf_counter() - t0
    r = int(np.argmax(bc))
    t0 = time.perf_counter()
    res = mh_single(spark, g, r, T, seed=seed)  # real scoring path
    mh_secs = time.perf_counter() - t0
    return {
        "graph": g.name,
        "n": g.n,
        "m": g.m,
        "T": T,
        "distinct_scored": res.n_scored,
        "mh_secs": round(mh_secs, 3),
        "exact_secs": round(exact_secs, 3),
        "speedup": round(exact_secs / mh_secs, 2) if mh_secs > 0 else float("inf"),
        "samples_per_sec": round(res.n_scored / mh_secs, 1) if mh_secs > 0 else 0.0,
    }
