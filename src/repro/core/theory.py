"""The paper's analytical bounds (Eqs. 9, 12, 14, 25, 27).

Pure functions of (T, ε, δ, μ): the MCMC-Hoeffding tail of [23]
specialised as in Theorems 1 and 4, and the resulting sample budgets.
Used by Table 4 / Table 6 to pick ``T`` exactly the way the paper
prescribes and then measure empirical coverage.
"""
from __future__ import annotations

import math


def mcmc_hoeffding_tail(n_samples: int, epsilon: float, lam: float) -> float:
    """RHS of Ineq. 9 with ``‖f‖_sp = 1``: the probability bound on
    ``|θ̂ − θ| > ε`` for a uniformly ergodic chain with minorisation
    constant ``lam`` (= 1/μ in the paper's instantiation).

    The bound is vacuous (returns 1.0 capped) until ``n`` exceeds
    ``3/(2·lam·ε) + 1`` — the point where the ``−3/(n−1)`` slack term is
    paid off.
    """
    if n_samples < 2:
        return 1.0
    inner = 2.0 * lam * epsilon - 3.0 / (n_samples - 1)
    if inner <= 0:
        return 1.0
    return min(1.0, 2.0 * math.exp(-((n_samples - 1) / 2.0) * inner * inner))


def theorem1_tail(T: int, epsilon: float, mu: float) -> float:
    """RHS of Ineq. 12: tail bound for the single-space sampler after
    ``T`` iterations — Ineq. 9 at chain length ``n = T+1``, ``λ = 1/μ``."""
    return mcmc_hoeffding_tail(T + 1, epsilon, 1.0 / mu)


def sample_budget(epsilon: float, delta: float, mu: float) -> int:
    """Eq. 14 / Eq. 27: ``T ≥ μ²/(2ε²)·ln(2/δ)`` — the number of
    iterations (resp. sub-chain samples) guaranteeing an
    (ε, δ)-approximation. Constant in |V| whenever μ is. ``ValueError``
    for a non-finite μ (``mu_r`` is ∞ for a vertex with BC = 0)."""
    if not (0 < delta < 1) or epsilon <= 0 or not (0 < mu < math.inf):
        raise ValueError("need epsilon > 0, 0 < delta < 1, 0 < mu < inf")
    return int(math.ceil(mu * mu / (2.0 * epsilon * epsilon) * math.log(2.0 / delta)))


def bias_envelope(nbc: float, mu: float) -> tuple[float, float]:
    """The provable range of the single-space ergodic limit ``E_π[f]``:
    ``[nbc, μ·nbc]`` (Cauchy-Schwarz lower, Ineq. 11 upper; DESIGN.md)."""
    return nbc, mu * nbc


def rk_sample_budget(epsilon: float, delta: float, vertex_diameter: int) -> int:
    """Riondato–Kornaropoulos VC budget (baseline comparator):
    ``(c/ε²)(⌊log₂(VD−2)⌋ + 1 + ln(1/δ))`` with the universal ``c = 0.5``.
    """
    vd = max(vertex_diameter, 3)
    return int(
        math.ceil(
            (0.5 / (epsilon * epsilon))
            * (math.floor(math.log2(vd - 2)) + 1 + math.log(1.0 / delta))
        )
    )
