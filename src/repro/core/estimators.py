"""Estimators over realised MH chains (Eqs. 7 and 22).

The Independence-MH sampler of :mod:`repro.core.mh_joint` (single-space
is its |R| = 1 case, :mod:`repro.core.mh_single`) produces chains of
states plus the dependency score of each state; these pure functions turn
a chain into the paper's estimates.
"""
from __future__ import annotations

import numpy as np


def eq7_estimate(delta_chain: np.ndarray, n: int) -> float:
    """Eq. 7 with the chain-multiset reading of ``M``:
    ``B̈C(r) = 1/((T+1)(n−1)) · Σ_{t=0..T} δ_{v_t}•(r)``.

    This is the ergodic average of ``f(v) = δ_v•(r)/(n−1)`` over the
    ``T+1`` chain states — the quantity the Theorem-1 analysis (θ̂_n with
    ``n = T+1``) actually bounds. Estimates on the *normalised* scale
    (see DESIGN.md): compare against ``nbc(r) = BC(r)/(n(n−1))``.
    """
    return float(delta_chain.sum() / (len(delta_chain) * (n - 1)))


def eq7_accepted_only(
    delta_chain: np.ndarray, accepted: np.ndarray, n: int
) -> float:
    """Eq. 7 with the literal reading of ``M`` = accepted states only,
    still normalised by ``T+1``. Underestimates the chain average by the
    rejection fraction; reported for faithfulness (EXPERIMENTS.md T3)."""
    T = len(accepted)
    picked = delta_chain[1:][accepted]
    return float(picked.sum() / ((T + 1) * (n - 1)))


def eq22_ratio(
    f_ij_on_j: np.ndarray,
    f_ji_on_i: np.ndarray,
) -> float:
    """Eq. 22: estimate of ``BC(r_i)/BC(r_j)``.

    ``f_ij_on_j[k] = min{1, δ_w(r_i)/δ_w(r_j)}`` over the sub-chain
    ``S(j)`` (samples whose r-component is ``r_j``), and symmetrically
    for the denominator. Returns NaN when either sub-chain is empty.
    """
    if len(f_ij_on_j) == 0 or len(f_ji_on_i) == 0:
        return float("nan")
    den = float(np.mean(f_ji_on_i))
    if den == 0.0:
        return float("nan")
    return float(np.mean(f_ij_on_j)) / den


def relative_score_estimate(f_ij_on_j: np.ndarray) -> float:
    """The Eq.-22 numerator — the paper's estimator ``B̈C_{r_j}(r_i)`` of
    the relative betweenness score (converges to the π-weighted
    ``BC*_{r_j}(r_i)``; see DESIGN.md)."""
    if len(f_ij_on_j) == 0:
        return float("nan")
    return float(np.mean(f_ij_on_j))
