"""Tests for the analytical bounds module (`repro.core.theory`)."""
import math

import numpy as np
import pytest

from repro.core.theory import (
    bias_envelope,
    mcmc_hoeffding_tail,
    rk_sample_budget,
    sample_budget,
    theorem1_tail,
)


class TestSampleBudget:
    def test_formula_value(self):
        # T = μ²/(2ε²)·ln(2/δ), ceil'd.
        mu, eps, delta = 2.0, 0.1, 0.05
        expect = math.ceil(mu * mu / (2 * eps * eps) * math.log(2 / delta))
        assert sample_budget(eps, delta, mu) == expect

    def test_constant_mu_constant_budget(self):
        # The paper's headline: budget does not depend on |V|.
        b = sample_budget(0.05, 0.1, 1.1)
        assert b == sample_budget(0.05, 0.1, 1.1)
        assert b < 1000

    def test_monotone_in_mu(self):
        assert sample_budget(0.05, 0.1, 3.0) > sample_budget(0.05, 0.1, 1.5)

    def test_monotone_in_eps(self):
        assert sample_budget(0.01, 0.1, 2.0) > sample_budget(0.05, 0.1, 2.0)

    def test_monotone_in_delta(self):
        assert sample_budget(0.05, 0.01, 2.0) > sample_budget(0.05, 0.2, 2.0)

    @pytest.mark.parametrize(
        "eps,delta,mu", [(0, 0.1, 1.0), (0.1, 0, 1.0), (0.1, 1.5, 1.0), (0.1, 0.1, 0)]
    )
    def test_rejects_bad_params(self, eps, delta, mu):
        with pytest.raises(ValueError):
            sample_budget(eps, delta, mu)

    @pytest.mark.parametrize("mu", [math.inf, math.nan])
    def test_rejects_non_finite_mu(self, mu):
        # mu_r is ∞ for a BC = 0 probe.
        with pytest.raises(ValueError, match="mu"):
            sample_budget(0.05, 0.1, mu)


class TestTailBounds:
    def test_tail_in_unit_interval(self):
        for T in (1, 10, 100, 10_000):
            assert 0.0 <= theorem1_tail(T, 0.05, 1.5) <= 1.0

    def test_tail_vacuous_for_tiny_T(self):
        # Until T pays off the 3/T slack the bound is 1.
        assert theorem1_tail(5, 0.01, 2.0) == 1.0

    def test_tail_decreasing_in_T(self):
        vals = [theorem1_tail(T, 0.05, 1.2) for T in (2000, 4000, 8000)]
        assert vals[0] > vals[1] > vals[2]

    def test_budget_achieves_delta(self):
        # Eq. 14's T makes the *simplified* tail 2·exp(−T(ε/μ·2)²/2) ≤ δ.
        eps, delta, mu = 0.05, 0.1, 1.3
        T = sample_budget(eps, delta, mu)
        simplified = 2 * math.exp(-T / 2 * (2 * eps / mu) ** 2)
        assert simplified <= delta + 1e-12

    def test_hoeffding_small_n(self):
        assert mcmc_hoeffding_tail(1, 0.1, 1.0) == 1.0

    def test_hoeffding_matches_theorem1(self):
        # Theorem 1 instantiates Ineq. 9 with n = T+1, λ = 1/μ.
        T, eps, mu = 5000, 0.05, 1.4
        assert np.isclose(
            theorem1_tail(T, eps, mu), mcmc_hoeffding_tail(T + 1, eps, 1.0 / mu)
        )

    def test_theorem1_matches_ineq12_near_budget(self):
        # Ineq. 12 as printed, 2·exp(−(T/2)(2ε/μ − 3/T)²), to the 4 decimals
        # Table 4 reports, around the Eq.-14 budget of each μ.
        eps, delta = 0.05, 0.1
        for mu in np.linspace(1.0, 4.0, 61):
            T0 = sample_budget(eps, delta, mu)
            for T in range(max(1, T0 - 200), T0 + 200, 7):
                inner = 2 * eps / mu - 3 / T
                ineq12 = 1.0 if inner <= 0 else min(1.0, 2 * math.exp(-T / 2 * inner**2))
                assert round(theorem1_tail(T, eps, mu), 4) == round(ineq12, 4)


class TestBiasEnvelope:
    def test_order(self):
        lo, hi = bias_envelope(0.3, 1.5)
        assert lo == 0.3 and np.isclose(hi, 0.45) and lo <= hi

    def test_tight_when_mu_one(self):
        lo, hi = bias_envelope(0.2, 1.0)
        assert lo == hi


class TestRKBudget:
    def test_larger_diameter_larger_budget(self):
        assert rk_sample_budget(0.05, 0.1, 100) > rk_sample_budget(0.05, 0.1, 5)

    def test_reasonable_magnitude(self):
        # ε=0.05, δ=0.1, VD=10: a few thousand samples.
        b = rk_sample_budget(0.05, 0.1, 10)
        assert 500 < b < 10_000

    def test_degenerate_diameter_clamped(self):
        assert rk_sample_budget(0.1, 0.1, 1) == rk_sample_budget(0.1, 0.1, 3)
