"""Math-layer accuracy: CDF, quantile, mean excess, safety coefficient."""

import math

import numpy as np
import pytest

from socalloc import (ConfigError, DomainError, mean_excess, safety_coefficient,
                      std_normal_cdf)
from socalloc.gaussian import (MEAN_EXCESS_AT_ZERO, mean_excess_inverse,
                               std_normal_quantile, std_normal_sf)

from helpers import bisect_root, cdf_by_quadrature, mean_excess_by_formula

# Frozen against the quadrature oracle below (asserted in the tests).
CDF_AT_1 = 0.8413447460685429
QUANTILE_95 = 1.6448536269514722
QUANTILE_75 = 0.6744897501960817
MEAN_EXCESS_AT_1 = 0.5251352761609811
MEAN_EXCESS_AT_NEG2 = 2.0552478626789900


class TestCdf:
    def test_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_against_quadrature_oracle(self):
        oracle = cdf_by_quadrature(1.0)
        assert abs(oracle - CDF_AT_1) < 1e-12
        assert abs(std_normal_cdf(1.0) - CDF_AT_1) <= 1e-10

    def test_symmetry_identity(self):
        assert std_normal_cdf(-0.7) + std_normal_cdf(0.7) == pytest.approx(1.0, abs=1e-15)

    def test_monotone_on_grid(self):
        z = np.linspace(-9, 9, 2001)
        vals = [std_normal_cdf(x) for x in z]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_accuracy_on_sampled_points(self):
        rng = np.random.default_rng(11)
        for z in rng.uniform(-6, 6, 40):
            assert abs(std_normal_cdf(z) - cdf_by_quadrature(z)) <= 1e-10

    def test_matches_scipy_reference(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(5)
        for z in rng.uniform(-8, 8, 200):
            assert abs(std_normal_cdf(z) - stats.norm.cdf(z)) <= 1e-14

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                std_normal_cdf(bad)

    def test_sf_stable_in_far_tail(self):
        # direct subtraction 1 - cdf would return exactly 0 out here
        assert std_normal_sf(20.0) > 0
        assert std_normal_sf(30.0) > 0


class TestQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_frozen_values_from_bisection_oracle(self):
        for p, expected in ((0.95, QUANTILE_95), (0.75, QUANTILE_75)):
            oracle = bisect_root(lambda z: std_normal_cdf(z) - p, -10, 10)
            assert abs(oracle - expected) < 1e-9
            assert abs(std_normal_quantile(p) - expected) <= 1e-9

    def test_round_trip_thousand_points(self):
        rng = np.random.default_rng(3)
        for p in rng.uniform(0.001, 0.999, 1000):
            assert abs(std_normal_cdf(std_normal_quantile(p)) - p) <= 1e-9

    def test_extreme_tails_still_bracketed(self):
        assert std_normal_cdf(std_normal_quantile(1e-12)) == pytest.approx(1e-12, rel=1e-6)
        assert std_normal_quantile(1.0 - 1e-12) > 6

    def test_rejects_out_of_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.5, math.nan):
            with pytest.raises(DomainError):
                std_normal_quantile(bad)


class TestMeanExcess:
    def test_value_at_zero_is_sqrt_two_over_pi(self):
        assert mean_excess(0.0) == pytest.approx(MEAN_EXCESS_AT_ZERO, abs=1e-13)
        assert MEAN_EXCESS_AT_ZERO == pytest.approx(math.sqrt(2 / math.pi), abs=0)

    def test_frozen_values_from_formula_oracle(self):
        assert abs(mean_excess_by_formula(1.0) - MEAN_EXCESS_AT_1) < 1e-10
        assert abs(mean_excess_by_formula(-2.0) - MEAN_EXCESS_AT_NEG2) < 1e-10
        assert mean_excess(1.0) == pytest.approx(MEAN_EXCESS_AT_1, abs=1e-10)
        assert mean_excess(-2.0) == pytest.approx(MEAN_EXCESS_AT_NEG2, abs=1e-10)

    def test_strictly_decreasing(self):
        z = np.linspace(-8, 40, 3000)
        vals = [mean_excess(x) for x in z]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_tail_behaves_like_inverse(self):
        # True deviations of z*mean_excess(z) from 1 are 1.91% at z=10
        # and 0.49% at z=20 (see notes on the tail expansion).
        h10 = mean_excess(10.0)
        h20 = mean_excess(20.0)
        assert h10 > 0 and h20 > 0
        assert math.isfinite(h10) and math.isfinite(h20)
        assert abs(h10 * 10.0 - 1.0) <= 0.02
        assert abs(h20 * 20.0 - 1.0) <= 0.01

    def test_negative_tail_growth(self):
        # mean_excess(z) ~ -z for very negative z
        assert mean_excess(-30.0) == pytest.approx(30.0, abs=1e-9)

    def test_asymptotic_seam_is_smooth(self):
        below = mean_excess(29.999999)
        above = mean_excess(30.000001)
        assert below > above
        assert abs(below - above) < 1e-6


class TestMeanExcessInverse:
    def test_value_at_sqrt_two_over_pi_is_zero(self):
        assert mean_excess_inverse(MEAN_EXCESS_AT_ZERO) == pytest.approx(0.0, abs=1e-9)

    def test_frozen_values_from_bisection_oracle(self):
        # Oracle-computed roots of the direct formula; the half(0.5) root
        # is 1.13115, the 0.3 root is 2.77255.
        for target, expected in ((0.5, 1.1311504), (0.3, 2.7725510)):
            oracle = bisect_root(lambda z: mean_excess(z) - target, -5, 40)
            assert abs(oracle - expected) < 1e-6
            assert abs(mean_excess_inverse(target) - expected) <= 1e-6

    def test_round_trip_thousand_points(self):
        rng = np.random.default_rng(4)
        for g in rng.uniform(0.01, 5.0, 1000):
            assert abs(mean_excess(mean_excess_inverse(g)) - g) <= 1e-9

    def test_round_trip_in_deep_tail(self):
        # gamma_tilde = 0.01 puts the root near z = 100
        root = mean_excess_inverse(0.01)
        assert root > 50
        assert abs(mean_excess(root) - 0.01) <= 1e-12

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                mean_excess_inverse(bad)


class TestSafetyCoefficient:
    def test_confidence_branch(self):
        assert safety_coefficient(eta=0.95) == pytest.approx(QUANTILE_95, abs=1e-4)

    def test_cap_branch(self):
        assert safety_coefficient(gamma_tilde=0.5) == pytest.approx(1.1311504, abs=1e-3)

    def test_both_branches_vanish_at_their_boundaries(self):
        psi = safety_coefficient(eta=0.5, gamma_tilde=MEAN_EXCESS_AT_ZERO)
        assert psi == pytest.approx(0.0, abs=1e-9)

    def test_max_of_branches(self):
        lo = safety_coefficient(eta=0.6)
        hi = safety_coefficient(gamma_tilde=0.2)
        assert safety_coefficient(eta=0.6, gamma_tilde=0.2) == max(lo, hi)

    def test_positive_above_thresholds(self):
        rng = np.random.default_rng(6)
        for eta in rng.uniform(0.5001, 0.9999, 200):
            assert safety_coefficient(eta=eta) > 0
        for g in rng.uniform(0.01, MEAN_EXCESS_AT_ZERO - 1e-6, 200):
            assert safety_coefficient(gamma_tilde=g) > 0

    def test_requires_at_least_one_branch(self):
        with pytest.raises(ConfigError):
            safety_coefficient()

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            safety_coefficient(eta=1.2)
        with pytest.raises(DomainError):
            safety_coefficient(gamma_tilde=-0.1)
