"""Metric formulas, degenerate conventions, scaling fits, aggregation."""

import math
import warnings

import numpy as np
import pytest

from socalloc import (ConfigError, DomainError, DualCertificate, Instance,
                      MetricsReport, RiskSpec, SolutionTrace, aggregate,
                      build_report, ce_violation, mean_excess,
                      optimality_gap_and_ratio, probability_deviation,
                      scaling_slope, soc_lhs, soc_violation)
from socalloc.gaussian import mean_excess_inverse, std_normal_quantile

from helpers import random_decisions, random_instance, trace_by_recomputation

MEAN_EXCESS_AT_ZERO = math.sqrt(2.0 / math.pi)


def one_resource_instance(n, b_per_step, eta=None, gamma_tilde=None, psi=None):
    return Instance(c=[[1.0]] * n, a_bar=[[[1.0]]] * n, k_diag=[[[1.0]]] * n,
                    d=[b_per_step],
                    risk=RiskSpec(eta=eta, gamma_tilde=gamma_tilde, psi=psi))


def trace_with(mean, var, n=10, decisions=None):
    m = len(mean)
    return SolutionTrace(decisions=decisions or (0,) * n, objective=float(n),
                         mean_consumption=mean, variance_accum=var)


class TestProbabilityDeviation:
    def test_empty_trace_is_safe(self):
        inst = one_resource_instance(10, 1.0, eta=[0.95])
        trace = trace_with([0.0], [0.0], decisions=(None,) * 10)
        dev, per = probability_deviation(trace, inst)
        assert dev == 0.0 and per[0] == 0.0

    def test_one_sigma_slack(self):
        # slack of exactly one standard deviation achieves CDF(1)
        inst = one_resource_instance(10, 1.0, eta=[0.95])
        trace = trace_with([10.0 - 2.0], [4.0])
        dev, per = probability_deviation(trace, inst)
        assert dev == pytest.approx(0.95 - 0.8413447460685429, abs=1e-9)

    def test_exact_quantile_slack_is_boundary(self):
        inst = one_resource_instance(10, 1.0, eta=[0.95])
        sigma = 2.0
        slack = sigma * std_normal_quantile(0.95)
        trace = trace_with([10.0 - slack], [sigma ** 2])
        dev, _ = probability_deviation(trace, inst)
        assert dev == pytest.approx(0.0, abs=1e-12)

    def test_zero_variance_overrun_counts_fully(self):
        inst = one_resource_instance(10, 1.0, eta=[0.95])
        trace = trace_with([11.0], [0.0])
        dev, _ = probability_deviation(trace, inst)
        assert dev == pytest.approx(0.95, abs=0)

    def test_requires_eta(self):
        inst = one_resource_instance(10, 1.0, gamma_tilde=[0.5])
        with pytest.raises(ConfigError):
            probability_deviation(trace_with([0.0], [0.0]), inst)

    def test_zero_whenever_cone_usage_within_budget(self):
        # chaining: slack >= psi*sigma >= quantile(eta)*sigma
        rng = np.random.default_rng(0)
        etas = (0.65, 0.75, 0.85, 0.95)
        for _ in range(200):
            inst = random_instance(rng, n=20, eta=etas,
                                   psi=[std_normal_quantile(e) for e in etas])
            decisions = random_decisions(rng, 20, inst.k)
            trace = trace_by_recomputation(inst, decisions)
            g = soc_lhs(trace, inst)
            if np.all(g <= inst.budget):
                dev, _ = probability_deviation(trace, inst)
                assert dev == 0.0
            else:
                # rescale budget upward so the cone constraint holds
                scale = (g / inst.budget).max() * 1.01
                big = Instance(inst.c, inst.a_bar, inst.k_diag,
                               inst.d * scale, inst.risk)
                dev, _ = probability_deviation(trace, big)
                assert dev == 0.0


class TestGapAndRatio:
    def cert(self, value):
        return DualCertificate(value=value, p_star=np.zeros(1),
                               iterations=1, gap=0.0)

    def test_matching_objective(self):
        trace = trace_with([1.0], [0.0], n=10)
        gap, ratio = optimality_gap_and_ratio(trace, self.cert(10.0))
        assert gap == 0.0 and ratio == 100.0

    def test_empty_trace(self):
        trace = SolutionTrace(decisions=(None,) * 5, objective=0.0,
                              mean_consumption=[0.0], variance_accum=[0.0])
        gap, ratio = optimality_gap_and_ratio(trace, self.cert(7.5))
        assert gap == 7.5 and ratio == 0.0

    def test_degenerate_baseline_gives_nan_ratio(self):
        trace = trace_with([1.0], [0.0], n=4)
        gap, ratio = optimality_gap_and_ratio(trace, self.cert(0.0))
        assert math.isnan(ratio)


class TestCeViolation:
    def test_zero_slack_half_cap(self):
        inst = one_resource_instance(10, 1.0, gamma_tilde=[0.5])
        sigma = 3.0
        trace = trace_with([10.0], [sigma ** 2])  # z = 0
        norm_l2, raw_l2, vtilde, vraw = ce_violation(trace, inst)
        expected = MEAN_EXCESS_AT_ZERO - 0.5
        assert vtilde[0] == pytest.approx(expected, abs=1e-12)
        assert vraw[0] == pytest.approx(expected * sigma, abs=1e-12)
        assert norm_l2 == pytest.approx(expected, abs=1e-12)

    def test_deep_slack_is_clean(self):
        # six standard deviations of slack: conditional excess ~0.158
        # sits below the cap 0.2
        inst = one_resource_instance(10, 1.0, gamma_tilde=[0.2])
        trace = trace_with([10.0 - 6.0], [1.0])
        norm_l2, raw_l2, vtilde, _ = ce_violation(trace, inst)
        assert vtilde[0] == pytest.approx(mean_excess(6.0) - 0.2, abs=1e-12)
        assert vtilde[0] < 0
        assert norm_l2 == 0.0 and raw_l2 == 0.0

    def test_empty_trace_is_clean(self):
        inst = one_resource_instance(10, 1.0, gamma_tilde=[0.5])
        trace = trace_with([0.0], [0.0], decisions=(None,) * 10)
        norm_l2, raw_l2, vtilde, vraw = ce_violation(trace, inst)
        assert norm_l2 == 0.0 and raw_l2 == 0.0
        assert vtilde[0] == -0.5 and vraw[0] == 0.0

    def test_requires_caps(self):
        inst = one_resource_instance(10, 1.0, eta=[0.9])
        with pytest.raises(ConfigError):
            ce_violation(trace_with([0.0], [0.0]), inst)

    def test_zero_whenever_cone_usage_within_budget(self):
        rng = np.random.default_rng(1)
        caps = (0.2, 0.3, 0.4, 0.5)
        psi = [mean_excess_inverse(g) for g in caps]
        for _ in range(100):
            inst = random_instance(rng, n=15, gamma_tilde=caps, psi=psi)
            decisions = random_decisions(rng, 15, inst.k)
            trace = trace_by_recomputation(inst, decisions)
            g = soc_lhs(trace, inst)
            scale = max((g / inst.budget).max() * 1.01, 1.0)
            big = Instance(inst.c, inst.a_bar, inst.k_diag,
                           inst.d * scale, inst.risk)
            norm_l2, raw_l2, _, _ = ce_violation(trace, big)
            assert norm_l2 == 0.0 and raw_l2 == 0.0


class TestSocViolation:
    def test_within_budget_is_zero(self):
        inst = one_resource_instance(10, 10.0, psi=[1.0])
        trace = trace_with([5.0], [1.0])
        l2, per = soc_violation(trace, inst)
        assert l2 == 0.0 and per[0] == 0.0

    def test_overrun_measured(self):
        inst = one_resource_instance(10, 1.0, psi=[2.0])
        trace = trace_with([9.0], [4.0])  # g = 9 + 2*2 = 13, b = 10
        l2, per = soc_violation(trace, inst)
        assert per[0] == pytest.approx(3.0, abs=1e-12)


class TestScalingSlope:
    def test_exact_sqrt_power_law(self):
        pts = [(n, 2.0 * math.sqrt(n)) for n in (100, 400, 1600)]
        assert scaling_slope(pts) == pytest.approx(0.5, abs=1e-12)

    def test_constant_series(self):
        pts = [(n, 3.3) for n in (10, 100, 1000, 10000)]
        assert scaling_slope(pts) == pytest.approx(0.0, abs=1e-12)

    def test_linear_series(self):
        pts = [(n, 0.1 * n) for n in (10, 100, 1000)]
        assert scaling_slope(pts) == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_points_dropped_with_warning(self):
        pts = [(10, 0.0), (100, 1.0), (1000, 3.1), (10000, 10.0)]
        with pytest.warns(RuntimeWarning):
            slope = scaling_slope(pts)
        assert slope == pytest.approx(0.5, abs=0.01)

    def test_too_few_points_is_an_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(DomainError):
                scaling_slope([(10, 1.0), (100, -2.0), (1000, 2.0)])


class TestAggregate:
    def report(self, dev):
        return MetricsReport(objective=1.0, baseline_value=2.0,
                             probability_deviation=dev, optimality_gap=1.0,
                             competitive_ratio=50.0,
                             normalized_ce_violation=0.0, ce_violation=0.0,
                             soc_violation=0.0,
                             per_constraint={"probability_deviation": np.array([dev])})

    def test_single_trial_zero_spread(self):
        agg = aggregate([self.report(0.1)])
        assert agg["probability_deviation"]["mean"] == pytest.approx(0.1)
        assert agg["probability_deviation"]["std"] == 0.0

    def test_two_trials(self):
        agg = aggregate([self.report(0.1), self.report(0.3)])
        assert agg["probability_deviation"]["mean"] == pytest.approx(0.2, abs=1e-15)
        assert agg["probability_deviation"]["std"] == pytest.approx(0.1414213562, abs=1e-9)

    def test_twenty_identical_trials(self):
        agg = aggregate([self.report(0.25)] * 20)
        assert agg["probability_deviation"]["std"] == 0.0

    def test_per_constraint_aggregated(self):
        agg = aggregate([self.report(0.1), self.report(0.3)])
        assert agg["per_constraint"]["probability_deviation"]["mean"] == [pytest.approx(0.2)]

    def test_empty_is_an_error(self):
        with pytest.raises(DomainError):
            aggregate([])


class TestBuildReport:
    def test_fields_follow_risk_branches(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng, n=10, eta=(0.65, 0.75, 0.85, 0.95))
        from socalloc import to_soc
        inst = to_soc(inst)
        trace = trace_by_recomputation(inst, random_decisions(rng, 10, inst.k))
        report = build_report(inst, trace)
        assert not math.isnan(report.probability_deviation)
        assert math.isnan(report.normalized_ce_violation)
        assert math.isnan(report.optimality_gap)  # no baseline given
        assert "probability_deviation" in report.per_constraint
        assert "soc_violation" in report.per_constraint


class TestMonteCarloAgreement:
    def test_analytic_matches_sampling_on_small_batch(self):
        # fast version of the full cross-validation in the acceptance
        # suite: 3 traces, 1e5 samples, 4 standard errors of headroom
        rng = np.random.default_rng(3)
        for case in range(3):
            mean, sigma = 50.0, 4.0
            z = rng.uniform(-1.5, 1.5)
            b = mean + z * sigma
            samples = rng.normal(mean, sigma, 100_000)
            from socalloc import std_normal_cdf
            hold = std_normal_cdf(z)
            hold_hat = np.mean(samples <= b)
            se_hold = math.sqrt(hold * (1 - hold) / len(samples))
            assert abs(hold_hat - hold) <= 4 * se_hold
            over = samples[samples > b]
            excess_hat = np.mean((over - b) / sigma)
            se_excess = np.std((over - b) / sigma, ddof=1) / math.sqrt(len(over))
            assert abs(excess_hat - mean_excess(z)) <= 4 * se_excess
