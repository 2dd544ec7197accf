"""Cone-form derivation and linearization."""

import math

import numpy as np
import pytest

from socalloc import (ConfigError, DomainError, GeneratorConfig, Instance,
                      LinearizedInstance, RiskSpec, generate, linearize, mean_excess,
                      minimize_dual, soc_lhs, to_soc)
from socalloc.generate import RequestDraws
from socalloc.model import InstanceRows
from socalloc.transform import safety_coefficients

from helpers import (a_tilde, bisect_root, random_decisions, random_instance,
                     trace_by_recomputation)

ETA_GRID = (0.65, 0.75, 0.85, 0.95)
PSI_FOR_ETA = (0.38532, 0.67449, 1.03643, 1.64485)

CAP_GRID = (0.2, 0.3, 0.4, 0.5)
# Roots of mean_excess(z) = cap, frozen from the bisection oracle
# (re-derived inside the test).
PSI_FOR_CAPS = (4.6135438, 2.7725510, 1.7789584, 1.1311504)


class TestToSoc:
    def test_confidence_levels_to_coefficients(self):
        inst = random_instance(np.random.default_rng(0), n=5, eta=ETA_GRID)
        out = to_soc(inst)
        assert np.allclose(out.risk.psi, PSI_FOR_ETA, atol=1e-4)

    def test_caps_to_coefficients_match_bisection_oracle(self):
        inst = random_instance(np.random.default_rng(1), n=5, gamma_tilde=CAP_GRID)
        out = to_soc(inst)
        for j, cap in enumerate(CAP_GRID):
            oracle = bisect_root(lambda z: mean_excess(z) - cap, -5, 40)
            assert abs(oracle - PSI_FOR_CAPS[j]) < 1e-6
            assert out.risk.psi[j] == pytest.approx(oracle, abs=1e-9)

    def test_both_branches_take_max(self):
        inst = random_instance(np.random.default_rng(2), n=5,
                               eta=ETA_GRID, gamma_tilde=CAP_GRID)
        out = to_soc(inst)
        assert np.allclose(out.risk.psi, np.maximum(PSI_FOR_ETA, PSI_FOR_CAPS),
                           atol=1e-4)

    def test_zero_variance_degenerates_to_linear(self):
        rng = np.random.default_rng(3)
        inst = Instance(rng.random((6, 2)), rng.random((6, 3, 2)),
                        np.zeros((6, 3, 2)), np.ones(3),
                        RiskSpec(eta=(0.9, 0.95, 0.99)))
        out = to_soc(inst)
        decisions = random_decisions(rng, 6, 2)
        trace = trace_by_recomputation(out, decisions)
        assert np.allclose(soc_lhs(trace, out), trace.mean_consumption,
                           rtol=0, atol=0)

    def test_empty_risk_rejected(self):
        inst = random_instance(np.random.default_rng(4), n=3)
        with pytest.raises(ConfigError):
            to_soc(inst)

    def test_negative_coefficient_rejected(self):
        # eta < 0.5 (or a cap above sqrt(2/pi)) asks for less than the mean:
        # psi < 0 would make the cone form non-convex
        inst = random_instance(np.random.default_rng(12), n=3,
                               eta=(0.9, 0.3, 0.95, 0.6))
        with pytest.raises(DomainError, match=r"resource 1: psi = -0\.5244"):
            to_soc(inst)
        caps = random_instance(np.random.default_rng(13), n=3,
                               gamma_tilde=(0.2, 0.3, 0.4, 0.9))
        with pytest.raises(DomainError, match="resource 3"):
            to_soc(caps)
        # a stronger target on the same resource wins the max
        both = random_instance(np.random.default_rng(14), n=3,
                               eta=(0.9,) * 4, gamma_tilde=(0.2, 0.3, 0.4, 0.9))
        assert np.all(to_soc(both).risk.psi > 0)

    def test_zero_coefficient_allowed(self):
        inst = random_instance(np.random.default_rng(15), n=3,
                               eta=(0.5, 0.9, 0.9, 0.9))
        assert to_soc(inst).risk.psi[0] == 0.0

    def test_original_instance_untouched(self):
        inst = random_instance(np.random.default_rng(5), n=3, eta=ETA_GRID)
        to_soc(inst)
        assert inst.risk.psi is None


class TestLinearize:
    def test_zero_psi_keeps_means(self):
        inst = random_instance(np.random.default_rng(6), n=8, psi=np.zeros(4))
        lin = linearize(inst)
        assert np.array_equal(a_tilde(lin), inst.a_bar)

    def test_column_arithmetic(self):
        # n=4, psi=2, gamma=1, mean=1  ->  1 + 2*1/sqrt(4) = 2
        inst = Instance(c=[[1.0]] * 4, a_bar=[[[1.0]]] * 4,
                        k_diag=[[[1.0]]] * 4, d=[1.0], risk=RiskSpec(psi=[2.0]))
        lin = linearize(inst)
        assert np.allclose(a_tilde(lin), 2.0, rtol=0, atol=0)

    def test_columns_dominate_means(self):
        inst = random_instance(np.random.default_rng(7), n=20,
                               psi=np.random.default_rng(8).uniform(0, 3, 4))
        lin = linearize(inst)
        assert np.all(a_tilde(lin) >= inst.a_bar)

    def test_requires_psi(self):
        inst = random_instance(np.random.default_rng(9), n=3)
        with pytest.raises(ConfigError):
            linearize(inst)
        with pytest.raises(ConfigError):
            LinearizedInstance(InstanceRows(inst), inst.n, inst.d, inst.risk.psi)

    @pytest.mark.parametrize("experiment", ["uniform", "chi_square"])
    def test_columns_resource_major_and_frozen(self, experiment):
        inst = to_soc(generate(GeneratorConfig(experiment, n=37, m=3, k=4,
                                               eta=(0.6, 0.8, 0.95), seed=5)))
        lin = linearize(inst)
        assert lin.columns.shape == (3, 37, 4)
        assert lin.columns.flags.c_contiguous and lin.columns.flags.owndata
        assert not lin.columns.flags.writeable
        psi = inst.risk.psi
        expected = inst.a_bar + psi[:, None] / math.sqrt(inst.n) * np.sqrt(inst.k_diag)
        assert np.array_equal(a_tilde(lin), expected)


class TestDrawnColumns:
    """A certified cell draws each trial from the generator straight into its
    revenues and columns, CHUNK requests at a time."""

    @pytest.mark.parametrize("n", [1, 257, 513])  # 257, 513: a partial last block
    @pytest.mark.parametrize("risk", [(ETA_GRID, None), (None, CAP_GRID), (ETA_GRID, CAP_GRID)],
                             ids=["eta", "gamma_tilde", "both"])
    @pytest.mark.parametrize("experiment", ["uniform", "chi_square"])
    def test_equals_the_linearized_instance(self, experiment, risk, n):
        config = GeneratorConfig(experiment, n=n, m=4, k=5, d=(1.0, 0.5, 2.0, 1.5),
                                 eta=risk[0], gamma_tilde=risk[1], seed=n)
        drawn = LinearizedInstance(RequestDraws(config), n, config.budget(),
                                   safety_coefficients(config.risk()))
        lin = linearize(to_soc(generate(config)))
        for name in ("c", "columns", "d", "budget"):
            got, want = getattr(drawn, name), getattr(lin, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        assert (drawn.n, drawn.m, drawn.k) == (n, 4, 5)
        assert drawn.columns.flags.c_contiguous and not drawn.columns.flags.writeable
        got, want = minimize_dual(drawn, tol=1e-6), minimize_dual(lin, tol=1e-6)
        assert (got.value, got.iterations, got.gap) == (want.value, want.iterations, want.gap)
        assert got.p_star.tobytes() == want.p_star.tobytes()


class TestRelaxationDirection:
    def test_linear_surrogate_undercounts_cone_usage(self):
        # For 200 random one-hot selections the summed linear risk terms
        # stay below the joint square-root term, so cone-feasible
        # solutions remain feasible for the linear columns.
        rng = np.random.default_rng(10)
        for case in range(200):
            n = int(rng.integers(2, 40))
            inst = random_instance(rng, n=n, m=3, k=4,
                                   psi=rng.uniform(0, 3, 3))
            lin = linearize(inst)
            decisions = random_decisions(rng, n, 4)
            trace = trace_by_recomputation(inst, decisions)
            linear_risk = np.zeros(3)
            for t, l in enumerate(decisions):
                if l is not None:
                    linear_risk += a_tilde(lin)[t, :, l] - inst.a_bar[t, :, l]
            joint = inst.risk.psi * np.sqrt(trace.variance_accum)
            assert np.all(linear_risk <= joint + 1e-9)

    def test_gap_bounded_by_psi_sqrt_kmax_n(self):
        rng = np.random.default_rng(11)
        for case in range(50):
            n = int(rng.integers(5, 60))
            inst = random_instance(rng, n=n, psi=rng.uniform(0, 2.5, 4))
            lin = linearize(inst)
            decisions = random_decisions(rng, n, inst.k)
            trace = trace_by_recomputation(inst, decisions)
            linear_total = np.zeros(4)
            for t, l in enumerate(decisions):
                if l is not None:
                    linear_total += a_tilde(lin)[t, :, l]
            gap = soc_lhs(trace, inst) - linear_total
            bound = inst.risk.psi * math.sqrt(inst.k_diag.max()) * math.sqrt(n)
            assert np.all(gap <= bound + 1e-9)
