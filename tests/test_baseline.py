"""Offline dual baseline: exact evaluation, box search, duality checks."""

import itertools
import math

import numpy as np
import pytest

from socalloc import (ConvergenceError, DomainError, DualCertificate,
                      GeneratorConfig, Instance, RiskSpec,
                      dual_value_and_subgradient, generate, linearize,
                      minimize_dual, soc_lhs, to_soc)

from hypothesis import example, given, settings
from hypothesis import strategies as hst

from socalloc.baseline import CHUNK, _smoothed

from helpers import (a_tilde, dual_value, greedy_primal, lp_optimum, random_instance,
                     smoothed_by_resource, trace_by_recomputation)


def toy_m1():
    """Three requests, one resource, one scheme: c = (1, 2, 3), columns 1,
    per-step budget 0.5 (total 1.5).

    The dual is f(p) = 1.5 p + sum max(0, c_t - p), so f(0) = 6,
    f(1) = 4.5, f(2) = 4, f(3) = 4.5; the minimum over the price box
    [0, 6] is 4.0 at p = 2 (the fractional relaxation takes the revenue-3
    request plus half of the revenue-2 one).
    """
    inst = Instance(c=[[1.0], [2.0], [3.0]],
                    a_bar=[[[1.0]]] * 3,
                    k_diag=[[[0.0]]] * 3,
                    d=[0.5], risk=RiskSpec(psi=[0.0]))
    return linearize(inst)


def stress_set():
    """200 small random instances, n in [2, 120], m in [1, 4], k in [1, 5].
    Every odd one has c and a_bar rounded to one decimal and no variance,
    so that many (request, option) pairs tie at the optimal prices."""
    rng = np.random.default_rng(20261019)
    for index in range(200):
        n, m, k = int(rng.integers(2, 121)), int(rng.integers(1, 5)), int(rng.integers(1, 6))
        c = rng.uniform(0, 1, (n, k))
        a_bar = rng.uniform(0, 1, (n, m, k))
        k_diag = rng.uniform(0, 0.04, (n, m, k))
        d = rng.uniform(0.1, 0.5, m)
        psi = rng.uniform(0, 1, m)
        if index % 2:
            c, a_bar, k_diag = np.round(c, 1), np.round(a_bar, 1), np.zeros_like(k_diag)
        yield Instance(c, a_bar, k_diag, d, RiskSpec(psi=psi))


def grid_search_1d(lin, lo, hi, points=20001):
    best = math.inf
    for p in np.linspace(lo, hi, points):
        best = min(best, dual_value(np.array([p]), lin))
    return best


class TestDualValue:
    def test_zero_prices_sum_positive_revenues(self):
        rng = np.random.default_rng(0)
        inst = random_instance(rng, n=25, psi=np.zeros(4))
        lin = linearize(inst)
        expected = np.maximum(inst.c.max(axis=1), 0.0).sum()
        assert dual_value(np.zeros(4), lin) == pytest.approx(expected, rel=1e-14)

    def test_zero_revenue_instance(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, n=10, psi=np.zeros(4))
        inst = Instance(np.zeros_like(inst.c), inst.a_bar, inst.k_diag,
                        inst.d, inst.risk)
        lin = linearize(inst)
        p = np.array([0.3, 0.1, 0.0, 0.2])
        assert dual_value(p, lin) == pytest.approx(float(inst.budget @ p), rel=1e-14)
        assert dual_value(np.zeros(4), lin) == 0.0

    def test_toy_values(self):
        lin = toy_m1()
        assert dual_value(np.array([0.0]), lin) == 6.0
        assert dual_value(np.array([1.0]), lin) == 4.5
        assert dual_value(np.array([2.0]), lin) == 4.0
        assert dual_value(np.array([3.0]), lin) == 4.5

    def test_subgradient_inequality(self):
        # f(q) >= f(p) + g(p) . (q - p) for a convex f
        rng = np.random.default_rng(2)
        inst = random_instance(rng, n=40, psi=rng.uniform(0, 2, 4))
        lin = linearize(inst)
        for _ in range(100):
            p = rng.uniform(0, 0.5, 4)
            q = rng.uniform(0, 0.5, 4)
            fp, gp = dual_value_and_subgradient(p, lin)
            fq = dual_value(q, lin)
            assert fq >= fp + gp @ (q - p) - 1e-9

    def test_rejects_negative_prices(self):
        lin = toy_m1()
        with pytest.raises(DomainError):
            dual_value(np.array([-0.1]), lin)


class TestMinimizeDual:
    def test_toy_matches_grid_search(self):
        lin = toy_m1()
        grid = grid_search_1d(lin, 0.0, 6.0)
        assert grid == pytest.approx(4.0, abs=1e-4)
        cert = minimize_dual(lin, tol=1e-9)
        assert cert.value == pytest.approx(grid, abs=1e-3)

    def test_zero_revenue_gives_zero_certificate(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, n=10, psi=np.zeros(4))
        inst = Instance(np.zeros_like(inst.c), inst.a_bar, inst.k_diag,
                        inst.d, inst.risk)
        cert = minimize_dual(linearize(inst), tol=1e-9)
        assert cert.value == 0.0
        assert np.array_equal(cert.p_star, np.zeros(4))

    def test_m2_matches_dense_grid(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng, n=50, m=2, k=3, psi=rng.uniform(0, 1.5, 2))
        lin = linearize(inst)
        radius = inst.c.max() / inst.d.min()
        axis = np.linspace(0, radius, 400)
        grid = min(dual_value(np.array([p1, p2]), lin)
                   for p1 in axis for p2 in axis)
        cert = minimize_dual(lin, tol=1e-8)
        assert cert.value <= grid + 1e-9  # grid points are feasible duals
        assert abs(cert.value - grid) <= 1e-3 * abs(grid)

    def test_certificate_invariants(self):
        rng = np.random.default_rng(5)
        inst = random_instance(rng, n=60, eta=(0.65, 0.75, 0.85, 0.95))
        lin = linearize(to_soc(inst))
        cert = minimize_dual(lin, tol=1e-7)
        assert np.all(cert.p_star >= 0)
        assert cert.p_star.sum() <= inst.c.max() / inst.d.min() + 1e-9
        assert cert.value == dual_value(cert.p_star, lin)
        assert cert.iterations > 0
        assert 0.0 <= cert.gap <= 1e-7 * max(abs(cert.value), 1.0)

    @pytest.mark.parametrize("field, value", [
        ("value", math.nan), ("value", math.inf), ("p_star", [0.5, -0.1]),
        ("p_star", [math.nan, 0.0]), ("iterations", -1), ("gap", -1e-3), ("gap", math.nan)])
    def test_certificate_built_in_code_is_checked(self, field, value):
        fields = dict(value=1.0, p_star=[0.5, 0.0], iterations=4, gap=0.0)
        DualCertificate(**fields)
        with pytest.raises(DomainError, match="invalid certificate"):
            DualCertificate(**dict(fields, **{field: value}))

    def test_tol_must_be_positive(self):
        with pytest.raises(DomainError):
            minimize_dual(toy_m1(), tol=0.0)

    def test_iteration_cap_carries_best_certificate(self):
        rng = np.random.default_rng(6)
        inst = random_instance(rng, n=30, psi=np.zeros(4))
        lin = linearize(inst)
        with pytest.raises(ConvergenceError) as exc:
            minimize_dual(lin, tol=1e-15, iteration_cap=50)
        cert = exc.value.certificate
        assert isinstance(cert, DualCertificate)
        assert cert.iterations >= 50
        assert cert.value >= 0
        # the cap counts passes over the data; at most one exact pass
        # follows the pass that reaches it
        assert cert.iterations <= 52
        assert cert.value == dual_value(cert.p_star, lin)
        assert cert.gap > 1e-15 * cert.value

    def test_convexity_probe(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng, n=30, psi=rng.uniform(0, 2, 4))
        lin = linearize(inst)
        radius = inst.c.max() / inst.d.min()
        for _ in range(500):
            p = rng.uniform(0, radius / 4, 4)
            q = rng.uniform(0, radius / 4, 4)
            lam = rng.random()
            mid = lam * p + (1 - lam) * q
            assert (dual_value(mid, lin)
                    <= lam * dual_value(p, lin)
                    + (1 - lam) * dual_value(q, lin) + 1e-9)

    def test_matches_lp_solver_reference(self):
        pytest.importorskip("scipy.optimize")
        cfg = GeneratorConfig("uniform", n=300, m=4, k=5,
                              eta=(0.65, 0.75, 0.85, 0.95), seed=12)
        lin = linearize(to_soc(generate(cfg)))
        lp_opt = lp_optimum(lin)
        cert = minimize_dual(lin, tol=1e-8)
        assert cert.value >= lp_opt - 1e-6          # dual upper-bounds the LP
        assert abs(cert.value - lp_opt) <= 1e-4 * lp_opt
        # the certified lower bound is a feasible revenue: below the LP
        # optimum up to HiGHS's own feasibility tolerance
        assert cert.value - cert.gap <= lp_opt * (1 + 1e-9)
        assert cert.gap <= 1e-8 * cert.value

    @pytest.mark.parametrize("experiment", ["uniform", "chi_square"])
    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
    def test_gap_within_tol(self, experiment, tol):
        lin = linearize(to_soc(generate(GeneratorConfig(
            experiment, n=400, m=4, k=5, eta=(0.65, 0.75, 0.85, 0.95), seed=3))))
        cert = minimize_dual(lin, tol=tol)
        assert 0.0 <= cert.gap <= tol * max(abs(cert.value), 1.0)
        assert cert.value == dual_value(cert.p_star, lin)

    @pytest.mark.parametrize("experiment", ["uniform", "chi_square"])
    def test_looser_tol_never_costs_more_passes(self, experiment):
        for seed in (1, 2, 3):
            lin = linearize(to_soc(generate(GeneratorConfig(
                experiment, n=300, m=4, k=5, eta=(0.65, 0.75, 0.85, 0.95), seed=seed))))
            passes = [minimize_dual(lin, tol=tol).iterations
                      for tol in (1e-2, 1e-4, 1e-6, 1e-8, 1e-9)]
            assert passes == sorted(passes), (seed, passes)

    def test_slack_budgets_certify_in_one_pass(self):
        # no selection can use more than 4 n of a row, and the budget is
        # 5 n: the greedy selection at p = 0 is feasible, and its revenue
        # is f(0)
        inst = random_instance(np.random.default_rng(11), n=20, psi=np.zeros(4))
        inst = Instance(inst.c, inst.a_bar, inst.k_diag, np.full(4, 5.0), inst.risk)
        cert = minimize_dual(linearize(inst), tol=1e-9)
        assert cert.iterations == 1
        assert cert.gap == 0.0
        assert np.array_equal(cert.p_star, np.zeros(4))

    def test_pass_count_guard(self):
        # the fixed subgradient schedule this method replaced spent 1441
        # evaluations on this certificate
        lin = linearize(to_soc(generate(GeneratorConfig(
            "uniform", n=2500, m=4, k=5, eta=(0.65, 0.75, 0.85, 0.95), seed=12))))
        cert = minimize_dual(lin, tol=1e-6)
        assert cert.iterations <= 150
        assert cert.gap <= 1e-6 * cert.value


class TestStressAgainstLP:
    def test_every_certificate_closes(self):
        pytest.importorskip("scipy.optimize")
        still_open = []
        for index, inst in enumerate(stress_set()):
            lin = linearize(inst)
            lp_opt = lp_optimum(lin)
            try:
                cert = minimize_dual(lin, tol=1e-6)
            except ConvergenceError as err:
                still_open.append(index)
                cert = err.certificate
            assert cert.value >= lp_opt * (1 - 1e-9), index
            assert cert.value - cert.gap <= lp_opt * (1 + 1e-9), index
        assert not still_open

    @pytest.mark.parametrize("index", [41, 89, 121])
    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_tied_instance_closes(self, index, tol):
        # rounded instances of the stress set whose prices reach the LP
        # optimum while a lower bound recovered from the tied pairs
        # stayed short of it
        pytest.importorskip("scipy.optimize")
        lin = linearize(next(itertools.islice(stress_set(), index, None)))
        lp_opt = lp_optimum(lin)
        cert = minimize_dual(lin, tol=tol)
        assert cert.gap <= tol * max(cert.value, 1.0)
        assert cert.value >= lp_opt * (1 - 1e-9)
        assert cert.value - cert.gap <= lp_opt * (1 + 1e-9)


class TestSmoothedPass:
    @pytest.mark.parametrize("n, m, k, psi", [
        (1, 1, 1, 0.0), (1, 3, 4, 1.2), (7, 1, 3, 0.8), (9, 4, 1, 0.5),
        (CHUNK, 2, 2, 0.0), (2 * CHUNK + 37, 4, 5, 1.6)])
    @pytest.mark.parametrize("mu", [1e-4, 0.05])
    def test_matches_per_resource_oracle(self, n, m, k, psi, mu):
        rng = np.random.default_rng(n * 31 + m * 7 + k)
        lin = linearize(random_instance(rng, n=n, m=m, k=k, psi=np.full(m, psi)))
        prices = rng.uniform(0.0, 0.5, m)
        f, g, h, low = _smoothed(prices, lin, mu)
        f_ref, g_ref, h_ref, revenue_ref = smoothed_by_resource(prices, lin, mu)
        # g and h are differences of sums over requests; their scale is
        # that of the sums
        a_max = lin.columns.max()
        assert f == pytest.approx(f_ref, rel=1e-12)
        np.testing.assert_allclose(g, g_ref, rtol=1e-12, atol=1e-12 * n * a_max)
        np.testing.assert_allclose(h, h_ref, rtol=1e-12, atol=1e-12 * n * a_max ** 2 / mu)
        assert np.array_equal(h, h.T)
        # the bound is the softmax weights' revenue, scaled down to fit every row
        b = lin.base.budget
        fit = min(b[j] / max(b[j] - g_ref[j], b[j]) for j in range(m))
        assert low == pytest.approx(max(fit * revenue_ref, 0.0), rel=1e-12)


class TestSingleRequest:
    @given(c=hst.floats(-5.0, 5.0), a_bar=hst.floats(0.0, 4.0),
           k_diag=hst.floats(0.0, 4.0), psi=hst.floats(0.0, 3.0),
           d=hst.floats(0.01, 5.0))
    @example(c=1.5, a_bar=0.0, k_diag=0.0, psi=1.0, d=0.5)  # a_tilde = 0
    @example(c=-1.0, a_bar=2.0, k_diag=1.0, psi=1.0, d=0.5)
    @example(c=0.0, a_bar=1.0, k_diag=0.0, psi=0.0, d=2.0)
    @example(c=2.0, a_bar=1.0, k_diag=1.0, psi=0.0, d=1.0)  # d = a_tilde
    @settings(max_examples=60, deadline=None)
    def test_value_is_the_fractional_optimum(self, c, a_bar, k_diag, psi, d):
        # n = m = k = 1: take as much of the request as the budget allows
        lin = linearize(Instance([[c]], [[[a_bar]]], [[[k_diag]]], [d], RiskSpec(psi=[psi])))
        column = float(lin.columns[0, 0, 0])
        expected = max(c, 0.0) * (min(1.0, d / column) if column > 0 else 1.0)
        tol = 1e-6
        cert = minimize_dual(lin, tol=tol)
        assert abs(cert.value - expected) <= tol * max(expected, 1.0)


class TestWeakDuality:
    def test_greedy_revenue_below_certificate(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            inst = random_instance(np.random.default_rng(seed), n=80,
                                   eta=(0.65, 0.75, 0.85, 0.95))
            inst = to_soc(inst)
            lin = linearize(inst)
            decisions, revenue = greedy_primal(lin)
            cert = minimize_dual(lin, tol=1e-8)
            assert revenue <= cert.value + 1e-6

    def test_greedy_is_feasible(self):
        inst = to_soc(random_instance(np.random.default_rng(9), n=60,
                                      eta=(0.65, 0.75, 0.85, 0.95)))
        lin = linearize(inst)
        decisions, revenue = greedy_primal(lin)
        used = np.zeros(inst.m)
        for t, l in enumerate(decisions):
            if l is not None:
                used += a_tilde(lin)[t, :, l]
        assert np.all(used <= inst.budget + 1e-9)


class TestUpperBoundChain:
    def test_integer_cone_optimum_below_linear_relaxation(self):
        # brute force over all one-hot selections of tiny instances: the
        # best cone-feasible integer revenue never beats the linear
        # relaxation's dual value
        rng = np.random.default_rng(10)
        for case in range(10):
            n, k = 6, 2
            inst = random_instance(rng, n=n, m=1, k=k,
                                   psi=np.array([rng.uniform(0.3, 1.5)]))
            lin = linearize(inst)
            b = inst.budget
            best = 0.0
            for combo in itertools.product(range(k + 1), repeat=n):
                decisions = [None if c == k else c for c in combo]
                trace = trace_by_recomputation(inst, decisions)
                if np.all(soc_lhs(trace, inst) <= b):
                    best = max(best, trace.objective)
            cert = minimize_dual(lin, tol=1e-9)
            assert best <= cert.value + 1e-6

    def test_degenerate_case_closes(self):
        # case 9 above: n = 6, m = 1, the optimum splits one request; the
        # certified gap closes and the value matches a grid search
        rng = np.random.default_rng(10)
        for _ in range(10):
            inst = random_instance(rng, n=6, m=1, k=2,
                                   psi=np.array([rng.uniform(0.3, 1.5)]))
        lin = linearize(inst)
        cert = minimize_dual(lin, tol=1e-9)
        assert cert.gap <= 1e-9 * max(cert.value, 1.0)
        grid = grid_search_1d(lin, 0.0, inst.c.max() / inst.d.min())
        assert cert.value <= grid + 1e-12   # grid points are feasible duals
        assert grid - cert.value <= 1e-4 * grid
