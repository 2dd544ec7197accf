"""Online solver: pricing, decisions, dual updates, variants, causality.

The pricing, decision and dual-step tests drive ``OnlineSolver.step`` on
hand-built instances with psi = 0, so the vanilla columns equal the
means given, and read the margins from its step recorder.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from socalloc import (DualState, GeneratorConfig, Instance, OnlineSolver,
                      RiskSpec, StructuralError, VariantConfig, dynamic_budget,
                      generate, linearize, marginal_soc_cost, run_online,
                      soc_lhs, to_soc)
from socalloc.online import VARIANTS, canonical_variant

from helpers import priced_margins, projected_step, random_instance

ETA_GRID = (0.65, 0.75, 0.85, 0.95)


def experiment_one(n, seed, eta=ETA_GRID):
    cfg = GeneratorConfig("uniform", n=n, m=4, k=5, eta=eta, seed=seed)
    inst = to_soc(generate(cfg))
    return inst, linearize(inst)


def state_with(prices, n=100, t=0, **kw):
    return DualState(prices=np.asarray(prices, dtype=float),
                     step_size=1.0 / math.sqrt(n), t=t, **kw)


def hand_solver(c, cols, prices=None, *, n=1, t=0, config=VariantConfig()):
    """Solver over n copies of one request (revenue c, columns cols, zero
    variance, psi = 0, d = 1), positioned at step t with the given prices."""
    c = np.asarray(c, dtype=float)
    cols = np.asarray(cols, dtype=float)
    m, k = cols.shape
    inst = Instance(np.tile(c, (n, 1)), np.tile(cols, (n, 1, 1)),
                    np.zeros((n, m, k)), np.ones(m), RiskSpec(psi=np.zeros(m)))
    solver = OnlineSolver(linearize(inst), config, record_steps=True)
    if prices is not None:
        solver.state.prices = np.asarray(prices, dtype=float)
    solver.state.t = t
    return solver


def margins(c, cols, prices=None):
    """Every scheme's margin, as the recorder reports it on a one-scheme
    instance holding that scheme alone."""
    c = np.asarray(c, dtype=float)
    cols = np.asarray(cols, dtype=float)
    out = []
    for l in range(len(c)):
        solver = hand_solver(c[l:l + 1], cols[:, l:l + 1], prices)
        solver.step()
        out.append(solver.steps[-1][2])
    return np.array(out)


class TestReducedValues:
    def test_zero_prices_give_revenue(self):
        c = np.array([0.3, 0.9, 0.1])
        cols = np.random.default_rng(0).random((2, 3))
        assert np.array_equal(margins(c, cols), c)
        solver = hand_solver(c, cols)
        assert solver.step() == 1
        assert solver.steps[-1][2] == 0.9

    def test_arithmetic(self):
        vals = margins([0.5, 0.7], [[2.0, 3.0]], prices=[0.1])
        assert np.allclose(vals, [0.3, 0.4], rtol=0, atol=1e-15)

    def test_constructed_indifference(self):
        rng = np.random.default_rng(1)
        cols = rng.random((3, 4))
        p = rng.random(3)
        c = p @ cols
        assert np.allclose(margins(c, cols, p), 0.0, atol=1e-15)


class TestDecide:
    def test_all_nonpositive_skips(self):
        assert hand_solver([-0.2, -0.1], np.zeros((2, 2))).step() is None

    def test_zero_margin_skips(self):
        # strict inequality: an exactly-zero best value is not taken
        solver = hand_solver([2.0], [[2.0]], prices=[1.0])
        assert solver.step() is None
        assert solver.steps[-1][2] == 0.0

    def test_unique_argmax(self):
        assert hand_solver([0.3, 0.7], np.zeros((1, 2))).step() == 1

    def test_tie_breaking_is_uniform(self):
        # nothing is consumed, so the prices stay clipped at zero and
        # every step is a tie between schemes 0 and 1
        solver = hand_solver([0.5, 0.5, -1.0], np.zeros((1, 3)), n=10_000,
                             config=VariantConfig("vanilla", 99))
        trace = solver.run()
        counts = np.bincount(trace.decisions, minlength=3)
        assert counts[2] == 0
        assert abs(counts[0] / 10_000 - 0.5) < 0.02
        assert abs(counts[1] / 10_000 - 0.5) < 0.02

    def test_tie_draw_depends_only_on_seed_and_step(self):
        c = [0.5, 0.5]
        cols = np.zeros((1, 2))
        a = hand_solver(c, cols, [0.0], n=18, t=17,
                        config=VariantConfig("vanilla", 5)).step()
        b = hand_solver(c, cols, [0.9], n=18, t=17,
                        config=VariantConfig("marginal", 5)).step()
        assert a == b


class TestDualUpdate:
    def test_balanced_consumption_leaves_prices(self):
        p = np.array([0.4, 0.2])
        solver = hand_solver([10.0], [[1.0], [1.0]], p, n=100)  # consumes d
        assert solver.step() == 0
        assert np.array_equal(solver.state.prices, p)

    def test_arithmetic(self):
        solver = hand_solver([1.0], [[0.7]], [0.2], n=100)
        assert solver.step() == 0
        assert solver.state.prices[0] == pytest.approx(0.17, abs=1e-15)

    def test_projection_binds(self):
        solver = hand_solver([-1.0], [[0.5]], [0.01], n=100)
        assert solver.step() is None  # 0.01 + (0 - 1) / 10 < 0
        assert solver.state.prices[0] == 0.0


class TestStepRecorder:
    def test_rows_follow_the_pricing_and_projected_step(self):
        # each recorded margin is the oracle's best margin at the previous
        # prices, and each recorded price vector the oracle's projected step
        rng = np.random.default_rng(30)
        inst = to_soc(random_instance(rng, n=60, m=3, k=4, eta=(0.7, 0.8, 0.9)))
        lin = linearize(inst)
        solver = OnlineSolver(lin, VariantConfig("vanilla", 30), record_steps=True)
        prices = np.zeros(inst.m)
        for t in range(inst.n):
            best = max(priced_margins(prices, inst.c[t], lin.a_tilde[t]))
            scheme = solver.step()
            row_t, row_scheme, row_value, row_prices = solver.steps[-1]
            assert (row_t, row_scheme) == (t, scheme)
            assert row_value == pytest.approx(best, abs=1e-12)
            consumption = (np.zeros(inst.m) if scheme is None
                           else lin.a_tilde[t, :, scheme])
            prices = projected_step(prices, consumption, inst.d,
                                    1.0 / math.sqrt(inst.n))
            assert np.allclose(row_prices, prices, rtol=1e-12, atol=1e-14)


class TestMarginalCost:
    def test_first_step_pays_full_deviation(self):
        st = state_with([0.0, 0.0], n=25)
        a_bar = np.array([[1.0, 2.0], [0.5, 0.1]])
        k_diag = np.array([[4.0, 1.0], [9.0, 0.0]])
        psi = np.array([1.5, 2.0])
        cost = marginal_soc_cost(st, a_bar, k_diag, psi)
        assert np.allclose(cost, a_bar + psi[:, None] * np.sqrt(k_diag),
                           rtol=0, atol=0)

    def test_incremental_arithmetic(self):
        st = state_with([0.0], n=25, q_accum=np.array([9.0]))
        cost = marginal_soc_cost(st, np.array([[0.0]]), np.array([[7.0]]),
                                 np.array([1.0]))
        assert cost[0, 0] == pytest.approx(1.0, abs=1e-12)  # sqrt(16)-sqrt(9)

    def test_zero_variance_scheme_costs_its_mean(self):
        st = state_with([0.0], n=25, q_accum=np.array([3.7]))
        cost = marginal_soc_cost(st, np.array([[2.5]]), np.array([[0.0]]),
                                 np.array([2.0]))
        assert cost[0, 0] == 2.5

    def test_telescoping_equals_cone_usage(self):
        # charges summed along any run reproduce the final cone usage
        rng = np.random.default_rng(2)
        for case in range(100):
            n = int(rng.integers(3, 40))
            inst = random_instance(rng, n=n, m=3, k=4, psi=rng.uniform(0, 2.5, 3))
            st = state_with(np.zeros(3), n=n)
            charged = np.zeros(3)
            decisions = []
            for t in range(n):
                cost = marginal_soc_cost(st, inst.a_bar[t], inst.k_diag[t],
                                         inst.risk.psi)
                if rng.random() < 0.7:
                    l = int(rng.integers(4))
                    charged += cost[:, l]
                    st.mean_accum += inst.a_bar[t, :, l]
                    st.q_accum += inst.k_diag[t, :, l]
                    decisions.append(l)
                else:
                    decisions.append(None)
            from helpers import trace_by_recomputation
            trace = trace_by_recomputation(inst, decisions)
            assert np.allclose(charged, soc_lhs(trace, inst), rtol=1e-10, atol=1e-10)


class TestDynamicBudget:
    def test_fresh_run_gets_static_budget(self):
        st = state_with(np.zeros(2), n=50)
        d = np.array([1.0, 2.0])
        assert np.array_equal(dynamic_budget(st, d, 50), d)

    def test_exhausted_resource_target_zero(self):
        st = state_with(np.zeros(1), n=50, t=10,
                        g_accum=np.array([55.0]))  # beyond b = 50
        assert dynamic_budget(st, np.array([1.0]), 50)[0] == 0.0

    def test_on_schedule_consumption_keeps_target(self):
        d = np.array([1.0, 0.5])
        st = state_with(np.zeros(2), n=40, t=12, g_accum=12 * d)
        assert np.allclose(dynamic_budget(st, d, 40), d, rtol=0, atol=1e-12)


class TestRunOnline:
    def test_worthless_requests_all_skipped(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, n=30, psi=np.ones(4))
        inst = Instance(-inst.c, inst.a_bar, inst.k_diag, inst.d, inst.risk)
        solver = OnlineSolver(linearize(inst), record_steps=True)
        trace = solver.run()
        assert all(d is None for d in trace.decisions)
        assert trace.objective == 0.0
        assert all(np.array_equal(prices, np.zeros(4)) for *_, prices in solver.steps)

    def test_single_step_toy(self):
        inst = Instance(c=[[1.0]], a_bar=[[[0.5]]], k_diag=[[[0.0]]],
                        d=[1.0], risk=RiskSpec(psi=[1.0]))
        trace = run_online(inst, linearize(inst))
        assert trace.decisions == (0,)
        assert trace.objective == 1.0

    def test_prefix_causality(self):
        inst, lin = experiment_one(200, seed=21)
        full = run_online(inst, lin, VariantConfig("vanilla", 21))
        prefix = run_online(inst, lin, VariantConfig("vanilla", 21), limit=100)
        assert full.decisions[:100] == prefix.decisions

    def test_prefix_causality_corrected_variants(self):
        inst, lin = experiment_one(120, seed=22)
        for variant in ("marginal", "marginal-dynamic"):
            full = run_online(inst, lin, VariantConfig(variant, 22))
            prefix = run_online(inst, lin, VariantConfig(variant, 22), limit=60)
            assert full.decisions[:60] == prefix.decisions

    def test_bitwise_determinism(self):
        inst, lin = experiment_one(150, seed=23)
        for variant in ("vanilla", "marginal", "marginal-dynamic"):
            a = run_online(inst, lin, VariantConfig(variant, 23))
            b = run_online(inst, lin, VariantConfig(variant, 23))
            assert a.decisions == b.decisions
            assert a.objective == b.objective
            assert np.array_equal(a.mean_consumption, b.mean_consumption)
            assert np.array_equal(a.variance_accum, b.variance_accum)

    def test_foreign_linearization_rejected(self):
        # same shape, other coefficients: the columns would price the wrong
        # requests, so the pairing is refused rather than checked by shape
        rng = np.random.default_rng(24)
        inst = random_instance(rng, n=20, psi=np.ones(4))
        other = random_instance(rng, n=20, psi=np.ones(4))
        with pytest.raises(StructuralError):
            run_online(inst, linearize(other))
        assert run_online(inst, linearize(inst)).decisions

    def test_dual_prices_stay_bounded(self):
        # prices never exceed max-revenue / min-budget by more than one
        for seed in range(10):
            inst, lin = experiment_one(400, seed=seed)
            trace = run_online(inst, lin, VariantConfig("vanilla", seed))
            bound = inst.c.max() / inst.d.min() + 1.0
            assert trace.max_dual_inf < bound

    def test_step_beyond_end_rejected(self):
        inst, lin = experiment_one(10, seed=25)
        solver = OnlineSolver(lin)
        solver.run()
        with pytest.raises(StructuralError):
            solver.step()

    def test_corrected_variants_collapse_to_vanilla_at_zero_psi(self):
        rng = np.random.default_rng(26)
        inst = random_instance(rng, n=80, psi=np.zeros(4))
        lin = linearize(inst)
        base = run_online(inst, lin, VariantConfig("vanilla", 7))
        for variant in ("marginal", "marginal-dynamic"):
            other = run_online(inst, lin, VariantConfig(variant, 7))
            if variant == "marginal":
                assert other.decisions == base.decisions
            else:
                # the dynamic target drifts once realized consumption
                # deviates from d, so only the pricing collapse is exact
                assert other.decisions[:10] == base.decisions[:10]

    def test_marginal_run_charges_telescope_to_cone_usage(self):
        inst, lin = experiment_one(250, seed=27)
        solver = OnlineSolver(lin, VariantConfig("marginal", 27))
        charged = np.zeros(inst.m)
        for t in range(inst.n):
            st = solver.state
            cost = marginal_soc_cost(st, inst.a_bar[t], inst.k_diag[t],
                                     inst.risk.psi)
            scheme = solver.step()
            if scheme is not None:
                charged += cost[:, scheme]
        assert np.allclose(charged, soc_lhs(solver.trace(), inst),
                           rtol=1e-10, atol=1e-10)


class TestArgmaxInvariance:
    def test_power_of_two_scaling_preserves_argmax_exactly(self):
        # scaling revenue and columns by powers of two is exact in binary
        # floating point, so the argmax set cannot move
        rng = np.random.default_rng(28)
        for _ in range(200):
            c = rng.random(5)
            cols = rng.random((3, 5))
            p = rng.random(3)
            base = margins(c, cols, p)
            choice = hand_solver(c, cols, p).step()
            for s in (0.5, 2.0, 8.0):
                scaled = margins(s * c, s * cols, p)
                assert np.array_equal(scaled, s * base)
                assert np.array_equal(np.flatnonzero(base == base.max()),
                                      np.flatnonzero(scaled == scaled.max()))
                assert hand_solver(s * c, s * cols, p).step() == choice

    def test_inverse_price_rescaling_is_identity(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            c = rng.random(4)
            cols = rng.random((2, 4))
            p = rng.random(2)
            for s in (0.25, 4.0):
                assert np.array_equal(margins(c, cols, p),
                                      margins(c, s * cols, p / s))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(n=hst.integers(1, 25), m=hst.integers(1, 4), k=hst.integers(1, 5),
           seed=hst.integers(0, 2 ** 32 - 1), limit=hst.integers(0, 25),
           coarse=hst.booleans())
    @example(n=1, m=1, k=1, seed=0, limit=0, coarse=False)
    @example(n=1, m=1, k=1, seed=1, limit=1, coarse=True)
    def test_prefix_causality_and_rerun_determinism(self, n, m, k, seed, limit,
                                                    coarse):
        # coarse coefficients (multiples of 1/2) make ties, and so the
        # per-step tie stream, common
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n=n, m=m, k=k, psi=rng.uniform(0, 2.5, m))
        if coarse:
            inst = Instance(np.round(2 * inst.c) / 2, np.round(2 * inst.a_bar) / 2,
                            inst.k_diag, inst.d, inst.risk)
        lin = linearize(inst)
        for variant in VARIANTS:
            config = VariantConfig(variant, seed)
            full = run_online(inst, lin, config)
            prefix = run_online(inst, lin, config, limit=limit)
            again = run_online(inst, lin, config)
            assert len(full.decisions) == n
            assert prefix.decisions == full.decisions[:limit]
            assert again.decisions == full.decisions
            assert again.objective == full.objective
            assert again.max_dual_inf == full.max_dual_inf
            assert np.array_equal(again.mean_consumption, full.mean_consumption)
            assert np.array_equal(again.variance_accum, full.variance_accum)


class TestVariantNames:
    def test_canonical_names(self):
        assert canonical_variant("marginal+dynamic") == "marginal-dynamic"
        assert canonical_variant("vanilla") == "vanilla"

    def test_unknown_variant_rejected(self):
        from socalloc import ConfigError
        with pytest.raises(ConfigError):
            VariantConfig("turbo")
