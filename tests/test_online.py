"""Online solver: pricing, decisions, dual updates, variants, causality, lanes.

The pricing, decision and dual-step tests step a one-lane solver
(``helpers.step``) on hand-built instances with psi = 0, so the vanilla
columns equal the means given, and read the margins from its step
recorder.  The lane
tests check that a lane set of many runs gives each run's trace bit for
bit as the run alone does.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from socalloc import (ConfigError, DomainError, GeneratorConfig, Instance, OnlineSolver,
                      RiskSpec, StructuralError, VariantConfig, generate,
                      linearize, run_online, soc_lhs, to_soc)
from socalloc.online import VARIANTS, Lanes

from helpers import (a_tilde, forced_run, priced_margins, projected_step, random_instance,
                     step, traced_peak_mb)

ETA_GRID = (0.65, 0.75, 0.85, 0.95)


def experiment_one(n, seed, eta=ETA_GRID):
    cfg = GeneratorConfig("uniform", n=n, m=4, k=5, eta=eta, seed=seed)
    return to_soc(generate(cfg))


def hand_solver(c, cols, prices=None, *, n=1, t=0, config=VariantConfig()):
    """Solver over n copies of one request (revenue c, columns cols, zero
    variance, psi = 0, d = 1), positioned at step t with the given prices."""
    c = np.asarray(c, dtype=float)
    cols = np.asarray(cols, dtype=float)
    m, k = cols.shape
    inst = Instance(np.tile(c, (n, 1)), np.tile(cols, (n, 1, 1)),
                    np.zeros((n, m, k)), np.ones(m), RiskSpec(psi=np.zeros(m)))
    solver = OnlineSolver(inst, config, record_steps=True)
    if prices is not None:
        solver.lanes.prices[0] = prices
    solver.lanes.t = t
    return solver


def margins(c, cols, prices=None):
    """Every scheme's margin, as the recorder reports it on a one-scheme
    instance holding that scheme alone."""
    c = np.asarray(c, dtype=float)
    cols = np.asarray(cols, dtype=float)
    out = []
    for l in range(len(c)):
        solver = hand_solver(c[l:l + 1], cols[:, l:l + 1], prices)
        step(solver)
        out.append(solver.steps[0][-1])
    return np.array(out)


class TestReducedValues:
    def test_zero_prices_give_revenue(self):
        c = np.array([0.3, 0.9, 0.1])
        cols = np.random.default_rng(0).random((2, 3))
        assert np.array_equal(margins(c, cols), c)
        solver = hand_solver(c, cols)
        assert step(solver) == 1
        assert solver.steps[0][-1] == 0.9

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
        assert step(hand_solver([-0.2, -0.1], np.zeros((2, 2)))) is None

    def test_zero_margin_skips(self):
        # strict inequality: an exactly-zero best value is not taken
        solver = hand_solver([2.0], [[2.0]], prices=[1.0])
        assert step(solver) is None
        assert solver.steps[0][-1] == 0.0

    def test_unique_argmax(self):
        assert step(hand_solver([0.3, 0.7], np.zeros((1, 2)))) == 1

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
        a = step(hand_solver(c, cols, [0.0], n=18, t=17,
                             config=VariantConfig("vanilla", 5)))
        b = step(hand_solver(c, cols, [0.9], n=18, t=17,
                             config=VariantConfig("marginal", 5)))
        assert a == b


class TestDualUpdate:
    def test_balanced_consumption_leaves_prices(self):
        p = np.array([0.4, 0.2])
        solver = hand_solver([10.0], [[1.0], [1.0]], p, n=100)  # consumes d
        assert step(solver) == 0
        assert np.array_equal(solver.lanes.prices[0], p)

    def test_arithmetic(self):
        solver = hand_solver([1.0], [[0.7]], [0.2], n=100)
        assert step(solver) == 0
        assert solver.lanes.prices[0, 0] == pytest.approx(0.17, abs=1e-15)

    def test_projection_binds(self):
        solver = hand_solver([-1.0], [[0.5]], [0.01], n=100)
        assert step(solver) is None  # 0.01 + (0 - 1) / 10 < 0
        assert solver.lanes.prices[0, 0] == 0.0


class TestStepRecorder:
    def test_rows_follow_the_pricing_and_projected_step(self):
        # each recorded margin is the oracle's best margin at the previous
        # prices, and each recorded price vector the oracle's projected step
        rng = np.random.default_rng(30)
        inst = to_soc(random_instance(rng, n=60, m=3, k=4, eta=(0.7, 0.8, 0.9)))
        lin = linearize(inst)
        solver = OnlineSolver(inst, VariantConfig("vanilla", 30), record_steps=True)
        prices = np.zeros(inst.m)
        for t in range(inst.n):
            best = max(priced_margins(prices, inst.c[t], a_tilde(lin)[t]))
            scheme = step(solver)
            values, step_prices = solver.steps
            row_value, row_prices = values[-1], step_prices[-1]
            assert len(values) == len(step_prices) == t + 1
            assert row_value == pytest.approx(best, abs=1e-12)
            consumption = (np.zeros(inst.m) if scheme is None
                           else a_tilde(lin)[t, :, scheme])
            prices = projected_step(prices, consumption, inst.d,
                                    1.0 / math.sqrt(inst.n))
            assert np.allclose(row_prices, prices, rtol=1e-12, atol=1e-14)

    def test_record_holds_no_per_step_objects(self):
        # one tuple per step peaked at 4.36 MiB; two preallocated arrays, at 2.08 MiB,
        # against 1.70 MiB without the recorder
        inst = experiment_one(10000, seed=7)

        def run(limit=None):
            OnlineSolver(inst, VariantConfig("marginal"), record_steps=True).run(limit)
        assert traced_peak_mb(run, warm=lambda: run(5)) < 2.5


def marginal_costs(a_bar, k_diag, psi, taken=None):
    """The marginal variant's priced columns at one step, entry by entry.

    A one-scheme instance with zero revenue and prices e_j has margin
    minus entry (j, l) of the priced columns, exactly.  With ``taken`` =
    (a_bar, k_diag) of one scheme, the run first accepts that request.
    """
    a_bar, k_diag, psi = (np.asarray(x, dtype=float) for x in (a_bar, k_diag, psi))
    m, k = a_bar.shape
    cost = np.empty((m, k))
    for j in range(m):
        for l in range(k):
            c, a, kd = [[0.0]], [a_bar[:, l:l + 1]], [k_diag[:, l:l + 1]]
            if taken is not None:
                c, a, kd = ([[1.0]] + c, [np.reshape(taken[0], (m, 1))] + a,
                            [np.reshape(taken[1], (m, 1))] + kd)
            inst = Instance(c, a, kd, np.ones(m), RiskSpec(psi=psi))
            solver = OnlineSolver(inst, VariantConfig("marginal"), record_steps=True)
            if taken is not None:
                assert step(solver) == 0
            solver.lanes.prices[0] = np.eye(m)[j]
            step(solver)
            cost[j, l] = -solver.steps[0][-1]
    return cost


def after_step(variant, c, a_bar, prices, d, n, steps):
    """Prices after ``steps`` steps of n copies of one zero-variance,
    psi = 0 request, starting from ``prices``."""
    m, k = np.shape(a_bar)
    inst = Instance(np.tile(c, (n, 1)), np.tile(a_bar, (n, 1, 1)), np.zeros((n, m, k)),
                    d, RiskSpec(psi=np.zeros(m)))
    solver = OnlineSolver(inst, VariantConfig(variant))
    solver.lanes.prices[0] = prices
    for _ in range(steps):
        step(solver)
    return solver.lanes.prices[0].copy()


class TestMarginalCost:
    def test_first_step_pays_full_deviation(self):
        a_bar = np.array([[1.0, 2.0], [0.5, 0.1]])
        k_diag = np.array([[4.0, 1.0], [9.0, 0.0]])
        psi = np.array([1.5, 2.0])
        cost = marginal_costs(a_bar, k_diag, psi)
        assert np.allclose(cost, a_bar + psi[:, None] * np.sqrt(k_diag),
                           rtol=0, atol=0)

    def test_incremental_arithmetic(self):
        cost = marginal_costs([[0.0]], [[7.0]], [1.0], taken=([0.0], [9.0]))
        assert cost[0, 0] == pytest.approx(1.0, abs=1e-12)  # sqrt(16)-sqrt(9)

    def test_zero_variance_scheme_costs_its_mean(self):
        cost = marginal_costs([[2.5]], [[0.0]], [2.0], taken=([0.0], [3.7]))
        assert cost[0, 0] == 2.5

    def test_telescoping_equals_cone_usage(self):
        # charges summed along any run reproduce the final cone usage
        rng = np.random.default_rng(2)
        for case in range(100):
            n = int(rng.integers(3, 40))
            inst = random_instance(rng, n=n, m=3, k=4, psi=rng.uniform(0, 2.5, 3))
            decisions = [int(rng.integers(4)) if rng.random() < 0.7 else None
                         for _ in range(n)]
            trace, charged = forced_run(inst, decisions)
            assert trace.decisions == tuple(decisions)
            assert np.allclose(charged, soc_lhs(trace, inst), rtol=1e-10, atol=1e-10)


class TestDynamicBudget:
    # the dynamic target shows in the price step: from equal prices and
    # consumption, marginal-dynamic moves the prices exactly as the static
    # target d does when its target equals d
    def test_fresh_run_gets_static_budget(self):
        d = np.array([1.0, 2.0])
        args = ([1.0], [[0.5], [0.7]], [3.0, 3.0], d, 50, 1)
        assert np.array_equal(after_step("marginal-dynamic", *args),
                              after_step("marginal", *args))

    def test_exhausted_resource_target_zero(self):
        # ten steps of 5.5 leave G = 55 beyond b = 50 at t = 10: the target
        # is zero, so a skipped step leaves the price where it was
        n = 50
        c = np.r_[np.full(10, 100.0), -np.ones(n - 10)][:, None]
        inst = Instance(c, np.full((n, 1, 1), 5.5), np.zeros((n, 1, 1)), [1.0],
                        RiskSpec(psi=[0.0]))
        solver = OnlineSolver(inst, VariantConfig("marginal-dynamic"))
        assert solver.run(limit=10).decisions == (0,) * 10
        before = solver.lanes.prices[0].copy()
        assert before[0] > 0.0
        assert step(solver) is None
        assert solver.lanes.prices[0, 0] == before[0]

    def test_on_schedule_consumption_keeps_target(self):
        d = np.array([1.0, 0.5])
        args = ([10.0], d[:, None], [1.0, 1.0], d, 40, 13)
        assert np.allclose(after_step("marginal-dynamic", *args),
                           after_step("marginal", *args), rtol=0, atol=1e-12)


class TestRunOnline:
    def test_worthless_requests_all_skipped(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, n=30, psi=np.ones(4))
        inst = Instance(-inst.c, inst.a_bar, inst.k_diag, inst.d, inst.risk)
        solver = OnlineSolver(inst, record_steps=True)
        trace = solver.run()
        assert all(d is None for d in trace.decisions)
        assert trace.objective == 0.0
        assert np.array_equal(solver.steps[1], np.zeros((30, 4)))

    def test_instance_without_psi_refused(self):
        # the solver prices with psi, which only to_soc derives
        inst = generate(GeneratorConfig("uniform", n=10, m=2, k=3, eta=(0.9, 0.8)))
        with pytest.raises(ConfigError, match="to_soc"):
            OnlineSolver(inst)

    def test_single_step_toy(self):
        inst = Instance(c=[[1.0]], a_bar=[[[0.5]]], k_diag=[[[0.0]]],
                        d=[1.0], risk=RiskSpec(psi=[1.0]))
        trace = run_online(inst, linearize(inst))
        assert trace.decisions == (0,)
        assert trace.objective == 1.0

    def test_prefix_causality(self):
        inst = experiment_one(200, seed=21)
        full = OnlineSolver(inst, VariantConfig("vanilla", 21)).run()
        prefix = OnlineSolver(inst, VariantConfig("vanilla", 21)).run(limit=100)
        assert full.decisions[:100] == prefix.decisions

    def test_prefix_causality_corrected_variants(self):
        inst = experiment_one(120, seed=22)
        for variant in ("marginal", "marginal-dynamic"):
            full = OnlineSolver(inst, VariantConfig(variant, 22)).run()
            prefix = OnlineSolver(inst, VariantConfig(variant, 22)).run(limit=60)
            assert full.decisions[:60] == prefix.decisions

    def test_bitwise_determinism(self):
        inst = experiment_one(150, seed=23)
        for variant in ("vanilla", "marginal", "marginal-dynamic"):
            a = OnlineSolver(inst, VariantConfig(variant, 23)).run()
            b = OnlineSolver(inst, VariantConfig(variant, 23)).run()
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
            inst = experiment_one(400, seed=seed)
            trace = OnlineSolver(inst, VariantConfig("vanilla", seed)).run()
            bound = inst.c.max() / inst.d.min() + 1.0
            assert trace.max_dual_inf < bound

    def test_step_beyond_end_rejected(self):
        inst = experiment_one(10, seed=25)
        solver = OnlineSolver(inst)
        solver.run()
        with pytest.raises(StructuralError):
            step(solver)

    def test_corrected_variants_collapse_to_vanilla_at_zero_psi(self):
        rng = np.random.default_rng(26)
        inst = random_instance(rng, n=80, psi=np.zeros(4))
        base = OnlineSolver(inst, VariantConfig("vanilla", 7)).run()
        for variant in ("marginal", "marginal-dynamic"):
            other = OnlineSolver(inst, VariantConfig(variant, 7)).run()
            if variant == "marginal":
                assert other.decisions == base.decisions
            else:
                # the dynamic target drifts once realized consumption
                # deviates from d, so only the pricing collapse is exact
                assert other.decisions[:10] == base.decisions[:10]

    def test_marginal_run_charges_telescope_to_cone_usage(self):
        # the run's own decisions, replayed with their charges on record
        inst = experiment_one(250, seed=27)
        decisions = OnlineSolver(inst, VariantConfig("marginal", 27)).run().decisions
        trace, charged = forced_run(inst, decisions)
        assert trace.decisions == decisions
        assert np.allclose(charged, soc_lhs(trace, inst), rtol=1e-10, atol=1e-10)


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
            choice = step(hand_solver(c, cols, p))
            for s in (0.5, 2.0, 8.0):
                scaled = margins(s * c, s * cols, p)
                assert np.array_equal(scaled, s * base)
                assert np.array_equal(np.flatnonzero(base == base.max()),
                                      np.flatnonzero(scaled == scaled.max()))
                assert step(hand_solver(s * c, s * cols, p)) == choice

    def test_inverse_price_rescaling_is_identity(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            c = rng.random(4)
            cols = rng.random((2, 4))
            p = rng.random(2)
            for s in (0.25, 4.0):
                assert np.array_equal(margins(c, cols, p),
                                      margins(c, s * cols, p / s))


def assert_same_trace(got, want):
    assert got.decisions == want.decisions
    assert got.objective == want.objective
    assert np.array_equal(got.mean_consumption, want.mean_consumption)
    assert np.array_equal(got.variance_accum, want.variance_accum)
    assert got.max_dual_inf == want.max_dual_inf


def coarsened(inst):
    """Revenue, means and deviations rounded to multiples of 1/2, so that
    margins tie often."""
    return Instance(np.round(2 * inst.c) / 2, np.round(2 * inst.a_bar) / 2,
                    (np.round(2 * np.sqrt(inst.k_diag)) / 2) ** 2, inst.d, inst.risk)


def lane_set(seeds):
    """Every variant on every row, each lane with its row's seed."""
    return [(row, VariantConfig(v, seed)) for row, seed in enumerate(seeds)
            for v in VARIANTS]


def lanes_over(instances, lanes):
    """A lane set whose row r reads ``instances[r]``."""
    return Lanes(instances, instances[0].risk.psi, lanes)


def lane_traces(instances, lanes, limit=None):
    """Every lane's trace, in the order given, after a lane set over
    ``instances`` has run to ``limit``."""
    group = lanes_over(instances, lanes)
    group.run(limit)
    return [group.trace(lane) for lane in range(len(lanes))]


class TestLanes:
    @pytest.mark.parametrize("experiment", ["uniform", "chi_square"])
    def test_lanes_match_single_runs(self, experiment):
        # the trials x variants of one n, stepped together, give each run's
        # trace bit for bit; a one-lane set is run_online itself
        seeds = [11, 12, 13, 14]
        instances = [to_soc(generate(GeneratorConfig(
            experiment, n=300, m=4, k=5, eta=ETA_GRID, seed=seed))) for seed in seeds]
        lanes = lane_set(seeds)
        traces = lane_traces(instances, lanes)
        assert len(traces) == len(lanes)
        for (row, config), trace in zip(lanes, traces):
            assert_same_trace(trace, OnlineSolver(instances[row], config).run())

    def test_step_record_matches_single_runs(self):
        # lanes given out of variant order, over more than one block: each
        # lane's row of the record is its run's record alone
        seeds = [21, 22]
        instances = [experiment_one(1100, seed) for seed in seeds]
        lanes = lane_set(seeds)[::-1]
        group = Lanes(instances, instances[0].risk.psi, lanes, record_steps=True)
        group.run()
        for i, (row, config) in enumerate(lanes):
            alone = OnlineSolver(instances[row], config, record_steps=True)
            alone.run()
            for got, want in zip(group.steps, alone.steps):
                assert np.array_equal(got[i], want)

    def test_ties_draw_per_lane(self):
        # coarse coefficients make ties common; each lane draws its own
        # ties from its own seed, as it does alone
        rng = np.random.default_rng(40)
        n, m, k = 200, 2, 4
        instances = [Instance(rng.integers(1, 3, (n, k)) / 2,
                              rng.integers(0, 2, (n, m, k)) / 2,
                              rng.integers(0, 2, (n, m, k)) / 4, np.ones(m),
                              RiskSpec(psi=np.array([0.0, 0.5])))
                     for _ in range(3)]
        lanes = lane_set([1, 2, 3])
        # the same instance twice under two seeds: ties make them part ways
        lanes += [(0, VariantConfig("vanilla", 4))]
        traces = lane_traces(instances, lanes)
        for (row, config), trace in zip(lanes, traces):
            assert_same_trace(trace, OnlineSolver(instances[row], config).run())
        assert traces[0].decisions != traces[-1].decisions

    def test_lane_order_is_free(self):
        seeds = [5, 6]
        instances = [to_soc(generate(GeneratorConfig(
            "uniform", n=100, m=4, k=5, eta=ETA_GRID, seed=seed))) for seed in seeds]
        lanes = lane_set(seeds)
        forward = lane_traces(instances, lanes)
        backward = lane_traces(instances, lanes[::-1])[::-1]
        for a, b in zip(forward, backward):
            assert_same_trace(a, b)

    def test_instance_fill_strided_columns(self):
        # a lane set fills column r of its (T, R, ...) draw buffers from row r
        inst = experiment_one(40, seed=43)
        out = np.zeros((4, 2, 5)), np.zeros((4, 2, 4, 5)), np.zeros((4, 2, 4, 5))
        inst.fill(5, *(x[:, 1] for x in out))
        for got, want in zip(out, (inst.c, inst.a_bar, inst.k_diag)):
            assert np.array_equal(got[:, 1], want[5:9])
            assert not got[:, 0].any()

    def test_vanilla_prices_the_certified_columns(self):
        # the vanilla lanes price the columns the baseline certifies, bit for bit
        instances = [experiment_one(50, seed) for seed in (44, 45)]
        group = lanes_over(instances, lane_set([44, 45]))
        group.advance(1)
        assert group._mg == 2 and sorted(group._rows[:2]) == [0, 1]
        for i, row in enumerate(group._rows[:2]):
            assert np.array_equal(group._columns[0, i],
                                  a_tilde(linearize(instances[row]))[0])

    @pytest.mark.parametrize("k", [255, 256])
    def test_picks_hold_the_last_scheme(self, k):
        # a pick is l + 1 for scheme l: k = 255 fills a uint8, and at k = 256
        # a uint8 would wrap scheme 255 to 0, a skip
        rng = np.random.default_rng(46)
        inst = random_instance(rng, n=6, m=2, k=k, psi=np.ones(2))
        decisions = [k - 1, None, 0, k - 1, k // 2, None]
        trace, _ = forced_run(inst, decisions)
        assert trace.decisions == tuple(decisions)

    def test_nonfinite_coefficients_refused(self):
        rng = np.random.default_rng(42)
        inst = random_instance(rng, n=20, psi=np.ones(4))
        c = inst.c.copy()
        c[7, 2] = np.nan
        with pytest.raises(DomainError):
            Instance(c, inst.a_bar, inst.k_diag, inst.d, inst.risk)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(n=hst.integers(1, 25), m=hst.integers(1, 4), k=hst.integers(1, 5),
           seed=hst.integers(0, 2 ** 32 - 1), limit=hst.integers(0, 25),
           coarse=hst.booleans(), rows=hst.integers(1, 3))
    @example(n=1, m=1, k=1, seed=0, limit=0, coarse=False, rows=1)
    @example(n=1, m=1, k=1, seed=1, limit=1, coarse=True, rows=2)
    def test_prefix_causality_and_rerun_determinism(self, n, m, k, seed, limit,
                                                    coarse, rows):
        # coarse coefficients (multiples of 1/2) make ties, and so the
        # per-step tie stream, common
        rng = np.random.default_rng(seed)
        psi = rng.uniform(0, 2.5, m)
        instances = [random_instance(rng, n=n, m=m, k=k, psi=psi) for _ in range(rows)]
        if coarse:
            instances = [coarsened(inst) for inst in instances]
        lanes = lane_set([seed + row for row in range(rows)])
        full = lane_traces(instances, lanes)
        prefix = lane_traces(instances, lanes, limit=limit)
        for (row, config), lane_full, lane_prefix in zip(lanes, full, prefix):
            alone = OnlineSolver(instances[row], config).run()
            again = OnlineSolver(instances[row], config).run()
            assert len(alone.decisions) == n
            assert lane_prefix.decisions == alone.decisions[:limit]
            assert (OnlineSolver(instances[row], config).run(limit=limit).decisions
                    == alone.decisions[:limit])
            assert_same_trace(again, alone)
            assert_same_trace(lane_full, alone)


class TestVariantNames:
    def test_unknown_variant_rejected(self):
        from socalloc import ConfigError
        with pytest.raises(ConfigError):
            VariantConfig("turbo")

    def test_negative_tie_break_seed_rejected(self):
        # numpy's SeedSequence would refuse it only at the first tie
        with pytest.raises(DomainError, match="seed"):
            VariantConfig("vanilla", -1)
