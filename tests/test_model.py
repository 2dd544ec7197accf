"""Data model: construction, invariants, cone usage, serialization."""

import json

import numpy as np
import pytest

from socalloc import (ConfigError, GeneratorConfig, Instance, Request, RiskSpec,
                      SolutionTrace, StructuralError, generate, instance_from_dict,
                      instance_to_dict, soc_lhs, to_soc, trace_from_dict,
                      trace_to_dict, validate_instance)

from helpers import random_decisions, random_instance, trace_by_recomputation


def empty_trace(m: int, n: int = 0) -> SolutionTrace:
    return SolutionTrace(decisions=(None,) * n, objective=0.0,
                         mean_consumption=np.zeros(m), variance_accum=np.zeros(m))


class TestConstruction:
    def test_request_shape_check(self):
        with pytest.raises(StructuralError):
            Request(c=[1.0, 2.0], a_bar=[[1.0]], k_diag=[[0.0]])

    def test_instance_shape_checks(self):
        rng = np.random.default_rng(0)
        with pytest.raises(StructuralError):
            Instance(rng.random((3, 2)), rng.random((3, 4, 2)),
                     rng.random((3, 4, 2)), np.ones(3))  # d has wrong length
        with pytest.raises(StructuralError):
            Instance(rng.random((3, 5)), rng.random((3, 4, 2)),
                     rng.random((3, 4, 2)), np.ones(4))  # k mismatch

    def test_risk_length_must_match_m(self):
        rng = np.random.default_rng(0)
        with pytest.raises(StructuralError):
            Instance(rng.random((3, 2)), rng.random((3, 4, 2)),
                     rng.random((3, 4, 2)), np.ones(4),
                     RiskSpec(eta=[0.9, 0.9]))

    def test_arrays_frozen(self):
        inst = random_instance(np.random.default_rng(1), n=4)
        with pytest.raises(ValueError):
            inst.c[0, 0] = 99.0

    def test_frozen_owner_adopted(self):
        inst = generate(GeneratorConfig("uniform", n=5, m=2, k=3, eta=(0.9, 0.8), seed=1))
        soc = to_soc(inst)
        for name in ("c", "a_bar", "k_diag", "d"):
            assert np.shares_memory(getattr(inst, name), getattr(soc, name))

    def test_writable_or_borrowed_arrays_copied(self):
        rng = np.random.default_rng(4)
        c, a_bar, k_diag = rng.random((3, 2)), rng.random((3, 4, 2)), rng.random((3, 4, 2))
        view = k_diag[:]
        view.setflags(write=False)  # read-only, but its owner is writable
        inst = Instance(c, a_bar, view, np.ones(4))
        keep = inst.c.copy(), inst.a_bar.copy(), inst.k_diag.copy()
        for array in (c, a_bar, k_diag):
            array[...] = -1.0
        assert not np.shares_memory(inst.k_diag, k_diag)
        assert all(np.array_equal(a, b) for a, b in
                   zip((inst.c, inst.a_bar, inst.k_diag), keep))

    def test_from_requests_round_trip(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng, n=6)
        rebuilt = Instance.from_requests(list(inst.requests()), inst.d, inst.risk)
        assert np.array_equal(rebuilt.c, inst.c)
        assert np.array_equal(rebuilt.a_bar, inst.a_bar)
        assert np.array_equal(rebuilt.k_diag, inst.k_diag)

    def test_budget_is_n_times_d(self):
        inst = random_instance(np.random.default_rng(3), n=7)
        assert np.array_equal(inst.budget, 7 * inst.d)


class TestDiagonalIdentity:
    def test_unit_selection_matches_gamma_dot(self):
        # single-choice selections never see off-diagonal terms: for each
        # unit vector, sqrt(e' K e) equals gamma . e with gamma the
        # square-root diagonal
        rng = np.random.default_rng(4)
        for _ in range(200):
            req = Request(c=rng.random(3), a_bar=rng.random((2, 3)),
                          k_diag=rng.random((2, 3)))
            gamma = req.gamma
            for l in range(3):
                e = np.zeros(3)
                e[l] = 1.0
                quad = np.sqrt(e @ np.diag(req.k_diag[0]) @ e)
                assert quad == pytest.approx(gamma[0] @ e, abs=0)


class TestSocLhs:
    def test_empty_selection_is_zero(self):
        inst = random_instance(np.random.default_rng(5), n=5,
                               psi=np.ones(4) * 1.5)
        assert np.array_equal(soc_lhs(empty_trace(4, 5), inst), np.zeros(4))

    def test_single_decision_arithmetic(self):
        inst = Instance(c=[[1.0]], a_bar=[[[1.0]]], k_diag=[[[4.0]]],
                        d=[1.0], risk=RiskSpec(psi=[1.5]))
        trace = SolutionTrace(decisions=(0,), objective=1.0,
                              mean_consumption=[1.0], variance_accum=[4.0])
        assert soc_lhs(trace, inst)[0] == pytest.approx(1.0 + 1.5 * 2.0, abs=0)

    def test_incremental_matches_recomputation(self):
        rng = np.random.default_rng(6)
        inst = random_instance(rng, n=50, psi=rng.uniform(0, 2, 4))
        decisions = random_decisions(rng, 50, inst.k)
        oracle = trace_by_recomputation(inst, decisions)
        # incremental accumulation
        mean = np.zeros(4)
        var = np.zeros(4)
        for t, l in enumerate(decisions):
            if l is not None:
                mean += inst.a_bar[t, :, l]
                var += inst.k_diag[t, :, l]
        inc = SolutionTrace(decisions=tuple(decisions), objective=oracle.objective,
                            mean_consumption=mean, variance_accum=var)
        assert np.allclose(soc_lhs(inc, inst), soc_lhs(oracle, inst),
                           rtol=1e-12, atol=0)

    def test_monotone_in_decisions(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng, n=30, psi=rng.uniform(0, 2, 4))
        decisions = [None] * 30
        prev = soc_lhs(trace_by_recomputation(inst, decisions), inst)
        for t in range(30):
            decisions[t] = int(rng.integers(inst.k))
            cur = soc_lhs(trace_by_recomputation(inst, decisions), inst)
            assert np.all(cur >= prev - 1e-12)
            prev = cur

    def test_requires_psi(self):
        inst = random_instance(np.random.default_rng(8), n=3)
        with pytest.raises(ConfigError):
            soc_lhs(empty_trace(4, 3), inst)

    def test_dimension_mismatch(self):
        inst = random_instance(np.random.default_rng(9), n=3, psi=np.ones(4))
        with pytest.raises(StructuralError):
            soc_lhs(empty_trace(2, 3), inst)


class TestRiskSpec:
    def test_targets_of_unequal_length_rejected(self):
        # to_soc reads eta[j] and gamma_tilde[j] for every resource j
        with pytest.raises(StructuralError):
            RiskSpec(eta=(0.9, 0.9), gamma_tilde=(0.3,))


class TestValidate:
    def test_well_formed_instance_is_ok(self):
        inst = random_instance(np.random.default_rng(10), n=20,
                               eta=(0.65, 0.75, 0.85, 0.95))
        assert validate_instance(inst) == []

    def test_zero_budget_flagged(self):
        inst = random_instance(np.random.default_rng(11), n=5)
        bad = Instance(inst.c, inst.a_bar, inst.k_diag,
                       np.array([1.0, 1.0, 0.0, 1.0]), inst.risk)
        assert any("budget" in p for p in validate_instance(bad))

    def test_negative_variance_flagged(self):
        inst = random_instance(np.random.default_rng(12), n=5)
        k_diag = inst.k_diag.copy()
        k_diag[0, 0, 0] = -0.1
        bad = Instance(inst.c, inst.a_bar, k_diag, inst.d, inst.risk)
        assert any("variance" in p for p in validate_instance(bad))

    def test_collects_every_violation(self):
        inst = random_instance(np.random.default_rng(13), n=5)
        k_diag = inst.k_diag.copy()
        k_diag[0, 0, 0] = -0.1
        bad = Instance(inst.c, inst.a_bar, k_diag, np.zeros(4),
                       RiskSpec(eta=[1.5, 0.5, 0.5, 0.5]))
        assert len(validate_instance(bad)) >= 3

    def test_inconsistent_psi_flagged(self):
        inst = random_instance(np.random.default_rng(14), n=5,
                               eta=(0.65, 0.75, 0.85, 0.95),
                               psi=np.ones(4) * 9.0)
        assert any("inconsistent" in p for p in validate_instance(inst))


class TestSerialization:
    def test_instance_json_round_trip_is_lossless(self):
        rng = np.random.default_rng(15)
        inst = random_instance(rng, n=12, eta=(0.65, 0.75, 0.85, 0.95),
                               gamma_tilde=(0.2, 0.3, 0.4, 0.5))
        doc = json.loads(json.dumps(instance_to_dict(inst)))
        back = instance_from_dict(doc)
        assert np.array_equal(back.c, inst.c)
        assert np.array_equal(back.a_bar, inst.a_bar)
        assert np.array_equal(back.k_diag, inst.k_diag)
        assert np.array_equal(back.d, inst.d)
        assert np.array_equal(back.risk.eta, inst.risk.eta)
        assert np.array_equal(back.risk.gamma_tilde, inst.risk.gamma_tilde)

    def test_declared_counts_verified(self):
        inst = random_instance(np.random.default_rng(16), n=4)
        doc = instance_to_dict(inst)
        doc["n"] = 7
        with pytest.raises(StructuralError):
            instance_from_dict(doc)

    def test_trace_json_round_trip(self):
        rng = np.random.default_rng(17)
        inst = random_instance(rng, n=9)
        decisions = random_decisions(rng, 9, inst.k)
        trace = trace_by_recomputation(inst, decisions)
        back = trace_from_dict(json.loads(json.dumps(trace_to_dict(trace))))
        assert back.decisions == trace.decisions
        assert back.objective == trace.objective
        assert np.array_equal(back.mean_consumption, trace.mean_consumption)
        assert np.array_equal(back.variance_accum, trace.variance_accum)
