"""Data model: construction, invariants, cone usage, serialization."""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

from socalloc import (ConfigError, DomainError, GeneratorConfig, Instance, RiskSpec,
                      SolutionTrace, StructuralError, generate, load_instance,
                      load_trace, save_instance, save_trace, soc_lhs, to_soc)
from socalloc import model
from socalloc.generate import RequestDraws
from socalloc.model import CHUNK, _instance_from_dict, _trace_from_dict, _trace_to_dict, blocks

from helpers import (instance_json_bytes, random_decisions, random_instance,
                     trace_by_recomputation, traced_peak_mb, zip_members)


def empty_trace(m: int, n: int = 0) -> SolutionTrace:
    return SolutionTrace(decisions=(None,) * n, objective=0.0,
                         mean_consumption=np.zeros(m), variance_accum=np.zeros(m))


class TestConstruction:
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
            k_diag = rng.random((2, 3))
            gamma = np.sqrt(k_diag)
            for l in range(3):
                e = np.zeros(3)
                e[l] = 1.0
                quad = np.sqrt(e @ np.diag(k_diag[0]) @ e)
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


class TestTraceChecks:
    @pytest.mark.parametrize("field, value, word", [
        ("objective", np.nan, "objective"), ("objective", np.inf, "objective"),
        ("mean_consumption", [1.0, np.nan], "mean"),
        ("variance_accum", [1.0, -0.5], "variances"),
        ("variance_accum", [np.inf, 0.0], "variances"),
        ("max_dual_inf", -1.0, "peak price"), ("max_dual_inf", np.nan, "peak price")])
    def test_refused_at_construction(self, field, value, word):
        fields = {"decisions": (0, None), "objective": 1.0, "mean_consumption": [1.0, 2.0],
                  "variance_accum": [0.5, 0.0], "max_dual_inf": 0.3, field: value}
        with pytest.raises(DomainError, match=word):
            SolutionTrace(**fields)

    def test_names_every_violation(self):
        with pytest.raises(DomainError) as err:
            SolutionTrace(decisions=(), objective=np.nan, mean_consumption=[np.inf],
                          variance_accum=[-1.0], max_dual_inf=-1.0)
        message = str(err.value)
        assert all(word in message for word in ("objective", "mean", "variances", "peak"))


class TestRiskSpec:
    def test_targets_of_unequal_length_rejected(self):
        # to_soc reads eta[j] and gamma_tilde[j] for every resource j
        with pytest.raises(StructuralError):
            RiskSpec(eta=(0.9, 0.9), gamma_tilde=(0.3,))


class TestValidate:
    def test_well_formed_instance_is_ok(self):
        inst = random_instance(np.random.default_rng(10), n=20,
                               eta=(0.65, 0.75, 0.85, 0.95))
        assert to_soc(inst).risk.psi is not None

    def test_zero_budget_flagged(self):
        inst = random_instance(np.random.default_rng(11), n=5)
        with pytest.raises(DomainError, match="budget"):
            Instance(inst.c, inst.a_bar, inst.k_diag,
                     np.array([1.0, 1.0, 0.0, 1.0]), inst.risk)

    def test_negative_variance_flagged(self):
        inst = random_instance(np.random.default_rng(12), n=5)
        k_diag = inst.k_diag.copy()
        k_diag[0, 0, 0] = -0.1
        with pytest.raises(DomainError, match="variance"):
            Instance(inst.c, inst.a_bar, k_diag, inst.d, inst.risk)

    def test_collects_every_violation(self):
        inst = random_instance(np.random.default_rng(13), n=5)
        k_diag = inst.k_diag.copy()
        k_diag[0, 0, 0] = -0.1
        with pytest.raises(DomainError) as err:
            Instance(inst.c, inst.a_bar, k_diag, np.zeros(4), inst.risk)
        assert "variance" in str(err.value) and "budget" in str(err.value)

    def test_inconsistent_psi_flagged(self):
        with pytest.raises(DomainError, match="inconsistent"):
            random_instance(np.random.default_rng(14), n=5,
                            eta=(0.65, 0.75, 0.85, 0.95), psi=np.ones(4) * 9.0)

    @pytest.mark.parametrize("field, value", [
        ("c", np.nan), ("c", -np.inf), ("a_bar", np.inf), ("k_diag", np.nan),
        ("k_diag", np.inf)])
    def test_nonfinite_coefficient_flagged(self, field, value):
        inst = random_instance(np.random.default_rng(15), n=5)
        arrays = {"c": inst.c.copy(), "a_bar": inst.a_bar.copy(),
                  "k_diag": inst.k_diag.copy()}
        arrays[field].flat[3] = value
        with pytest.raises(DomainError, match="finite"):
            Instance(arrays["c"], arrays["a_bar"], arrays["k_diag"], inst.d)

    @pytest.mark.parametrize("risk", [
        {"eta": (1.5,)}, {"eta": (0.0,)}, {"eta": (np.nan,)},
        {"gamma_tilde": (0.0,)}, {"gamma_tilde": (np.inf,)},
        {"psi": (-0.5,)}, {"psi": (np.nan,)}, {"eta": (0.9,), "psi": (1.0,)}])
    def test_risk_spec_refused_at_construction(self, risk):
        with pytest.raises(DomainError):
            RiskSpec(**risk)

    def test_risk_spec_names_every_violation(self):
        with pytest.raises(DomainError) as err:
            RiskSpec(eta=(1.5,), gamma_tilde=(-1.0,), psi=(-2.0,))
        message = str(err.value)
        assert all(word in message for word in ("confidence", "caps", "safety"))


class TestSerialization:
    def test_instance_json_round_trip_is_lossless(self):
        rng = np.random.default_rng(15)
        inst = random_instance(rng, n=12, eta=(0.65, 0.75, 0.85, 0.95),
                               gamma_tilde=(0.2, 0.3, 0.4, 0.5))
        doc = json.loads(instance_json_bytes(inst))
        back = _instance_from_dict(doc)
        assert np.array_equal(back.c, inst.c)
        assert np.array_equal(back.a_bar, inst.a_bar)
        assert np.array_equal(back.k_diag, inst.k_diag)
        assert np.array_equal(back.d, inst.d)
        assert np.array_equal(back.risk.eta, inst.risk.eta)
        assert np.array_equal(back.risk.gamma_tilde, inst.risk.gamma_tilde)

    def test_declared_counts_verified(self):
        inst = random_instance(np.random.default_rng(16), n=4)
        doc = json.loads(instance_json_bytes(inst))
        doc["n"] = 7
        with pytest.raises(StructuralError):
            _instance_from_dict(doc)

    def test_trace_json_round_trip(self):
        rng = np.random.default_rng(17)
        inst = random_instance(rng, n=9)
        decisions = random_decisions(rng, 9, inst.k)
        trace = trace_by_recomputation(inst, decisions)
        back = _trace_from_dict(json.loads(json.dumps(_trace_to_dict(trace))))
        assert back.decisions == trace.decisions
        assert back.objective == trace.objective
        assert np.array_equal(back.mean_consumption, trace.mean_consumption)
        assert np.array_equal(back.variance_accum, trace.variance_accum)


#: Finite doubles at the edges of the format: subnormals, the largest
#: magnitudes, signed zeros, and heavy chi-square tails (a chi2 draw with
#: half a degree of freedom to the 8th power spans hundreds of decades).
EDGE_FLOATS = hst.one_of(
    hst.floats(allow_nan=False, allow_infinity=False),
    hst.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                      1.7976931348623157e308, 0.0, -0.0]),
    hst.integers(0, 2 ** 32 - 1).map(
        lambda seed: float(np.random.default_rng(seed).chisquare(0.5) ** 8)),
)
NONNEGATIVE = EDGE_FLOATS.map(abs)  # zero variances included


@hst.composite
def edge_instances(draw):
    n, m, k = draw(hst.integers(1, 4)), draw(hst.integers(1, 3)), draw(hst.integers(1, 3))
    risk = draw(hst.sampled_from(["none", "eta", "psi"]))
    if risk == "eta":
        spec = RiskSpec(eta=draw(arrays(np.float64, m, elements=hst.floats(
            0, 1, exclude_min=True, exclude_max=True))))
    elif risk == "psi":
        spec = RiskSpec(psi=draw(arrays(np.float64, m, elements=NONNEGATIVE)))
    else:
        spec = RiskSpec()
    return Instance(draw(arrays(np.float64, (n, k), elements=EDGE_FLOATS)),
                    draw(arrays(np.float64, (n, m, k), elements=EDGE_FLOATS)),
                    draw(arrays(np.float64, (n, m, k), elements=NONNEGATIVE)),
                    draw(arrays(np.float64, m, elements=NONNEGATIVE.filter(lambda x: x > 0))),
                    spec)


@hst.composite
def edge_traces(draw):
    m = draw(hst.integers(1, 3))
    return SolutionTrace(
        decisions=draw(hst.lists(hst.one_of(hst.none(), hst.integers(0, 4)), max_size=6)),
        objective=draw(EDGE_FLOATS),
        mean_consumption=draw(arrays(np.float64, m, elements=EDGE_FLOATS)),
        variance_accum=draw(arrays(np.float64, m, elements=NONNEGATIVE)),
        max_dual_inf=draw(NONNEGATIVE))


def same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_instance(a: Instance, b: Instance) -> bool:
    return (all(same_bits(getattr(a, name), getattr(b, name))
                for name in ("c", "a_bar", "k_diag", "d"))
            and all(same_bits(getattr(a.risk, name), getattr(b.risk, name))
                    for name in ("eta", "gamma_tilde", "psi")))


class TestFileRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(inst=edge_instances(), trace=edge_traces())
    def test_save_load_is_bit_exact(self, inst, trace):
        with tempfile.TemporaryDirectory() as tmp:
            save_instance(inst, Path(tmp) / "instance.json")
            save_trace(trace, Path(tmp) / "trace.json")
            from_sidecar = load_instance(Path(tmp) / "instance.json")
            (Path(tmp) / "instance.json.npz").unlink()
            from_json = load_instance(Path(tmp) / "instance.json")
            trace_back = load_trace(Path(tmp) / "trace.json")
            streamed = (Path(tmp) / "instance.json").read_bytes()
        assert streamed == instance_json_bytes(inst)
        for inst_back in (from_sidecar, from_json):
            assert same_instance(inst_back, inst)
        assert trace_back.decisions == trace.decisions
        for name in ("objective", "mean_consumption", "variance_accum", "max_dual_inf"):
            assert same_bits(getattr(trace_back, name), getattr(trace, name)), name

    @settings(max_examples=60, deadline=None)
    @given(inst=edge_instances(), field=hst.sampled_from(["c", "a_bar", "k_diag"]),
           value=hst.sampled_from([float("nan"), float("inf"), float("-inf")]),
           data=hst.data())
    def test_nonfinite_coefficient_refused_on_load(self, inst, field, value, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "instance.json"
            save_instance(inst, path)
            doc = json.loads(path.read_text())
            entry = doc["requests"][data.draw(hst.integers(0, inst.n - 1))][field]
            if field != "c":
                entry = entry[data.draw(hst.integers(0, inst.m - 1))]
            entry[data.draw(hst.integers(0, inst.k - 1))] = value
            path.write_text(json.dumps(doc))  # NaN, Infinity, -Infinity literals
            with pytest.raises(DomainError):
                load_instance(path)


def _rewrite_sidecar(change):
    """A spoiler rewriting the sidecar's arrays through ``change``, which
    keeps its digest unless it edits it."""
    def spoil(path):
        with np.load(path) as z:
            arrays = dict(z)
        change(arrays)
        np.savez(path, **arrays)
    spoil.__name__ = change.__name__
    return spoil


def truncated(path):
    path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])


def not_a_zip(path):
    path.write_bytes(b"not a zip file")


def empty(path):
    path.write_bytes(b"")


def missing_array(arrays):
    del arrays["k_diag"]


def short_digest(arrays):
    arrays["sha256"] = arrays["sha256"][:31]


def object_array(arrays):
    arrays["c"] = np.array([None], dtype=object)  # loads only with pickling


class TestRowBlocks:
    """blocks() reads a row source CHUNK requests at a time: a drawn source
    and the instance generate() builds from it give the same blocks."""

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 512, 513])
    @pytest.mark.parametrize("experiment", ["uniform", "chi_square"])
    def test_blocks_concatenate_to_the_instance(self, experiment, n):
        config = GeneratorConfig(experiment, n=n, m=3, k=2, eta=(0.6, 0.8, 0.9), seed=n)
        inst = generate(config)
        starts = list(range(0, n, CHUNK))
        for rows in (RequestDraws(config), inst):
            got = [(start, *(x.copy() for x in block)) for start, *block in blocks(rows)]
            assert [block[0] for block in got] == starts
            for i, want in enumerate((inst.c, inst.a_bar, inst.k_diag), 1):
                assert np.concatenate([block[i] for block in got]).tobytes() == want.tobytes()
            assert (rows.n, rows.k, rows.risk.psi) == (n, 2, None)
            assert np.array_equal(rows.d, np.ones(3))
            assert np.array_equal(rows.risk.eta, config.eta)


class TestSidecar:
    """save_instance writes <path>.npz beside the JSON; load_instance takes
    the arrays from it while it holds the JSON's digest, else decodes the JSON."""

    @pytest.fixture
    def saved(self, tmp_path):
        inst = to_soc(random_instance(np.random.default_rng(21), n=7, m=2, k=3,
                                      eta=(0.6, 0.9), gamma_tilde=(0.2, 0.4)))
        save_instance(inst, tmp_path / "instance.json")
        return inst, tmp_path / "instance.json"

    def test_fresh_sidecar_is_read_in_place_of_the_json(self, saved, monkeypatch):
        inst, path = saved
        assert sorted(p.name for p in path.parent.iterdir()) == ["instance.json",
                                                                "instance.json.npz"]

        def decode(doc):
            raise AssertionError("the JSON was decoded")
        read_bytes = Path.read_bytes

        def read_whole(self):
            if self == path:
                raise AssertionError("the JSON was read whole")
            return read_bytes(self)
        monkeypatch.setattr(model, "_instance_from_dict", decode)
        monkeypatch.setattr(Path, "read_bytes", read_whole)
        assert same_instance(load_instance(path), inst)

    def test_edited_json_is_read_over_a_stale_sidecar(self, saved):
        inst, path = saved
        doc = json.loads(path.read_text())
        doc["requests"][3]["a_bar"][1][2] = 0.125
        path.write_text(json.dumps(doc))
        back = load_instance(path)
        expect = inst.a_bar.copy()
        expect[3, 1, 2] = 0.125
        assert same_bits(back.a_bar, expect) and same_bits(back.c, inst.c)

    def test_fortran_order_sidecar_loads_its_values(self, saved, monkeypatch):
        # np.load reads a Fortran-order array as a transposed view of its
        # buffer; adopting that buffer in C order would scramble the values,
        # so such an array is copied
        inst, path = saved

        def to_fortran_order(arrays):
            arrays.update((name, np.asfortranarray(arrays[name]))
                          for name in ("c", "a_bar", "k_diag"))
        _rewrite_sidecar(to_fortran_order)(path.parent / "instance.json.npz")
        with np.load(path.parent / "instance.json.npz") as z:
            assert np.isfortran(z["a_bar"])

        def decode(doc):
            raise AssertionError("the JSON was decoded")
        monkeypatch.setattr(model, "_instance_from_dict", decode)
        assert same_instance(load_instance(path), inst)

    @pytest.mark.parametrize("n", [7, 513])  # 513: two whole blocks and one request
    def test_members_equal_np_savez(self, tmp_path, n):
        # written block by block, each member holds the bytes np.savez writes
        inst = to_soc(random_instance(np.random.default_rng(n), n=n, m=2, k=3,
                                      eta=(0.6, 0.9), gamma_tilde=(0.2, 0.4)))
        save_instance(inst, tmp_path / "instance.json")
        with np.load(tmp_path / "instance.json.npz") as z:
            digest = z["sha256"]
        np.savez(tmp_path / "savez.npz", sha256=digest, c=inst.c, a_bar=inst.a_bar,
                 k_diag=inst.k_diag, d=inst.d, eta=inst.risk.eta,
                 gamma_tilde=inst.risk.gamma_tilde, psi=inst.risk.psi)
        assert (zip_members(tmp_path / "instance.json.npz")
                == zip_members(tmp_path / "savez.npz"))

    @pytest.mark.parametrize("spoil", [truncated, not_a_zip, empty,
                                       _rewrite_sidecar(missing_array),
                                       _rewrite_sidecar(short_digest),
                                       _rewrite_sidecar(object_array)])
    def test_unusable_sidecar_falls_back_to_the_json(self, saved, spoil):
        inst, path = saved
        spoil(path.parent / "instance.json.npz")
        assert same_instance(load_instance(path), inst)


class TestStreamedFile:
    """save_instance writes the JSON 256 requests at a time under a
    temporary name and renames it; load_instance hashes it in chunks."""

    @pytest.fixture(scope="class")
    def saved_large(self, tmp_path_factory):
        """An n = 10000 instance saved under tracemalloc: its file and the
        save's peak in MB."""
        config = GeneratorConfig("uniform", n=10000, m=4, k=5,
                                 eta=(0.65, 0.75, 0.85, 0.95), seed=7)
        inst, small = (to_soc(generate(replace(config, n=n))) for n in (10000, 10))
        path = tmp_path_factory.mktemp("large") / "instance.json"
        return path, traced_peak_mb(save_instance, inst, path, warm=lambda: save_instance(
            small, path.with_name("small.json")))

    @pytest.mark.parametrize("n", [1, 513])  # 513: two whole blocks and one request
    @pytest.mark.parametrize("risky", [False, True], ids=["riskless", "risk"])
    def test_bytes_equal_the_whole_encoding(self, tmp_path, n, risky):
        inst = random_instance(np.random.default_rng(n), n=n, m=2, k=3)
        if risky:
            inst = to_soc(Instance(inst.c, inst.a_bar, inst.k_diag, inst.d,
                                   RiskSpec(eta=(0.6, 0.9), gamma_tilde=(0.2, 0.4))))
        save_instance(inst, tmp_path / "instance.json")
        assert (tmp_path / "instance.json").read_bytes() == instance_json_bytes(inst)

    def test_failed_write_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "instance.json"
        save_instance(random_instance(np.random.default_rng(1), n=5), path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        encode, calls = model._request_json, []

        def encode_one_block(*row):
            calls.append(row)
            if len(calls) > 256:
                raise RuntimeError("the disk is full")
            return encode(*row)
        monkeypatch.setattr(model, "_request_json", encode_one_block)
        with pytest.raises(RuntimeError, match="disk is full"):
            save_instance(random_instance(np.random.default_rng(2), n=513), path)
        assert len(calls) == 257
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_save_holds_no_whole_file(self, saved_large):
        # encoded whole, the file peaked at 40.3 MB; streamed, at 1.5 MB; with each
        # sidecar member written block by block in place of np.savez, at 1.1 MB
        assert saved_large[1] < 4

    def test_load_holds_no_whole_file(self, saved_large):
        # reading the 9.6 MB JSON whole to hash it peaked at 16.3 MB; in chunks, at
        # 7.1 MB with each array np.load returns copied; adopting them, at 4.0 MB
        assert traced_peak_mb(load_instance, saved_large[0]) < 5.5
