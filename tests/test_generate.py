"""Instance generators: determinism, bounds, moments, order independence."""

import numpy as np
import pytest

from socalloc import (ConfigError, DomainError, GeneratorConfig, StructuralError,
                      generate, request_fields, stream_requests, to_soc)
from socalloc.generate import CHUNK, RequestDraws

from helpers import reference_request


class TestDeterminism:
    def test_same_config_same_instance(self):
        cfg = GeneratorConfig("uniform", n=50, m=4, k=5,
                              eta=(0.65, 0.75, 0.85, 0.95), seed=123)
        a = generate(cfg)
        b = generate(cfg)
        assert np.array_equal(a.c, b.c)
        assert np.array_equal(a.a_bar, b.a_bar)
        assert np.array_equal(a.k_diag, b.k_diag)

    def test_different_seeds_differ(self):
        a = generate(GeneratorConfig("uniform", n=20, m=2, k=3, seed=1))
        b = generate(GeneratorConfig("uniform", n=20, m=2, k=3, seed=2))
        assert not np.array_equal(a.c, b.c)

    def test_chi_square_deterministic(self):
        cfg = GeneratorConfig("chi_square", n=30, m=4, k=5, seed=9)
        assert np.array_equal(generate(cfg).a_bar, generate(cfg).a_bar)


class TestOrderIndependence:
    def test_permuted_generation_matches(self):
        cfg = GeneratorConfig("chi_square", n=40, m=3, k=4, seed=77)
        inst = generate(cfg)
        order = np.random.default_rng(0).permutation(40)
        for t in order:
            c, a_bar, k_diag = request_fields(cfg, int(t))
            assert np.array_equal(c, inst.c[t])
            assert np.array_equal(a_bar, inst.a_bar[t])
            assert np.array_equal(k_diag, inst.k_diag[t])

    def test_streaming_equals_batch(self):
        cfg = GeneratorConfig("uniform", n=25, m=4, k=5, seed=5)
        inst = generate(cfg)
        for t, (c, a_bar, k_diag) in enumerate(stream_requests(cfg)):
            assert np.array_equal(c, inst.c[t])
            assert np.array_equal(a_bar, inst.a_bar[t])
            assert np.array_equal(k_diag, inst.k_diag[t])


class TestReferenceStreams:
    # every request equals a fresh Philox keyed by the seed at counter
    # t * 2**64, however the requests are drawn; seeds of 2**63 and above
    # take the key's upper words
    SEEDS = (0, 7, 2 ** 63 + 12345, 2 ** 64 + 5)

    @pytest.mark.parametrize("experiment", ["uniform", "chi_square"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_requests_match_fresh_streams(self, experiment, seed):
        n, m, k = 12, 3, 4
        cfg = GeneratorConfig(experiment, n=n, m=m, k=k, seed=seed)
        want = [reference_request(experiment, seed, t, m, k) for t in range(n)]
        inst = generate(cfg)
        draws = RequestDraws(cfg)
        block = draws.block(3, 9)
        # one stream, moved backwards, then back and forth: [0, n-1, 1, n-2, ...]
        interleaved = [t for pair in zip(range(n), reversed(range(n))) for t in pair][:n]
        for t in [*reversed(range(n)), *interleaved]:
            for got in (request_fields(cfg, t), draws(t),
                        (inst.c[t], inst.a_bar[t], inst.k_diag[t])):
                assert all(np.array_equal(a, b) for a, b in zip(got, want[t]))
        for t, row in enumerate(stream_requests(cfg)):
            assert all(np.array_equal(a, b) for a, b in zip(row, want[t]))
        for i, t in enumerate(range(3, 9)):
            assert all(np.array_equal(a[i], b) for a, b in zip(block, want[t]))

    def test_far_counter(self):
        cfg = GeneratorConfig("chi_square", n=1, m=2, k=3, seed=9)
        t = 2 ** 40
        want = reference_request("chi_square", 9, t, 2, 3)
        assert all(np.array_equal(a, b) for a, b in zip(request_fields(cfg, t), want))

    @pytest.mark.parametrize("experiment", ["uniform", "chi_square"])
    @pytest.mark.parametrize("seed", (0, 2 ** 63 + 12345, 2 ** 64 + 5))
    def test_far_counter_block(self, experiment, seed):
        cfg = GeneratorConfig(experiment, n=1, m=2, k=3, seed=seed)
        t = 2 ** 40
        block = RequestDraws(cfg).block(t - 1, t + 2)
        for i, u in enumerate(range(t - 1, t + 2)):
            want = reference_request(experiment, seed, u, 2, 3)
            assert all(np.array_equal(a[i], b) for a, b in zip(block, want))


class TestBlocks:
    # generate() fills its arrays CHUNK requests at a time; n is not a
    # multiple of CHUNK, so the last chunk is short
    @pytest.mark.parametrize("experiment", ["uniform", "chi_square"])
    def test_chunk_boundaries(self, experiment):
        n, m, k, seed = 3 * CHUNK + 37, 2, 3, 2 ** 63 + 12345
        cfg = GeneratorConfig(experiment, n=n, m=m, k=k, seed=seed)
        inst = generate(cfg)
        block = RequestDraws(cfg).block(CHUNK - 5, n)
        for t in range(n):
            want = reference_request(experiment, seed, t, m, k)
            assert all(np.array_equal(a[t], b) for a, b in
                       zip((inst.c, inst.a_bar, inst.k_diag), want))
            if t >= CHUNK - 5:
                assert all(np.array_equal(a[t - CHUNK + 5], b) for a, b in zip(block, want))

    @pytest.mark.parametrize("experiment", ["uniform", "chi_square"])
    def test_outputs_c_contiguous_and_frozen(self, experiment):
        cfg = GeneratorConfig(experiment, n=CHUNK + 3, m=3, k=2, seed=1)
        inst = generate(cfg)
        draws = RequestDraws(cfg)
        arrays = (inst.c, inst.a_bar, inst.k_diag, *draws.block(2, 9), *draws(4),
                  *request_fields(cfg, 5))
        assert all(a.flags.c_contiguous for a in arrays)
        assert not any(a.flags.writeable for a in (inst.c, inst.a_bar, inst.k_diag))

    def test_fill_writes_strided_rows(self):
        # a lane set fills column r of its (T, R, ...) draw buffers from row r
        cfg = GeneratorConfig("chi_square", n=20, m=2, k=3, seed=3)
        draws = RequestDraws(cfg)
        c, a_bar, k_diag = np.zeros((6, 2, 3)), np.zeros((6, 2, 2, 3)), np.zeros((6, 2, 2, 3))
        draws.fill(4, c[:, 1], a_bar[:, 1], k_diag[:, 1])
        for got, want in zip((c, a_bar, k_diag), draws.block(4, 10)):
            assert np.array_equal(got[:, 1], want)
            assert not got[:, 0].any()


class TestUniformModel:
    def test_bounds(self):
        inst = generate(GeneratorConfig("uniform", n=200, m=4, k=5, seed=3))
        assert np.all((inst.c >= 0) & (inst.c <= 1))
        assert np.all((inst.a_bar >= 0) & (inst.a_bar <= 4))
        assert np.all((inst.k_diag >= 0) & (inst.k_diag <= 1))

    def test_default_unit_budget(self):
        inst = generate(GeneratorConfig("uniform", n=5, m=3, k=2, seed=0))
        assert np.array_equal(inst.d, np.ones(3))

    def test_custom_budget(self):
        inst = generate(GeneratorConfig("uniform", n=5, m=2, k=2,
                                        d=(0.5, 2.0), seed=0))
        assert np.array_equal(inst.d, [0.5, 2.0])

    def test_generated_instance_validates(self):
        inst = generate(GeneratorConfig("uniform", n=50, m=4, k=5,
                                        eta=(0.65, 0.75, 0.85, 0.95), seed=4))
        assert to_soc(inst).risk.psi is not None


class TestChiSquareModel:
    def test_moments(self):
        # chi2(3) has mean 3; (2/3)*chi2(4) has mean 8/3.  With n*k =
        # 1e5 revenue draws and n*m*k = 4e5 consumption draws the sample
        # means sit within 1% of the targets.
        inst = generate(GeneratorConfig("chi_square", n=20_000, m=4, k=5, seed=42))
        assert inst.c.size >= 100_000
        assert abs(inst.c.mean() - 3.0) <= 0.03
        assert abs(inst.a_bar.mean() - 8.0 / 3.0) <= 0.08 / 3.0

    def test_variance_field_moment(self):
        # k_diag = ((2/3) chi2(2))^2; chi2(2) has E[X^2] = 8, so the
        # mean is (4/9)*8 = 32/9
        inst = generate(GeneratorConfig("chi_square", n=20_000, m=4, k=5, seed=43))
        target = 32.0 / 9.0
        assert abs(inst.k_diag.mean() - target) <= 0.02 * target

    def test_unbounded_in_practice(self):
        inst = generate(GeneratorConfig("chi_square", n=5000, m=4, k=5, seed=44))
        assert inst.a_bar.max() > 4.0  # exceeds the uniform model's cap


class TestConfig:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            GeneratorConfig("weird", n=5, m=2, k=2)

    def test_dimensions_must_be_positive(self):
        with pytest.raises(DomainError):
            GeneratorConfig("uniform", n=0, m=2, k=2)

    def test_budget_length_checked(self):
        with pytest.raises(ConfigError):
            GeneratorConfig("uniform", n=5, m=3, k=2, d=(1.0, 2.0))

    def test_bad_config_fails_before_drawing(self, monkeypatch):
        def fill(*args):
            raise AssertionError("requests drawn before the config was checked")

        monkeypatch.setattr(RequestDraws, "fill", fill)
        with pytest.raises(ConfigError):
            generate(GeneratorConfig("uniform", n=200000, m=3, k=2, d=(1.0, 2.0)))
        with pytest.raises(StructuralError):
            generate(GeneratorConfig("uniform", n=5, m=3, k=2, eta=(0.9, 0.9)))

    @pytest.mark.parametrize("seed", [-1, 2 ** 128])
    def test_seed_outside_philox_keys_rejected(self, seed):
        with pytest.raises(DomainError, match="seed"):
            GeneratorConfig("uniform", n=5, m=2, k=2, seed=seed)
        generate(GeneratorConfig("uniform", n=5, m=2, k=2, seed=min(max(seed, 0), 2 ** 128 - 1)))

    @pytest.mark.parametrize("d", [(1.0, 0.0), (-1.0, 1.0), (float("nan"), 1.0)])
    def test_budget_must_be_positive(self, d):
        with pytest.raises(DomainError):
            GeneratorConfig("uniform", n=5, m=2, k=2, d=d)

