"""Experiment harness: file outputs, determinism, lane sets, seeding."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from socalloc import (ConfigError, ExperimentPlan, GeneratorConfig, SocAllocError,
                      VariantConfig, build_report, generate, linearize,
                      minimize_dual, run_experiment, run_online, run_trial,
                      to_soc, trial_seed)
from socalloc.experiment import _plan_fingerprint
from socalloc.metrics import csv_header, csv_row

from helpers import traced_peak_mb

ETA_GRID = (0.65, 0.75, 0.85, 0.95)


def small_plan(tmp_path, trials=2, n_grid=(12, 24), variants=None, **kw):
    gen = GeneratorConfig("uniform", n=max(n_grid), m=4, k=5,
                          eta=ETA_GRID, seed=0)
    return ExperimentPlan(
        generator=gen, n_grid=n_grid, trials=trials,
        variants=variants or (VariantConfig("vanilla"),
                              VariantConfig("marginal-dynamic")),
        output_dir=str(tmp_path / "out"), master_seed=31, **kw)


class TestTrialSeeds:
    def test_deterministic(self):
        assert trial_seed(1, 100, 0) == trial_seed(1, 100, 0)

    def test_distinct_cells_get_distinct_seeds(self):
        seeds = {trial_seed(1, n, t) for n in (10, 20, 30) for t in range(50)}
        assert len(seeds) == 150


class TestRunTrial:
    def test_variants_share_instance_and_baseline(self):
        gen = GeneratorConfig("uniform", n=30, m=4, k=5, eta=ETA_GRID, seed=0)
        plan = ExperimentPlan(generator=gen, n_grid=(30,), trials=1,
                              variants=(VariantConfig("vanilla"),
                                        VariantConfig("marginal")),
                              output_dir="unused", master_seed=7)
        [(seed, status, results)] = run_trial(plan, 30, [0])
        assert seed == trial_seed(7, 30, 0)
        assert status == "ok"
        assert set(results) == {"vanilla", "marginal"}
        assert (results["vanilla"].baseline_value
                == results["marginal"].baseline_value)

    def test_certificate_holds_no_instance(self, monkeypatch):
        # a certified trial is drawn straight into its revenues and columns:
        # at n = 10000 building and certifying it peaked at 6.0 MB through an
        # Instance and linearize, and at 3.0 MB drawn block by block
        peaks = []

        def traced(lin, **kw):
            cert = minimize_dual(lin, **kw)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
            tracemalloc.stop()  # the lanes run untraced
            return cert
        monkeypatch.setattr("socalloc.experiment.minimize_dual", traced)
        gen = GeneratorConfig("chi_square", n=10000, m=4, k=5, eta=ETA_GRID, seed=0)
        plan = ExperimentPlan(generator=gen, n_grid=(10000,), trials=1,
                              variants=(VariantConfig("vanilla"),),
                              output_dir="unused", master_seed=7)
        tracemalloc.start()
        try:
            [(_, status, _)] = run_trial(plan, 10000, [0])
        finally:
            tracemalloc.stop()
        assert status == "ok" and len(peaks) == 1
        assert peaks[0] < 4.5

    def test_lanes_hold_each_pick_once(self):
        # 20 vanilla lanes at n = 20000: an intp copy of each block's picks,
        # their concatenation and every lane's decisions at once peaked at
        # 10.66 MiB; one small array of picks, and one lane's decisions at a
        # time, at 1.98 MiB
        gen = GeneratorConfig("uniform", n=20000, m=4, k=5, eta=ETA_GRID, seed=0)
        plan = ExperimentPlan(generator=gen, n_grid=(20000,), trials=20,
                              variants=(VariantConfig("vanilla"),), output_dir="unused",
                              master_seed=404, compute_baseline=False)
        assert traced_peak_mb(run_trial, plan, 20000, range(20),
                              warm=lambda: run_trial(plan, 50, range(2))) < 4

    def test_baseline_skippable(self):
        gen = GeneratorConfig("uniform", n=20, m=4, k=5, eta=ETA_GRID, seed=0)
        plan = ExperimentPlan(generator=gen, n_grid=(20,), trials=1,
                              variants=(VariantConfig("vanilla"),),
                              output_dir="unused", master_seed=7,
                              compute_baseline=False)
        [(_, status, results)] = run_trial(plan, 20, [0])
        assert status == "ok"
        assert np.isnan(results["vanilla"].baseline_value)

    def test_trials_in_order(self):
        gen = GeneratorConfig("uniform", n=20, m=4, k=5, eta=ETA_GRID, seed=0)
        plan = ExperimentPlan(generator=gen, n_grid=(20,), trials=3,
                              output_dir="unused", master_seed=7,
                              compute_baseline=False)
        outcomes = run_trial(plan, 20, [2, 0])
        assert [seed for seed, _, _ in outcomes] == [trial_seed(7, 20, 2),
                                                    trial_seed(7, 20, 0)]
        assert run_trial(plan, 20, []) == []


class TestPlan:
    @pytest.mark.parametrize("trials, n_grid", [(0, (10,)), (-1, (10,)), (1, ())])
    def test_plan_without_cells_refused(self, trials, n_grid):
        gen = GeneratorConfig("uniform", n=10, m=4, k=5, eta=ETA_GRID, seed=0)
        with pytest.raises(ConfigError, match="at least one trial"):
            ExperimentPlan(generator=gen, n_grid=n_grid, trials=trials)

    @pytest.mark.parametrize("change, message", [
        ({"n_grid": (10, 0)}, "at least 1"), ({"master_seed": -1}, "master seed"),
        ({"tol": 0.0}, "tol"), ({"tol": float("nan")}, "tol"),
        ({"variants": (VariantConfig("marginal"),) * 2}, "named once"),
        ({"generator": GeneratorConfig("uniform", n=10, m=2, k=2)}, "risk spec is empty"),
        ({"generator": GeneratorConfig("uniform", n=10, m=2, k=2, eta=(0.9, 0.3))},
         "negative safety coefficient")],
        ids=["grid-point-0", "master-seed", "tol-0", "tol-nan", "variant-twice", "no-targets",
             "negative-psi"])
    def test_plan_that_cannot_run_refused(self, change, message):
        gen = GeneratorConfig("uniform", n=10, m=4, k=5, eta=ETA_GRID, seed=0)
        with pytest.raises(SocAllocError, match=message):
            ExperimentPlan(**{"generator": gen, "n_grid": (10,), "trials": 1, **change})


class TestRunExperiment:
    def test_smoke_files_and_rows(self, tmp_path):
        plan = small_plan(tmp_path, trials=1, n_grid=(10,))
        run_experiment(plan)
        out = tmp_path / "out"
        body = (out / "metrics.csv").read_text().splitlines()
        assert body[0].startswith("# socalloc-metrics-v1")
        assert len(body) == 2 + 2  # comment, header, one row per variant
        assert (out / "aggregate.json").exists()
        assert (out / "scaling.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        plan = small_plan(tmp_path, trials=2, n_grid=(10, 20))
        run_experiment(plan)
        first = (tmp_path / "out" / "metrics.csv").read_bytes()
        first_agg = (tmp_path / "out" / "aggregate.json").read_bytes()
        run_experiment(plan)
        assert (tmp_path / "out" / "metrics.csv").read_bytes() == first
        assert (tmp_path / "out" / "aggregate.json").read_bytes() == first_agg

    @pytest.mark.parametrize("baseline", [True, False])
    def test_lanes_match_cells_run_alone(self, tmp_path, baseline):
        # each n runs its trials x variants as one lane set, reading the
        # certified instances or drawing from the generator; the merged
        # metrics.csv must equal the rows of every cell run alone, in
        # (n, trial) order
        plan = small_plan(tmp_path, trials=3, n_grid=(15, 20),
                          compute_baseline=baseline)
        run_experiment(plan)
        m = plan.generator.m
        expected = [csv_header(m)]
        for n in plan.n_grid:
            for t in range(plan.trials):
                seed = trial_seed(plan.master_seed, n, t)
                instance = to_soc(generate(replace(plan.generator, n=n, seed=seed)))
                lin = linearize(instance)
                cert = minimize_dual(lin, tol=plan.tol) if baseline else None
                for v in plan.variants:
                    trace = run_online(instance, lin, replace(v, rng_seed=seed))
                    expected.append(csv_row("uniform", v.variant, n, t, seed,
                                            build_report(instance, trace, cert), m))
        assert (tmp_path / "out" / "metrics.csv").read_text() == "".join(expected)

    def test_aggregate_document_shape(self, tmp_path):
        plan = small_plan(tmp_path, trials=2, n_grid=(10, 20))
        doc = run_experiment(plan)
        assert doc["n_grid"] == [10, 20]
        assert set(doc["variants"]) == {"vanilla", "marginal-dynamic"}
        cell = doc["variants"]["vanilla"]["10"]
        assert "competitive_ratio" in cell
        assert "mean" in cell["competitive_ratio"]
        on_disk = json.loads((tmp_path / "out" / "aggregate.json").read_text())
        assert on_disk["variants"].keys() == doc["variants"].keys()

    def test_disjoint_n_subsets_union_in_shared_directory(self, tmp_path):
        # two runs of the same plan family covering disjoint grid points,
        # same output directory: all three files union their cells instead
        # of the second run clobbering the first, byte for byte as one run
        # over both points writes them
        shared = tmp_path / "shared"
        gen = GeneratorConfig("uniform", n=20, m=4, k=5, eta=ETA_GRID, seed=0)
        plan = ExperimentPlan(generator=gen, n_grid=(10, 20), trials=1,
                              variants=(VariantConfig("vanilla"),),
                              output_dir=str(tmp_path / "one"), master_seed=5)
        run_experiment(plan)
        for n in (10, 20):
            doc = run_experiment(replace(plan, n_grid=(n,), output_dir=str(shared)))
        body = (shared / "metrics.csv").read_text().splitlines()
        assert len(body) == 2 + 2  # comment, header, one row per grid point
        assert body[2].split(",")[2] == "10"
        assert body[3].split(",")[2] == "20"
        assert doc["n_grid"] == [10, 20] and doc["trials"] == 1
        assert set(doc["variants"]["vanilla"]) == {"10", "20"}
        scaling = json.loads((shared / "scaling.json").read_text())
        assert scaling["vanilla"]["optimality_gap"]["n"] == [10, 20]
        for name in ("metrics.csv", "aggregate.json", "scaling.json"):
            assert (shared / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    def test_reports_count_every_trial_present(self, tmp_path):
        # a second run with fewer trials leaves the first run's extra parts
        # in place: every file reports the largest trial count
        plan = small_plan(tmp_path, trials=3, n_grid=(10,), compute_baseline=False)
        run_experiment(plan)
        doc = run_experiment(replace(plan, trials=1))
        assert doc["trials"] == 3
        body = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert len(body) == 2 + 3 * len(plan.variants)

    def test_failed_trials_read_from_the_parts(self, tmp_path):
        plan = small_plan(tmp_path, trials=2, n_grid=(10,), compute_baseline=False)
        run_experiment(plan)
        part = tmp_path / "out" / "parts" / "cell_n10_t1.json"
        doc = json.loads(part.read_text())
        part.write_text(json.dumps(dict(doc, status="baseline_failed")))
        agg = run_experiment(replace(plan, n_grid=(12,)))
        assert agg["failed_trials"] == [{"n": 10, "trial": 1, "seed": doc["seed"],
                                         "status": "baseline_failed"}]

    def test_directory_of_old_csv_parts_refused(self, tmp_path):
        # parts written as CSV rows, before each part held its whole
        # reports, cannot feed aggregate.json; such a directory is refused
        # before anything is written
        plan = small_plan(tmp_path, trials=1, n_grid=(10,), compute_baseline=False)
        parts = tmp_path / "out" / "parts"
        parts.mkdir(parents=True)
        old = _plan_fingerprint(plan)
        del old["parts"]
        (parts / "plan.json").write_text(json.dumps(old, indent=2, sort_keys=True))
        (parts / "metrics_n10_t0.csv").write_text("uniform,vanilla,10,0,1,ok\n")
        with pytest.raises(ConfigError, match=r"differs in parts\)"):
            run_experiment(plan)
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["parts"]

    def test_other_plan_refused_in_shared_directory(self, tmp_path):
        # m = 2 then m = 3 into one directory would merge rows of two widths
        # under one header; the second plan is refused before it writes
        shared = tmp_path / "shared"

        def plan_with(m):
            gen = GeneratorConfig("uniform", n=10, m=m, k=3, eta=(0.9,) * m, seed=0)
            return ExperimentPlan(generator=gen, n_grid=(10,), trials=2,
                                  variants=(VariantConfig("vanilla"),),
                                  output_dir=str(shared), master_seed=5,
                                  compute_baseline=False)

        run_experiment(plan_with(2))
        before = (shared / "metrics.csv").read_bytes()
        # the fingerprint file is not merged as a part: comment, header, 2 rows
        assert len(before.splitlines()) == 4
        with pytest.raises(ConfigError, match=r"differs in eta, m\)"):
            run_experiment(plan_with(3))
        assert (shared / "metrics.csv").read_bytes() == before

    def test_fingerprint_covers_plan_fields(self, tmp_path):
        plan = small_plan(tmp_path, trials=1, n_grid=(10,), compute_baseline=False)
        run_experiment(plan)
        others = [replace(plan, master_seed=32), replace(plan, compute_baseline=True),
                  replace(plan, variants=(VariantConfig("vanilla"),)),
                  replace(plan, generator=replace(plan.generator, eta=(0.9,) * 4)),
                  replace(plan, generator=replace(plan.generator, k=4)),
                  replace(plan, generator=replace(plan.generator,
                                                  experiment="chi_square"))]
        for other in others:
            with pytest.raises(ConfigError):
                run_experiment(other)
        # a new grid or trial count of the same plan is welcome
        run_experiment(replace(plan, n_grid=(12,), trials=2))

    def test_scaling_document_says_what_it_fitted(self, tmp_path):
        plan = small_plan(tmp_path, trials=2, n_grid=(10, 20, 40),
                          variants=(VariantConfig("vanilla"),))
        doc = run_experiment(plan)
        scaling = json.loads((tmp_path / "out" / "scaling.json").read_text())
        entry = scaling["vanilla"]["optimality_gap"]
        means = [doc["variants"]["vanilla"][str(n)]["optimality_gap"]["mean"]
                 for n in (10, 20, 40)]
        assert all(v > 0 for v in means)
        assert entry["n"] == [10, 20, 40]
        assert entry["fit"] == pytest.approx(
            np.polyfit(np.log([10, 20, 40]), np.log(means), 1)[0], rel=1e-9)
        assert entry["last_pair"] == pytest.approx(
            np.log(means[2] / means[1]) / np.log(2.0), rel=1e-9)
        assert "ce_violation" not in scaling["vanilla"]  # no caps in this plan

    def test_short_grid_keeps_null_fit(self, tmp_path):
        # two grid points: the fit needs three, so it is null, but the
        # metric keeps its entry and its last-pair slope
        plan = small_plan(tmp_path, trials=1, n_grid=(10, 20),
                          variants=(VariantConfig("vanilla"),))
        run_experiment(plan)
        scaling = json.loads((tmp_path / "out" / "scaling.json").read_text())
        entry = scaling["vanilla"]["optimality_gap"]
        assert entry["fit"] is None
        assert entry["n"] == [10, 20]
        assert isinstance(entry["last_pair"], float)

    def test_ce_only_experiment(self, tmp_path):
        gen = GeneratorConfig("uniform", n=40, m=4, k=5,
                              gamma_tilde=(0.2, 0.3, 0.4, 0.5), seed=0)
        plan = ExperimentPlan(generator=gen, n_grid=(40,), trials=1,
                              variants=(VariantConfig("vanilla"),),
                              output_dir=str(tmp_path / "ce"), master_seed=3,
                              compute_baseline=False)
        doc = run_experiment(plan)
        cell = doc["variants"]["vanilla"]["40"]
        assert not np.isnan(cell["ce_violation"]["mean"])
