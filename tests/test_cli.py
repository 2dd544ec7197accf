"""CLI: subcommand pipeline, exit codes, pipeline/harness equivalence."""

import json
import os

import numpy as np
import pytest

from socalloc import GeneratorConfig, generate, trial_seed
from socalloc.cli import main

ETA = "0.65,0.75,0.85,0.95"


def run(tmp_path, *argv):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, tmp_path, capsys):
        assert run(tmp_path, "bogus") == 1

    def test_bad_flag_value_is_usage_error(self, tmp_path, capsys):
        assert run(tmp_path, "generate", "--experiment", "uniform",
                   "--n", "5", "--m", "2", "--k", "2", "--eta", "zebra") == 1

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert run(tmp_path, "solve-online", "--instance", "nope.json") == 2

    def test_corrupt_instance_is_data_error(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text("{\"requests\": }")
        assert run(tmp_path, "solve-online", "--instance", "bad.json") == 2

    def test_riskless_evaluate_needs_targets(self, tmp_path, capsys):
        assert run(tmp_path, "generate", "--experiment", "uniform", "--n", "10",
                   "--m", "2", "--k", "2", "--seed", "3") == 0
        assert run(tmp_path, "solve-online", "--instance", "instance.json",
                   "--variant", "vanilla") == 2  # no risk targets at all
        code = run(tmp_path, "evaluate", "--instance", "instance.json",
                   "--trace", "trace.json")
        assert code == 1
        assert "--eta" in capsys.readouterr().err

    def test_riskless_evaluate_with_override_succeeds(self, tmp_path, capsys):
        assert run(tmp_path, "generate", "--experiment", "uniform", "--n", "10",
                   "--m", "2", "--k", "2", "--seed", "3") == 0
        # give solve-online targets by regenerating with eta
        assert run(tmp_path, "generate", "--experiment", "uniform", "--n", "10",
                   "--m", "2", "--k", "2", "--seed", "3", "--eta", "0.9,0.9",
                   "--out", "risky.json") == 0
        assert run(tmp_path, "solve-online", "--instance", "risky.json") == 0
        assert run(tmp_path, "evaluate", "--instance", "instance.json",
                   "--trace", "trace.json", "--eta", "0.9,0.9") == 0


    def test_negative_safety_coefficient_is_data_error(self, tmp_path, capsys):
        # eta < 0.5 gives psi < 0: refused before anything is written
        assert run(tmp_path, "generate", "--experiment", "uniform", "--n", "5",
                   "--m", "2", "--k", "2", "--eta", "0.9,0.3") == 2
        assert "resource 1" in capsys.readouterr().err
        assert not (tmp_path / "instance.json").exists()
        assert run(tmp_path, "generate", "--experiment", "uniform", "--n", "5",
                   "--m", "1", "--k", "2", "--eta", "0.3", "--stream") == 2
        # psi = 0 (eta = 0.5 exactly) stays legal
        assert run(tmp_path, "generate", "--experiment", "uniform", "--n", "5",
                   "--m", "1", "--k", "2", "--eta", "0.5") == 0

    @pytest.mark.parametrize("stream", [False, True])
    @pytest.mark.parametrize("flag, targets", [("--eta", "0.9,0.9"),
                                               ("--gamma-tilde", "0.3,0.3")])
    def test_risk_target_count_must_match_m(self, tmp_path, capsys, flag, targets,
                                            stream):
        argv = ["generate", "--experiment", "uniform", "--n", "2", "--m", "1",
                "--k", "2", flag, targets] + (["--stream"] if stream else [])
        assert run(tmp_path, *argv) == 2
        captured = capsys.readouterr()
        assert "2 entries for 1 resources" in captured.err
        assert not captured.out and not (tmp_path / "instance.json").exists()

    @pytest.mark.parametrize("stream", [False, True])
    @pytest.mark.parametrize("budget", ["-1", "0", "1,0"])
    def test_nonpositive_budget_is_data_error(self, tmp_path, capsys, budget, stream):
        m = str(len(budget.split(",")))
        argv = ["generate", "--experiment", "uniform", "--n", "2", "--m", m,
                "--k", "2", "--d", budget] + (["--stream"] if stream else [])
        assert run(tmp_path, *argv) == 2
        captured = capsys.readouterr()
        assert "budget must be positive" in captured.err
        assert not captured.out and not (tmp_path / "instance.json").exists()

    def test_certificate_without_gap_is_data_error(self, tmp_path, capsys):
        assert run(tmp_path, "generate", "--experiment", "uniform", "--n", "20",
                   "--m", "2", "--k", "2", "--eta", "0.9,0.9") == 0
        assert run(tmp_path, "solve-online", "--instance", "instance.json") == 0
        assert run(tmp_path, "baseline", "--instance", "instance.json") == 0
        cert = json.loads((tmp_path / "certificate.json").read_text())
        del cert["gap"]
        (tmp_path / "old.json").write_text(json.dumps(cert))
        assert run(tmp_path, "evaluate", "--instance", "instance.json",
                   "--trace", "trace.json", "--baseline", "old.json") == 2
        assert "gap" in capsys.readouterr().err

    def test_other_plan_in_same_out_is_data_error(self, tmp_path, capsys):
        common = ("experiment", "--experiment", "uniform", "--n-grid", "10",
                  "--trials", "1", "--k", "3", "--variants", "vanilla",
                  "--no-baseline", "--out", "res")
        assert run(tmp_path, *common, "--m", "2", "--eta", "0.9,0.9") == 0
        assert run(tmp_path, *common, "--m", "3", "--eta", "0.9,0.9,0.9") == 2
        assert "another plan" in capsys.readouterr().err


class TestPipeline:
    def test_generate_solve_baseline_evaluate(self, tmp_path, capsys):
        assert run(tmp_path, "generate", "--experiment", "uniform",
                   "--n", "100", "--m", "4", "--k", "5", "--eta", ETA,
                   "--seed", "7") == 0
        inst = json.loads((tmp_path / "instance.json").read_text())
        assert inst["n"] == 100 and len(inst["requests"]) == 100

        assert run(tmp_path, "solve-online", "--instance", "instance.json",
                   "--variant", "vanilla", "--seed", "7", "--trace") == 0
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert len(trace["decisions"]) == 100
        steps = (tmp_path / "trace.steps.csv").read_text().splitlines()
        assert steps[0] == "t,scheme,value,prices"
        assert len(steps) == 101

        assert run(tmp_path, "baseline", "--instance", "instance.json",
                   "--tol", "1e-7") == 0
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["value"] > 0
        assert 0 <= cert["gap"] <= 1e-7 * cert["value"]
        printed = capsys.readouterr().out
        assert f"value={cert['value']:.6f}, gap={cert['gap']:.3g}, " in printed
        assert f"iterations={cert['iterations']})" in printed

        assert run(tmp_path, "evaluate", "--instance", "instance.json",
                   "--trace", "trace.json", "--baseline", "certificate.json",
                   "--experiment", "uniform", "--variant", "vanilla",
                   "--seed", "7") == 0
        rows = (tmp_path / "metrics.csv").read_text().splitlines()
        assert len(rows) == 3
        assert rows[2].startswith("uniform,vanilla,100,0,7,ok,")

    def test_stream_mode_prints_json_lines(self, tmp_path, capsys):
        assert run(tmp_path, "generate", "--experiment", "chi-square",
                   "--n", "4", "--m", "2", "--k", "3", "--seed", "5",
                   "--stream") == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("{")]
        assert len(lines) == 4
        first = json.loads(lines[0])
        assert set(first) == {"t", "c", "a_bar", "k_diag"}
        assert not (tmp_path / "instance.json").exists()

    def test_stream_lines_match_generated_rows(self, tmp_path, capsys):
        assert run(tmp_path, "generate", "--experiment", "uniform", "--n", "1100",
                   "--m", "2", "--k", "3", "--seed", "11", "--stream") == 0
        inst = generate(GeneratorConfig("uniform", n=1100, m=2, k=3, seed=11))
        want = "".join(
            json.dumps({"t": t, "c": inst.c[t].tolist(), "a_bar": inst.a_bar[t].tolist(),
                        "k_diag": inst.k_diag[t].tolist()}) + "\n"
            for t in range(inst.n))
        assert capsys.readouterr().out == want

    def test_experiment_subcommand(self, tmp_path, capsys):
        assert run(tmp_path, "experiment", "--experiment", "uniform",
                   "--n-grid", "10,20", "--trials", "1", "--m", "4", "--k", "5",
                   "--eta", ETA, "--seed", "2", "--variants", "vanilla",
                   "--out", "res") == 0
        body = (tmp_path / "res" / "metrics.csv").read_text().splitlines()
        assert len(body) == 2 + 2  # two cells, one variant each


class TestPipelineEquivalence:
    def test_composed_pipeline_matches_experiment_command(self, tmp_path, capsys):
        # the harness derives the cell seed from (master, n, trial); feeding
        # that same seed through the file pipeline must reproduce the
        # harness row exactly
        master, n = 9, 60
        seed = trial_seed(master, n, 0)
        assert run(tmp_path, "experiment", "--experiment", "uniform",
                   "--n-grid", str(n), "--trials", "1", "--m", "4", "--k", "5",
                   "--eta", ETA, "--seed", str(master),
                   "--variants", "vanilla", "--out", "res") == 0
        harness_row = (tmp_path / "res" / "metrics.csv").read_text().splitlines()[2]

        assert run(tmp_path, "generate", "--experiment", "uniform",
                   "--n", str(n), "--m", "4", "--k", "5", "--eta", ETA,
                   "--seed", str(seed)) == 0
        assert run(tmp_path, "solve-online", "--instance", "instance.json",
                   "--variant", "vanilla", "--seed", str(seed)) == 0
        assert run(tmp_path, "baseline", "--instance", "instance.json",
                   "--tol", "1e-6") == 0
        assert run(tmp_path, "evaluate", "--instance", "instance.json",
                   "--trace", "trace.json", "--baseline", "certificate.json",
                   "--experiment", "uniform", "--variant", "vanilla",
                   "--seed", str(seed)) == 0
        pipeline_row = (tmp_path / "metrics.csv").read_text().splitlines()[2]

        # identical metric cells; only the trial/seed labels may differ in
        # representation
        assert pipeline_row.split(",")[6:] == harness_row.split(",")[6:]
