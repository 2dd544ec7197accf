"""CLI: subcommand pipeline, exit codes, pipeline/harness equivalence."""

import contextlib
import errno
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from socalloc import (DualCertificate, GeneratorConfig, OnlineSolver, VariantConfig,
                      build_report, generate, load_instance, load_trace, save_instance,
                      to_soc, trial_seed)
from socalloc.cli import main
from socalloc.metrics import csv_header, csv_row

from helpers import step, steps_csv, traced_peak_mb, zip_members

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

    @pytest.mark.parametrize("flag, value, message", [
        ("--trials", "0", "at least one trial"), ("--n-grid", "10,0", "at least 1"),
        ("--tol", "0", "tol must be positive"), ("--tol", "nan", "tol must be positive"),
        ("--eta", "0.3,0.9", "negative safety coefficient"),
        ("--eta", None, "risk spec is empty"), ("--variants", "vanilla,vanilla", "named once")],
        ids=["trials-0", "grid-point-0", "tol-0", "tol-nan", "negative-psi", "no-targets",
             "variant-twice"])
    def test_plan_without_trials_is_data_error(self, tmp_path, capsys, flag, value, message):
        # every refusal comes from ExperimentPlan, before the run writes anything
        options = {"--n-grid": "10", "--trials": "1", "--eta": "0.9,0.9",
                   "--variants": "vanilla", flag: value}
        argv = [word for option, text in options.items() if text is not None
                for word in (option, text)]
        assert run(tmp_path, "experiment", "--experiment", "uniform", "--m", "2", "--k", "3",
                   "--no-baseline", *argv, "--out", "res") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("command", ["generate", "solve-online", "experiment"])
    def test_negative_seed_is_data_error(self, tmp_path, capsys, command):
        # the generator's Philox key, the tie-break stream and the cells' seeds
        # are refused where their configs are built, not by numpy later
        assert run(tmp_path, "generate", "--experiment", "uniform", "--n", "10", "--m", "2",
                   "--k", "3", "--eta", "0.9,0.9") == 0
        argv = {"generate": ["--experiment", "uniform", "--n", "10", "--m", "2", "--k", "3"],
                "solve-online": ["--instance", "instance.json"],
                "experiment": ["--experiment", "uniform", "--n-grid", "10", "--trials", "1",
                               "--m", "2", "--k", "3", "--eta", "0.9,0.9"]}[command]
        capsys.readouterr()
        assert run(tmp_path, command, *argv, "--seed", "-1", "--out", "out.file") == 2
        captured = capsys.readouterr()
        assert "seed" in captured.err and "Traceback" not in captured.err
        assert not captured.out and not (tmp_path / "out.file").exists()

    def test_other_plan_in_same_out_is_data_error(self, tmp_path, capsys):
        common = ("experiment", "--experiment", "uniform", "--n-grid", "10",
                  "--trials", "1", "--k", "3", "--variants", "vanilla",
                  "--no-baseline", "--out", "res")
        assert run(tmp_path, *common, "--m", "2", "--eta", "0.9,0.9") == 0
        assert run(tmp_path, *common, "--m", "3", "--eta", "0.9,0.9,0.9") == 2
        assert "another plan" in capsys.readouterr().err


def _zero_budget(doc):
    doc["d"][1] = 0.0


def _negative_variance(doc):
    doc["requests"][3]["k_diag"][0][1] = -0.25


def _nan_revenue(doc):
    doc["requests"][2]["c"][0] = float("nan")  # written as the literal NaN


def _eta_out_of_range(doc):
    doc["risk"]["eta"][0] = 1.5


def _psi_inconsistent_with_eta(doc):
    doc["risk"]["psi"] = [9.0, 9.0]


def _set(key, index, value):
    """A corruption writing ``value`` to ``doc[key]`` (or ``doc[key][index]``)."""
    def corrupt(doc):
        if index is None:
            doc[key] = value
        else:
            doc[key][index] = value
    corrupt.__name__ = f"{key}{'' if index is None else [index]}={value!r}"
    return corrupt


def _request(field, value):
    """A corruption writing ``value`` to field ``field`` of request 2."""
    def corrupt(doc):
        doc["requests"][2][field] = value
    corrupt.__name__ = f"requests[2].{field}={value!r}"
    return corrupt


def _ragged_revenues(doc):
    doc["requests"][2]["c"].pop()


def _eta_not_a_list(doc):
    doc["risk"]["eta"] = "x"


def _top_level_list(doc):
    return [doc]


class TestBadInstanceFile:
    """An instance file with values outside the model's domain, or of the
    wrong JSON type, is a data error for every command that reads one."""

    @pytest.mark.parametrize("command", ["solve-online", "baseline", "evaluate"])
    @pytest.mark.parametrize("corrupt", [
        _zero_budget, _negative_variance, _nan_revenue, _eta_out_of_range,
        _psi_inconsistent_with_eta,
        # wrong JSON types; true and false are not numbers
        _set("d", None, "x"), _set("requests", None, None), _set("requests", None, []),
        _set("risk", None, [1]), _request("c", ["a", 1, 2]), _request("c", [True, 1, 2]),
        _ragged_revenues, _request("a_bar", None), _eta_not_a_list, _top_level_list])
    def test_exits_2(self, tmp_path, capsys, command, corrupt):
        assert run(tmp_path, "generate", "--experiment", "uniform", "--n", "10",
                   "--m", "2", "--k", "3", "--eta", "0.9,0.8", "--seed", "4") == 0
        assert run(tmp_path, "solve-online", "--instance", "instance.json") == 0
        doc = json.loads((tmp_path / "instance.json").read_text())
        replaced = corrupt(doc)
        (tmp_path / "bad.json").write_text(json.dumps(doc if replaced is None else replaced))
        argv = [command, "--instance", "bad.json", "--out", "out.file"]
        if command == "evaluate":
            argv += ["--trace", "trace.json"]
        capsys.readouterr()
        assert run(tmp_path, *argv) == 2
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "out.file").exists()


class TestNonUtf8File:
    """A file holding a byte that is not UTF-8 is a data error naming the
    file, for each kind of file a command reads."""

    @pytest.fixture
    def files(self, tmp_path, capsys):
        assert run(tmp_path, "generate", "--experiment", "uniform", "--n", "10",
                   "--m", "2", "--k", "3", "--eta", "0.9,0.8", "--seed", "4") == 0
        assert run(tmp_path, "solve-online", "--instance", "instance.json") == 0
        assert run(tmp_path, "baseline", "--instance", "instance.json") == 0
        capsys.readouterr()
        return tmp_path

    @staticmethod
    def spoil(tmp_path, name):
        # a 0xff byte inside the first string of the document
        data = (tmp_path / name).read_bytes()
        (tmp_path / "bad.json").write_bytes(data.replace(b'"', b'"\xff', 1))

    def expect_data_error(self, tmp_path, capsys, *argv):
        assert run(tmp_path, *argv, "--out", "out.file") == 2
        err = capsys.readouterr().err
        assert "bad.json is not UTF-8 text" in err and "Traceback" not in err
        assert not (tmp_path / "out.file").exists()

    @pytest.mark.parametrize("command", ["solve-online", "baseline", "evaluate"])
    def test_instance_file(self, files, capsys, command):
        self.spoil(files, "instance.json")
        extra = ["--trace", "trace.json"] if command == "evaluate" else []
        self.expect_data_error(files, capsys, command, "--instance", "bad.json", *extra)

    def test_trace_file(self, files, capsys):
        self.spoil(files, "trace.json")
        self.expect_data_error(files, capsys, "evaluate", "--instance", "instance.json",
                               "--trace", "bad.json")

    def test_certificate_file(self, files, capsys):
        self.spoil(files, "certificate.json")
        self.expect_data_error(files, capsys, "evaluate", "--instance", "instance.json",
                               "--trace", "trace.json", "--baseline", "bad.json")


def _edit_part(edit):
    """A damage decoding a part file, applying ``edit`` and encoding it again."""
    def damage(data):
        doc = json.loads(data)
        edit(doc)
        return json.dumps(doc).encode()
    return damage


class TestDamagedResultsDirectory:
    """A part file or plan.json that is not UTF-8 text or not a JSON object,
    or a part whose reports are not MetricsReport's fields of JSON numbers
    over the plan's resources, makes the next experiment run into its directory a data error naming
    the file."""

    @pytest.mark.parametrize("name, damage", [
        ("cell_n10_t0.json", lambda data: data.replace(b'"', b'"\xff', 1)),
        ("plan.json", lambda data: data.replace(b'"', b'"\xff', 1)),
        ("plan.json", lambda data: b"[1]"),
        ("cell_n10_t0.json", _edit_part(lambda doc: doc.update(reports=None))),
        ("cell_n10_t0.json", _edit_part(lambda doc: doc["reports"]["vanilla"].update(
            objective="x"))),
        ("cell_n10_t0.json", _edit_part(lambda doc: doc["reports"]["vanilla"].update(
            extra=1.0))),
        ("cell_n10_t0.json", _edit_part(lambda doc: doc["reports"]["vanilla"][
            "per_constraint"].update(soc_violation=[0.5]))),
        ("cell_n10_t0.json", _edit_part(lambda doc: doc.pop("seed")))],
        ids=["part-not-utf8", "plan-not-utf8", "plan-not-an-object", "reports-null",
             "objective-a-string", "report-extra-field", "vector-of-one-resource",
             "part-without-seed"])
    def test_exits_2(self, tmp_path, capsys, name, damage):
        common = ("experiment", "--experiment", "uniform", "--trials", "1", "--m", "2",
                  "--k", "3", "--eta", "0.9,0.9", "--variants", "vanilla",
                  "--no-baseline", "--out", "res")
        assert run(tmp_path, *common, "--n-grid", "10") == 0
        path = tmp_path / "res" / "parts" / name
        path.write_bytes(damage(path.read_bytes()))
        capsys.readouterr()
        assert run(tmp_path, *common, "--n-grid", "20") == 2
        err = capsys.readouterr().err
        assert f"parts/{name}" in err and "Traceback" not in err


def _drop_decision(doc):
    doc["decisions"].pop()


def _shift_total(key):
    """A corruption moving ``doc[key]`` (its first entry, for a list) by
    about 1e-6, far beyond rounding and too little to matter otherwise."""
    def corrupt(doc):
        if key == "objective":
            doc[key] = doc[key] * (1 + 1e-6) + 1e-6
        else:
            doc[key][0] = doc[key][0] * (1 + 1e-6) + 1e-6
    corrupt.__name__ = f"shift_{key}"
    return corrupt


class TestBadTraceOrCertificate:
    """An evaluate input outside its domain, or a trace that does not fit
    its instance, is a data error and writes nothing."""

    @pytest.fixture
    def files(self, tmp_path, capsys):
        assert run(tmp_path, "generate", "--experiment", "uniform", "--n", "10",
                   "--m", "2", "--k", "3", "--eta", "0.9,0.8", "--seed", "4") == 0
        assert run(tmp_path, "solve-online", "--instance", "instance.json") == 0
        assert run(tmp_path, "baseline", "--instance", "instance.json") == 0
        capsys.readouterr()
        return tmp_path

    def evaluate(self, tmp_path, capsys, name, corrupt):
        doc = json.loads((tmp_path / f"{name}.json").read_text())
        corrupt(doc)
        (tmp_path / "bad.json").write_text(json.dumps(doc))  # NaN as the literal NaN
        files = {"trace": "trace.json", "certificate": "certificate.json", name: "bad.json"}
        code = run(tmp_path, "evaluate", "--instance", "instance.json",
                   "--trace", files["trace"], "--baseline", files["certificate"],
                   "--out", "out.csv")
        return code, capsys.readouterr().err

    def test_unedited_files_evaluate(self, files, capsys):
        assert self.evaluate(files, capsys, "trace", lambda doc: None)[0] == 0

    @pytest.mark.parametrize("corrupt", [
        _set("decisions", 0, 99), _set("decisions", 1, -3), _set("decisions", 2, 1.0),
        _set("decisions", 3, True), _drop_decision, _set("mean_consumption", None, [1.0]),
        _set("variance_accum", None, [0.1, 0.2, 0.3])], ids=lambda corrupt: corrupt.__name__)
    def test_foreign_trace_exits_2(self, files, capsys, corrupt):
        code, err = self.evaluate(files, capsys, "trace", corrupt)
        assert code == 2 and "trace does not fit the instance" in err
        assert not (files / "out.csv").exists()

    @pytest.mark.parametrize("corrupt", [
        _set("objective", None, float("nan")), _set("variance_accum", 0, -0.5),
        _set("mean_consumption", 1, float("inf")), _set("max_dual_inf", None, -1.0)],
        ids=lambda corrupt: corrupt.__name__)
    def test_invalid_trace_exits_2(self, files, capsys, corrupt):
        code, err = self.evaluate(files, capsys, "trace", corrupt)
        assert code == 2 and "invalid trace" in err
        assert not (files / "out.csv").exists()

    @pytest.mark.parametrize("corrupt", [
        _set("value", None, float("nan")), _set("value", None, float("inf")),
        _set("p_star", 0, -0.1), _set("p_star", 1, float("nan")),
        _set("iterations", None, -5), _set("gap", None, -1e-3),
        _set("gap", None, float("nan"))],
        ids=lambda corrupt: corrupt.__name__)
    def test_certificate_exits_2(self, files, capsys, corrupt):
        code, err = self.evaluate(files, capsys, "certificate", corrupt)
        assert code == 2 and "invalid certificate" in err
        assert not (files / "out.csv").exists()

    def test_certificate_names_every_violation(self, files, capsys):
        def corrupt(doc):
            doc.update(value=float("nan"), iterations=-5, gap=-1.0)
            doc["p_star"][0] = -1.0
        _, err = self.evaluate(files, capsys, "certificate", corrupt)
        assert all(word in err for word in ("value", "prices", "iterations", "gap"))

    @pytest.mark.parametrize("name, key, index, value", [
        ("trace", "objective", None, None), ("trace", "decisions", None, None),
        ("trace", "mean_consumption", None, "1.0"), ("trace", "variance_accum", 0, [0.5]),
        ("certificate", "value", None, None), ("certificate", "p_star", None, ["a", 1]),
        ("certificate", "iterations", None, 2.5), ("certificate", "gap", None, True)])
    def test_wrong_json_type_exits_2(self, files, capsys, name, key, index, value):
        code, err = self.evaluate(files, capsys, name, _set(key, index, value))
        assert code == 2 and f"field {key!r} has the wrong JSON type" in err
        assert not (files / "out.csv").exists()

    def test_prices_of_wrong_length_exit_2(self, files, capsys):
        code, err = self.evaluate(files, capsys, "certificate", _set("p_star", None, [0.1]))
        assert code == 2 and "certificate does not fit the instance" in err
        assert not (files / "out.csv").exists()

    @pytest.mark.parametrize("corrupt", [
        _set("objective", None, 123456.0), _shift_total("objective"),
        _shift_total("mean_consumption"), _shift_total("variance_accum")],
        ids=lambda corrupt: corrupt.__name__)
    def test_edited_totals_exit_2(self, files, capsys, corrupt):
        code, err = self.evaluate(files, capsys, "trace", corrupt)
        assert code == 2 and "are not the sums of its decisions" in err
        assert not (files / "out.csv").exists()

    def test_totals_agree_with_the_decisions_of_every_variant(self, tmp_path, capsys):
        # the lanes sum in step order, evaluate with numpy; both agree to 1e-9
        assert run(tmp_path, "generate", "--experiment", "chi-square", "--n", "3000",
                   "--m", "3", "--k", "4", "--eta", "0.9,0.8,0.7", "--seed", "5") == 0
        for variant in ("vanilla", "marginal", "marginal-dynamic"):
            assert run(tmp_path, "solve-online", "--instance", "instance.json",
                       "--variant", variant) == 0
            assert run(tmp_path, "evaluate", "--instance", "instance.json",
                       "--trace", "trace.json") == 0


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


def _pipeline(tmp_path, drop_sidecar=False):
    """Run generate -> baseline -> solve-online --trace -> evaluate in
    ``tmp_path``; with ``drop_sidecar``, the readers find no sidecar."""
    assert run(tmp_path, "generate", "--experiment", "chi-square", "--n", "300",
               "--m", "4", "--k", "5", "--eta", ETA, "--gamma-tilde", "0.3,0.3,0.3,0.3",
               "--seed", "8") == 0
    if drop_sidecar:
        (tmp_path / "instance.json.npz").unlink()
    assert run(tmp_path, "baseline", "--instance", "instance.json") == 0
    assert run(tmp_path, "solve-online", "--instance", "instance.json",
               "--variant", "marginal-dynamic", "--seed", "8", "--trace") == 0
    assert run(tmp_path, "evaluate", "--instance", "instance.json", "--trace", "trace.json",
               "--baseline", "certificate.json") == 0


class TestSolveOnline:
    def test_builds_no_linearization(self, tmp_path, capsys, monkeypatch):
        # the lanes price their own columns, so solve-online reads the instance alone
        assert run(tmp_path, "generate", "--experiment", "chi-square", "--n", "200",
                   "--m", "3", "--k", "4", "--eta", "0.9,0.8,0.7", "--seed", "6") == 0
        argv = ("solve-online", "--instance", "instance.json", "--variant", "marginal",
                "--seed", "6", "--trace", "--out")
        assert run(tmp_path, *argv, "plain.json") == 0

        def refuse(instance):
            raise AssertionError("solve-online called linearize")

        monkeypatch.setattr("socalloc.cli.linearize", refuse)
        assert run(tmp_path, *argv, "patched.json") == 0
        for suffix in (".json", ".steps.csv"):
            assert ((tmp_path / f"plain{suffix}").read_bytes()
                    == (tmp_path / f"patched{suffix}").read_bytes()), suffix


class TestGenerateFromDraws:
    """generate writes the instance from the draws, 256 requests at a time,
    without building it: its files are those the library writes for the
    built instance."""

    @pytest.mark.parametrize("caps", [None, (0.2, 0.4)], ids=["eta", "eta-caps"])
    @pytest.mark.parametrize("experiment", ["uniform", "chi-square"])
    @pytest.mark.parametrize("n", [1, 257, 513])  # one request; one and two blocks and one
    def test_files_equal_the_library_save(self, tmp_path, capsys, n, experiment, caps):
        argv = ["generate", "--experiment", experiment, "--n", str(n), "--m", "2", "--k", "3",
                "--eta", "0.7,0.9", "--seed", "5"]
        if caps is not None:
            argv += ["--gamma-tilde", ",".join(map(repr, caps))]
        assert run(tmp_path, *argv) == 0
        save_instance(generate(GeneratorConfig(
            experiment.replace("-", "_"), n=n, m=2, k=3, eta=(0.7, 0.9), gamma_tilde=caps,
            seed=5)), tmp_path / "library.json")
        assert ((tmp_path / "instance.json").read_bytes()
                == (tmp_path / "library.json").read_bytes())
        assert (zip_members(tmp_path / "instance.json.npz")
                == zip_members(tmp_path / "library.json.npz"))

    def test_write_holds_no_whole_instance(self, tmp_path, capsys):
        # the built instance and np.savez's copies of its arrays peaked at 5.0 MiB;
        # drawn and written 256 requests at a time, at 1.1 MiB
        def generate_n(n):
            assert run(tmp_path, "generate", "--experiment", "uniform", "--n", str(n),
                       "--m", "4", "--k", "5", "--eta", ETA,
                       "--gamma-tilde", "0.2,0.3,0.4,0.5", "--seed", "7") == 0
        assert traced_peak_mb(generate_n, 10000, warm=lambda: generate_n(10)) < 3


class TestStepsFile:
    def test_rows_equal_the_per_step_recorder(self, tmp_path, capsys):
        # n = 1100 spans two lane blocks (1024 steps) and five 256-row blocks
        n = 1100
        assert run(tmp_path, "generate", "--experiment", "chi-square", "--n", str(n),
                   "--m", "3", "--k", "4", "--eta", "0.9,0.8,0.7", "--seed", "6") == 0
        assert run(tmp_path, "solve-online", "--instance", "instance.json",
                   "--variant", "marginal-dynamic", "--seed", "6", "--trace") == 0
        solver = OnlineSolver(to_soc(load_instance(tmp_path / "instance.json")),
                              VariantConfig("marginal-dynamic", 6), record_steps=True)
        rows = []
        for t in range(n):
            scheme = step(solver)
            rows.append((t, scheme, *(record[-1] for record in solver.steps)))
        assert any(scheme is None for _, scheme, *_ in rows)
        assert (tmp_path / "trace.steps.csv").read_text() == steps_csv(rows)


class _FillingFile:
    """A file opened for writing that takes ``room`` more bytes, then
    raises ENOSPC partway through a write."""

    def __init__(self, fh, room: int, written: list):
        self.fh, self.room, self.written = fh, room, written

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        data = data if isinstance(data, str) else bytes(data)
        self.written.append(min(len(data), self.room))
        self.fh.write(data[:self.room])
        if len(data) > self.room:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(data)
        return len(data)


def _files(root: Path) -> dict:
    """The bytes of every file under ``root``, by relative path."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestReplacingWrites:
    """Every output file is written under a temporary name and renamed: a
    write that fails partway leaves no part file and every earlier file as
    it was.  solve-online renames trace.json and steps.csv only after both
    are written, so a failed write of either leaves the earlier pair."""

    INST = "instance.json"
    EXPERIMENT = ["experiment", "--experiment", "uniform", "--n-grid", "40,60", "--trials",
                  "2", "--m", "2", "--k", "3", "--eta", "0.9,0.8", "--no-baseline", "--out"]

    @pytest.mark.parametrize("name, argv, room", [
        ("trace.steps.csv", ["solve-online", "--instance", INST, "--trace", "--variant"], 30000),
        ("trace.json", ["solve-online", "--instance", INST, "--trace", "--variant"], 100),
        ("certificate.json", ["baseline", "--instance", INST, "--tol"], 20),
        ("metrics.csv", ["evaluate", "--instance", INST, "--trace", "trace.json", "--variant"],
         40),
        ("aggregate.json", EXPERIMENT, 100),
    ])
    def test_failed_write_keeps_the_earlier_file(self, tmp_path, capsys, monkeypatch,
                                                 name, argv, room):
        assert run(tmp_path, "generate", "--experiment", "uniform", "--n", "600",
                   "--m", "2", "--k", "3", "--eta", "0.9,0.8", "--seed", "4") == 0
        assert run(tmp_path, "solve-online", "--instance", "instance.json") == 0
        # the experiment is rerun as it was: its files come back byte-identical
        first, second = {"solve-online": ("vanilla", "marginal"), "baseline": ("1e-6", "1e-3"),
                         "evaluate": ("a", "b"), "experiment": ("res", "res")}[argv[0]]
        assert run(tmp_path, *argv, first) == 0
        before = _files(tmp_path)
        assert any(path.endswith(name) for path in before)
        open_, written = Path.open, []

        def open_filling(self, mode="r", *args, **kwargs):
            fh = open_(self, mode, *args, **kwargs)
            return (_FillingFile(fh, room, written)
                    if "w" in mode and self.name.startswith(name) else fh)
        monkeypatch.setattr(Path, "open", open_filling)
        assert run(tmp_path, *argv, second) == 2
        assert "No space left" in capsys.readouterr().err
        assert sum(written) == room and len(written) >= 1
        assert _files(tmp_path) == before


class TestCertificateCheck:
    """evaluate refuses a certificate whose value is not the dual value of its
    prices on the instance it scores, risk overrides applied."""

    @staticmethod
    def certify(tmp_path, experiment, seed, n=2000):
        out = f"{experiment}{seed}"
        assert run(tmp_path, "generate", "--experiment", experiment, "--n", str(n), "--m",
                   "4", "--k", "5", "--eta", ETA, "--seed", str(seed), "--out",
                   f"{out}.json") == 0
        assert run(tmp_path, "baseline", "--instance", f"{out}.json", "--out",
                   f"cert_{out}.json") == 0
        assert run(tmp_path, "solve-online", "--instance", f"{out}.json", "--out",
                   f"trace_{out}.json") == 0
        return out

    def evaluate(self, tmp_path, capsys, out, cert, *flags):
        code = run(tmp_path, "evaluate", "--instance", f"{out}.json", "--trace",
                   f"trace_{out}.json", "--baseline", cert, "--out", "m.csv", *flags)
        return code, capsys.readouterr().err

    def test_foreign_certificate_exits_2(self, tmp_path, capsys):
        a = self.certify(tmp_path, "uniform", 1)
        b = self.certify(tmp_path, "chi-square", 2)
        code, err = self.evaluate(tmp_path, capsys, b, f"cert_{a}.json")
        assert code == 2 and f"cert_{a}.json: the certificate's value" in err
        assert not (tmp_path / "m.csv").exists()

    def test_tampered_value_exits_2(self, tmp_path, capsys):
        out = self.certify(tmp_path, "uniform", 3, n=300)
        doc = json.loads((tmp_path / f"cert_{out}.json").read_text())
        doc["value"] *= 1 + 1e-8
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        code, err = self.evaluate(tmp_path, capsys, out, "bad.json")
        assert code == 2 and "bad.json: the certificate's value is not the dual" in err
        assert not (tmp_path / "m.csv").exists()

    def test_override_that_changes_psi_exits_2(self, tmp_path, capsys):
        out = self.certify(tmp_path, "uniform", 4, n=300)
        assert self.evaluate(tmp_path, capsys, out, f"cert_{out}.json", "--eta", ETA)[0] == 0
        code, err = self.evaluate(tmp_path, capsys, out, f"cert_{out}.json",
                                  "--eta", "0.65,0.75,0.85,0.99")
        assert code == 2 and "the certificate's value is not the dual" in err

    def test_genuine_certificate_scores_as_the_library(self, tmp_path, capsys):
        out = self.certify(tmp_path, "chi-square", 5, n=300)
        assert self.evaluate(tmp_path, capsys, out, f"cert_{out}.json")[0] == 0
        instance = to_soc(load_instance(tmp_path / f"{out}.json"))
        cert = DualCertificate.from_dict(json.loads((tmp_path / f"cert_{out}.json").read_text()))
        report = build_report(instance, load_trace(tmp_path / f"trace_{out}.json"), cert)
        want = csv_header(4) + csv_row("custom", "unknown", 300, 0, 0, report, 4)
        assert (tmp_path / "m.csv").read_text() == want


class TestInstanceSidecar:
    """generate writes instance.json.npz beside instance.json, and every
    reader takes the arrays from it while it holds the JSON's digest."""

    def test_outputs_do_not_depend_on_the_sidecar(self, tmp_path, capsys):
        (tmp_path / "with").mkdir()
        (tmp_path / "without").mkdir()
        _pipeline(tmp_path / "with")
        _pipeline(tmp_path / "without", drop_sidecar=True)
        names = ["certificate.json", "instance.json", "metrics.csv", "trace.json",
                 "trace.steps.csv"]
        assert sorted(p.name for p in (tmp_path / "with").iterdir()) == sorted(
            names + ["instance.json.npz"])
        for name in names:
            assert ((tmp_path / "with" / name).read_bytes()
                    == (tmp_path / "without" / name).read_bytes()), name

    def test_directory_at_the_sidecar_name(self, tmp_path, capsys):
        (tmp_path / "instance.json.npz").mkdir()
        _pipeline(tmp_path)
        assert (tmp_path / "instance.json.npz").is_dir()
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("bit", [0, 5, 6], ids=["encrypted", "patched", "strong-encryption"])
    def test_zip_flag_falls_back_to_the_json(self, tmp_path, capsys, bit):
        # zipfile refuses these flag bits of a member with RuntimeError or
        # NotImplementedError, not BadZipFile; the readers then decode the JSON
        _pipeline(tmp_path)
        before = _files(tmp_path)
        sidecar = tmp_path / "instance.json.npz"
        data = bytearray(sidecar.read_bytes())
        entry = data.index(b"c.npy", data.index(b"PK\x01\x02")) - 46  # its central record
        data[entry + 8] |= 1 << bit
        sidecar.write_bytes(bytes(data))
        for argv in (["baseline"], ["solve-online", "--variant", "marginal-dynamic", "--seed",
                                    "8", "--trace"],
                     ["evaluate", "--trace", "trace.json", "--baseline", "certificate.json"]):
            assert run(tmp_path, *argv, "--instance", "instance.json") == 0
        assert _files(tmp_path) == {**before, "instance.json.npz": bytes(data)}

    def test_nan_in_a_fresh_sidecar_exits_2(self, tmp_path, capsys):
        _pipeline(tmp_path)
        sidecar = tmp_path / "instance.json.npz"
        with np.load(sidecar) as z:
            arrays = dict(z)
        arrays["c"][4, 1] = np.nan
        np.savez(sidecar, **arrays)  # the digest still matches instance.json
        capsys.readouterr()
        for argv in (["baseline"], ["solve-online"], ["evaluate", "--trace", "trace.json"]):
            assert run(tmp_path, *argv, "--instance", "instance.json", "--out", "out.file") == 2
            assert "revenues must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out.file").exists()


#: Edits of a file's bytes: (kind, where, bytes).  ``where`` is taken modulo
#: the file's length; a flip XORs one byte with the first of ``bytes``, and
#: the kind "replace", given only as an explicit example, writes ``bytes`` whole.
BYTE_EDITS = hst.tuples(hst.sampled_from(["flip", "truncate", "insert"]),
                        hst.integers(0, 2 ** 16), hst.binary(min_size=1, max_size=4))


def _edited(data: bytes, edit) -> bytes:
    kind, where, payload = edit
    if kind == "replace":
        return payload
    i = where % len(data)
    if kind == "flip":
        return data[:i] + bytes([data[i] ^ (payload[0] or 1)]) + data[i + 1:]
    return data[:i] if kind == "truncate" else data[:i] + payload + data[i:]


def _experiment(n_grid: str) -> list:
    """An experiment run into ``res``; a run over another grid reads its parts."""
    return ["experiment", "--experiment", "uniform", "--n-grid", n_grid, "--trials", "1",
            "--m", "2", "--k", "3", "--eta", "0.9,0.8", "--variants", "vanilla",
            "--no-baseline", "--out", "res"]


#: Each instance reader gets ``bad.json`` and its sidecar ``bad.json.npz``, one
#: of them edited.  ``evaluate`` is given the instance's own targets, so that an
#: edit dropping them leaves an instance it scores, not a usage error.
_INSTANCE_READERS = (["solve-online", "--instance", "bad.json"],
                     ["baseline", "--instance", "bad.json"],
                     ["evaluate", "--instance", "bad.json", "--trace", "trace.json",
                      "--baseline", "certificate.json", "--eta", "0.9,0.8"])

#: Per file read back: the pristine file the edit is made to, where the edited
#: bytes go, and every command that reads that file.
READ_BACK = {
    "instance": ("instance.json", "bad.json", _INSTANCE_READERS),
    "sidecar": ("instance.json.npz", "bad.json.npz", _INSTANCE_READERS),
    "trace": ("trace.json", "bad.json", (["evaluate", "--instance", "instance.json",
                                          "--trace", "bad.json"],)),
    "certificate": ("certificate.json", "bad.json", (
        ["evaluate", "--instance", "instance.json", "--trace", "trace.json",
         "--baseline", "bad.json"],)),
    "plan": ("res/parts/plan.json", "res/parts/plan.json", (_experiment("20"),)),
    "part": ("res/parts/cell_n10_t0.json", "res/parts/cell_n10_t0.json", (_experiment("20"),)),
}


class TestByteEdits:
    """A byte flipped, a tail cut off or bytes inserted anywhere in a file a
    command reads back makes that command succeed or exit 2 with a data
    error: never a usage error, never an exception out of ``main``."""

    @pytest.fixture(scope="class")
    def pristine(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("pristine")
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(root, "generate", "--experiment", "uniform", "--n", "10", "--m", "2",
                       "--k", "3", "--eta", "0.9,0.8", "--seed", "4") == 0
            assert run(root, "solve-online", "--instance", "instance.json") == 0
            assert run(root, "baseline", "--instance", "instance.json") == 0
            assert run(root, *_experiment("10")) == 0
        return root

    @pytest.mark.parametrize("name", list(READ_BACK))
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(edit=BYTE_EDITS)
    @example(edit=("replace", 0, b"[1]"))
    @example(edit=("replace", 0, b"null"))
    def test_exits_0_or_2(self, pristine, tmp_path_factory, name, edit):
        source, target, readers = READ_BACK[name]
        work = tmp_path_factory.mktemp(name)
        shutil.copytree(pristine, work, dirs_exist_ok=True)
        for suffix in ("", ".npz"):  # the instance the instance readers get
            shutil.copy(pristine / f"instance.json{suffix}", work / f"bad.json{suffix}")
        (work / target).write_bytes(_edited((pristine / source).read_bytes(), edit))
        for argv in readers:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run(work, *argv)
            assert code == 0 or code == 2 and err.getvalue().startswith("data error: "), \
                (argv, code, err.getvalue())
        shutil.rmtree(work)


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
