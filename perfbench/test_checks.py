"""The benchmark's checks pass the program's outputs and reject tampered ones.

    python3 -m pytest -q perfbench/test_checks.py

Each check runs on small outputs of the program (a two-n sweep and a
CLI pipeline at n = 300); a tampered copy of each output (a lowered
certificate, a flipped decision, a changed metric cell, a non-identical
rerun) must be reported.
"""

import csv
import io
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import verify  # noqa: E402
from workloads import CAP, ETA, VARIANTS, cli_steps, sweep_plan  # noqa: E402

SEED = 3
SWEEP = {"experiment": "chi_square", "n_grid": (150, 300), "trials": 2,
         "eta": ETA, "gamma_tilde": None, "baseline": True}
PIPELINE = {"experiment": "uniform", "n": 300, "eta": ETA, "gamma_tilde": CAP}
CHECKED_CELL = (min(SWEEP["n_grid"]), SEED % SWEEP["trials"])


@pytest.fixture(scope="module")
def sweep_dirs(tmp_path_factory):
    from socalloc import run_experiment
    root = tmp_path_factory.mktemp("sweep")
    for i in range(2):
        run_experiment(sweep_plan(SWEEP, SEED, root / f"round{i}"))
    return root


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    from socalloc.cli import main
    root = tmp_path_factory.mktemp("pipeline")
    cwd = os.getcwd()
    try:
        for i in range(2):
            (root / f"round{i}").mkdir()
            os.chdir(root / f"round{i}")
            for _, args in cli_steps(PIPELINE, SEED):
                assert main(args) == 0
    finally:
        os.chdir(cwd)
    return root


def copy(src: Path, tmp_path: Path) -> list:
    shutil.copytree(src, tmp_path / "copy")
    return [tmp_path / "copy" / "round0", tmp_path / "copy" / "round1"]


def edit_csv_cell(path: Path, column: str, change, where=lambda row: True):
    """Apply ``change`` to ``column`` of the first matching row of a metrics.csv."""
    lines = path.read_text().splitlines(keepends=True)
    comment = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    reader = csv.DictReader(body)
    rows = list(reader)
    row = next(r for r in rows if where(r))
    row[column] = repr(change(float(row[column])))
    out = io.StringIO()
    writer = csv.DictWriter(out, reader.fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    path.write_text("".join(comment) + out.getvalue())


def in_checked_cell(variant):
    return lambda r: ((int(r["n"]), int(r["trial"])) == CHECKED_CELL
                      and r["variant"] == variant)


# ---------------------------------------------------------------------------

def test_psi_matches_program():
    from socalloc import safety_coefficient
    expect = [safety_coefficient(e, g) for e, g in zip(ETA, CAP)]
    assert np.allclose(checks.psi(ETA, CAP), expect, rtol=1e-12)
    assert np.allclose(checks.psi(ETA, None), [safety_coefficient(e) for e in ETA],
                       rtol=1e-12)


def test_sweep_outputs_pass(sweep_dirs, tmp_path):
    cells, failed, problems = verify.check_sweep(SWEEP, SEED, copy(sweep_dirs, tmp_path))
    assert (cells, failed, problems) == (4, 0, [])


def test_sweep_rejects_changed_metric_cell(sweep_dirs, tmp_path):
    dirs = copy(sweep_dirs, tmp_path)
    edit_csv_cell(dirs[0] / "metrics.csv", "prob_dev_4", lambda v: v + 1e-4,
                  in_checked_cell("marginal"))
    _, _, problems = verify.check_sweep(SWEEP, SEED, dirs)
    assert any("prob_dev_4" in p for p in problems)


@pytest.mark.parametrize("change, message", [
    (lambda v: v * (1 - 1e-6), "below the LP optimum"),
    (lambda v: v * (1 + 1e-4), "exceeds the LP optimum"),
    (lambda v: float("nan"), "is not a number"),
])
def test_sweep_rejects_certificate_off_lp(sweep_dirs, tmp_path, change, message):
    dirs = copy(sweep_dirs, tmp_path)
    for variant in VARIANTS:
        edit_csv_cell(dirs[0] / "metrics.csv", "baseline_value", change,
                      in_checked_cell(variant))
    _, _, problems = verify.check_sweep(SWEEP, SEED, dirs)
    assert any(message in p for p in problems)


def test_sweep_rejects_non_identical_rerun(sweep_dirs, tmp_path):
    dirs = copy(sweep_dirs, tmp_path)
    doc = json.loads((dirs[1] / "aggregate.json").read_text())
    doc["trials"] += 1
    (dirs[1] / "aggregate.json").write_text(json.dumps(doc, indent=2, sort_keys=True))
    _, _, problems = verify.check_sweep(SWEEP, SEED, dirs)
    assert problems == [f"{dirs[1] / 'aggregate.json'} differs from {dirs[0] / 'aggregate.json'}"]


def test_sweep_counts_failed_cells(sweep_dirs, tmp_path):
    dirs = copy(sweep_dirs, tmp_path)
    text = (dirs[0] / "metrics.csv").read_text()
    (dirs[0] / "metrics.csv").write_text(text.replace(",ok,", ",baseline_failed,", 3))
    _, failed, _ = verify.check_sweep(SWEEP, SEED, dirs)
    assert failed == 1


def test_pipeline_outputs_pass(pipeline_dirs, tmp_path):
    assert verify.check_cli(PIPELINE, SEED, copy(pipeline_dirs, tmp_path)) == []


def test_pipeline_rejects_lowered_certificate(pipeline_dirs, tmp_path):
    dirs = copy(pipeline_dirs, tmp_path)
    for d in dirs:
        doc = json.loads((d / "certificate.json").read_text())
        doc["value"] *= 1 - 1e-6
        (d / "certificate.json").write_text(json.dumps(doc))
    problems = verify.check_cli(PIPELINE, SEED, dirs)
    assert any("is not the dual function" in p for p in problems)


@pytest.mark.parametrize("variant", VARIANTS)
def test_pipeline_rejects_flipped_decision(pipeline_dirs, tmp_path, variant):
    dirs = copy(pipeline_dirs, tmp_path)
    for d in dirs:
        path = d / f"trace_{variant}.json"
        doc = json.loads(path.read_text())
        t = next(t for t, x in enumerate(doc["decisions"]) if x is not None)
        doc["decisions"][t] = None
        path.write_text(json.dumps(doc))
    problems = verify.check_cli(PIPELINE, SEED, dirs)
    assert any(f"{variant} t={t}: skipped with margin" in p for p in problems)


def test_pipeline_rejects_other_scheme(pipeline_dirs, tmp_path):
    dirs = copy(pipeline_dirs, tmp_path)
    for d in dirs:
        path = d / "trace_vanilla.json"
        doc = json.loads(path.read_text())
        t = next(t for t, x in enumerate(doc["decisions"]) if x is not None)
        doc["decisions"][t] = (doc["decisions"][t] + 1) % 5
        path.write_text(json.dumps(doc))
    problems = verify.check_cli(PIPELINE, SEED, dirs)
    assert any(f"vanilla t={t}: scheme" in p for p in problems)


def test_pipeline_rejects_changed_metric_cell(pipeline_dirs, tmp_path):
    dirs = copy(pipeline_dirs, tmp_path)
    for d in dirs:
        edit_csv_cell(d / "metrics_marginal-dynamic.csv", "norm_ce_2", lambda v: v * 1.001)
    problems = verify.check_cli(PIPELINE, SEED, dirs)
    assert any("norm_ce_2" in p for p in problems)


def test_pipeline_rejects_changed_step_record(pipeline_dirs, tmp_path):
    dirs = copy(pipeline_dirs, tmp_path)
    for d in dirs:
        path = d / "trace_marginal.steps.csv"
        lines = path.read_text().splitlines(keepends=True)
        t, scheme, value, prices = lines[-1].rstrip("\n").split(",")
        lines[-1] = f"{t},{scheme},{value},{prices.replace(';', ';1', 1)}\n"
        path.write_text("".join(lines))
    problems = verify.check_cli(PIPELINE, SEED, dirs)
    assert any("prices differ" in p for p in problems)


def test_pipeline_rejects_non_identical_rerun(pipeline_dirs, tmp_path):
    dirs = copy(pipeline_dirs, tmp_path)
    path = dirs[1] / "trace_vanilla.json"
    doc = json.loads(path.read_text())
    doc["objective"] += 1.0
    path.write_text(json.dumps(doc))
    assert verify.check_cli(PIPELINE, SEED, dirs) == [
        f"{path} differs from {dirs[0] / 'trace_vanilla.json'}"]


def test_replay_accepts_either_side_of_a_tie():
    # Two schemes with equal reduced value: either choice passes.
    c = np.array([[1.0, 1.0]])
    a_bar = np.zeros((1, 1, 2))
    k_diag = np.zeros((1, 1, 2))
    for x in (0, 1):
        problems, _ = checks.replay("vanilla", c, a_bar, k_diag, np.ones(1),
                                    np.zeros(1), [x])
        assert problems == []
