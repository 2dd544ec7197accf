"""The output checks of each workload, run after the timed processes end.

Kept apart from run.py so that the process which starts and times the
workload never imports scipy: a child's peak RSS, as ``wait4`` reports
it, includes the parent's resident set at the moment of the spawn.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks
from workloads import CLI_OUTPUTS, K, M, VARIANTS

REPORT_FILES = ("metrics.csv", "aggregate.json", "scaling.json")


def check_sweep(w: dict, seed: int, dirs) -> tuple[int, int, list]:
    """Checks the outputs of sweep spec ``w``; returns (cells, failed cells, problems)."""
    from socalloc import (GeneratorConfig, VariantConfig, generate, linearize,
                          request_fields, run_online, to_soc, trial_seed)
    problems = []
    for other in dirs[1:]:
        problems += checks.check_identical(dirs[0], other, REPORT_FILES)
    rows = checks.read_metrics_csv(dirs[0] / "metrics.csv")
    cells = {(n, t) for n in w["n_grid"] for t in range(w["trials"])}
    got = sorted((int(r["n"]), int(r["trial"]), r["variant"]) for r in rows)
    if got != sorted((n, t, v) for n, t in cells for v in VARIANTS):
        problems.append("metrics.csv does not hold one row per cell and variant")
    failed_cells = len({(r["n"], r["trial"]) for r in rows if r["status"] != "ok"})

    # One cell per run, chosen by the seed at the grid's smallest n, is rebuilt,
    # solved as an LP (certified sweep) and replayed.
    n, trial = min(w["n_grid"]), seed % w["trials"]
    label = f"n={n} trial={trial}"
    cell_seed = trial_seed(seed, n, trial)
    cell = {r["variant"]: r for r in rows if (int(r["n"]), int(r["trial"])) == (n, trial)}
    if sorted(cell) != sorted(VARIANTS) or any(int(r["seed"]) != cell_seed
                                               for r in cell.values()):
        return len(cells), failed_cells, problems + [f"{label}: rows or seeds are wrong"]
    config = GeneratorConfig(w["experiment"], n=n, m=M, k=K, eta=w["eta"],
                             gamma_tilde=w["gamma_tilde"], seed=cell_seed)
    instance = generate(config)
    c, a_bar, k_diag, d = (np.array(x) for x in (instance.c, instance.a_bar,
                                                 instance.k_diag, instance.d))
    problems += checks.check_ranges(w["experiment"], c, a_bar, k_diag)
    problems += checks.check_request_rows(request_fields, config, c, a_bar, k_diag,
                                          sample_steps(n, seed))
    psi = checks.psi(w["eta"], w["gamma_tilde"])
    b = n * d
    baseline_value = float(cell["vanilla"]["baseline_value"])
    if any(not checks.close(float(r["baseline_value"]), baseline_value) for r in cell.values()):
        problems.append(f"{label}: variants disagree on the baseline value")
    if w["baseline"]:
        lp = checks.lp_optimum(c, checks.a_tilde(a_bar, k_diag, psi), b)
        problems += checks.check_against_lp(baseline_value, lp, label)
    soc = to_soc(instance)
    lin = linearize(soc)
    for variant in VARIANTS:
        trace = run_online(soc, lin, VariantConfig(variant, rng_seed=cell_seed))
        vlabel = f"{label} {variant}"
        bad, result = checks.replay(variant, c, a_bar, k_diag, d, psi, trace.decisions)
        problems += bad
        if result is None:
            continue
        problems += checks.check_trace_totals(result, trace.objective, trace.mean_consumption,
                                              trace.variance_accum, vlabel)
        problems += checks.check_row(cell[variant], checks.expected_row(
            result, baseline_value, b, w["eta"], w["gamma_tilde"], psi), vlabel)
    return len(cells), failed_cells, problems


def sample_steps(n: int, seed: int) -> list[int]:
    return [0, n - 1] + np.random.default_rng(seed).integers(0, n, 8).tolist()


def check_cli(spec: dict, seed: int, dirs) -> list:
    """Checks the outputs of pipeline spec ``spec`` against independent computations."""
    from socalloc import GeneratorConfig, request_fields
    problems = []
    for other in dirs[1:]:
        problems += checks.check_identical(dirs[0], other, CLI_OUTPUTS)
    first = dirs[0]
    doc = json.loads((first / "instance.json").read_text())
    reqs = doc["requests"]
    c, a_bar, k_diag = (np.array([r[key] for r in reqs]) for key in ("c", "a_bar", "k_diag"))
    d = np.array(doc["d"])
    n = spec["n"]
    if a_bar.shape != (n, M, K) or doc["risk"].get("eta") != list(spec["eta"]) \
            or doc["risk"].get("gamma_tilde") != list(spec["gamma_tilde"]):
        return problems + ["instance.json does not hold the requested shape and risk"]
    problems += checks.check_ranges(spec["experiment"], c, a_bar, k_diag)
    config = GeneratorConfig(spec["experiment"], n=n, m=M, k=K, eta=spec["eta"],
                             gamma_tilde=spec["gamma_tilde"], seed=seed)
    problems += checks.check_request_rows(request_fields, config, c, a_bar, k_diag,
                                          sample_steps(n, seed))
    psi = checks.psi(spec["eta"], spec["gamma_tilde"])
    b = n * d
    cert = json.loads((first / "certificate.json").read_text())
    problems += checks.check_certificate(cert["value"], cert["p_star"], c,
                                         checks.a_tilde(a_bar, k_diag, psi), b)
    for variant in VARIANTS:
        trace = json.loads((first / f"trace_{variant}.json").read_text())
        bad, result = checks.replay(variant, c, a_bar, k_diag, d, psi, trace["decisions"])
        problems += bad
        if result is None:
            continue
        problems += checks.check_trace_totals(result, trace["objective"],
                                              trace["mean_consumption"],
                                              trace["variance_accum"], variant)
        problems += check_steps_csv(first / f"trace_{variant}.steps.csv",
                                    trace["decisions"], result, variant)
        row = checks.read_metrics_csv(first / f"metrics_{variant}.csv")[0]
        problems += checks.check_row(row, checks.expected_row(
            result, cert["value"], b, spec["eta"], spec["gamma_tilde"], psi), variant)
    return problems


def check_steps_csv(path: Path, decisions, result: dict, label: str) -> list:
    """The per-step record against the replay: scheme, best value, prices."""
    lines = path.read_text().splitlines()[1:]
    if len(lines) != len(decisions):
        return [f"{label}: {path.name} has {len(lines)} rows for {len(decisions)} steps"]
    schemes, values, prices = [], [], []
    for line in lines:
        _, scheme, value, price = line.split(",")
        schemes.append(None if scheme == "" else int(scheme))
        values.append(float(value))
        prices.append([float(p) for p in price.split(";")])
    problems = []
    if schemes != list(decisions):
        problems.append(f"{label}: {path.name} schemes differ from the trace's decisions")
    if not np.allclose(values, result["best_values"], rtol=1e-8, atol=1e-10):
        problems.append(f"{label}: {path.name} values differ from the replayed ones")
    if not np.allclose(prices, result["prices"], rtol=1e-8, atol=1e-10):
        problems.append(f"{label}: {path.name} prices differ from the replayed ones")
    return problems


