"""Experiment orchestration: n-grids, repeated trials, report files.

A plan expands into (n, trial) cells.  Each cell derives its own seed
from (master_seed, n, trial), computes one baseline on its requests,
and runs every variant on those same requests, so variants are compared
like-for-like.  The cells of one n run together, one n after another:
the trials x variants of an n are the lanes of one
:class:`~socalloc.online.Lanes` set, which steps them all with one numpy
call per step.  The lanes draw each trial's requests from the
generator's :class:`~socalloc.generate.RequestDraws` block by block and
price their columns themselves, so no instance is held while they run.
With baselines each trial is first drawn straight into its revenues and
linear columns, a :class:`~socalloc.transform.LinearizedInstance`, and
certified, one trial at a time; only its certificate is kept.  Each cell
writes one part file, the one record of its results; all three report
files are built from every part present, in (n, trial) order, so reruns
are byte-identical and runs of one plan over other n-grids or trial
counts union in a shared output directory.  A fingerprint in ``parts/``
refuses any other plan or format.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .baseline import DualCertificate, minimize_dual
from .errors import ConfigError, ConvergenceError, DomainError
from .generate import GeneratorConfig, RequestDraws
from .metrics import (_SCALARS, MetricsReport, aggregate, build_report, csv_header, csv_row,
                      scaling_slope)
from .model import RiskSpec, _json_field, _read_record, _refuse, _write_replacing
from .online import Lanes, VariantConfig
from .transform import LinearizedInstance, safety_coefficients

DEFAULT_VARIANTS = tuple(VariantConfig(v) for v in
                         ("vanilla", "marginal", "marginal-dynamic"))


@dataclass(frozen=True)
class ExperimentPlan:
    """A generator template swept over an n-grid with repeated trials.  Construction
    refuses a plan that cannot run whole (no trials, a grid point, seed, tol or risk
    target out of its domain, a variant named twice), so a refused plan writes nothing."""

    generator: GeneratorConfig
    n_grid: tuple
    trials: int
    variants: tuple = DEFAULT_VARIANTS
    output_dir: str = "results"
    master_seed: int = 0
    tol: float = 1e-6
    compute_baseline: bool = True

    def __post_init__(self):
        if self.trials < 1 or not len(self.n_grid):
            raise ConfigError(f"a plan needs at least one trial and a nonempty n-grid "
                              f"(trials={self.trials}, n_grid={tuple(self.n_grid)})")
        for n in self.n_grid:
            replace(self.generator, n=int(n))  # GeneratorConfig's rule on n
        names = [v.variant for v in self.variants]
        _refuse("plan", (("the master seed must be nonnegative", self.master_seed >= 0),
                         ("tol must be positive", self.tol > 0),
                         ("each variant may be named once", len(set(names)) == len(names))))
        safety_coefficients(self.generator.risk())


def trial_seed(master_seed: int, n: int, trial: int) -> int:
    """Deterministic 64-bit seed for one (n, trial) cell."""
    ss = np.random.SeedSequence(entropy=(int(master_seed), int(n), int(trial)))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class _Limits:
    """What a report reads of an instance: its risk spec with psi, and
    its total budget."""

    risk: RiskSpec
    budget: np.ndarray

    @property
    def m(self) -> int:
        return len(self.budget)


def run_trial(plan: ExperimentPlan, n: int, trials):
    """Run every variant of the given trials at size n as one lane set.

    Returns one (seed, status, results) per trial, in order; ``results``
    maps variant name to its :class:`MetricsReport`.  All variants of a
    trial share its requests; the tie-break seed equals the generation
    seed.
    """
    n = int(n)
    seeds = [trial_seed(plan.master_seed, n, trial) for trial in trials]
    if not seeds:
        return []
    rows = [RequestDraws(replace(plan.generator, n=n, seed=seed)) for seed in seeds]
    lanes = [(row, replace(variant, rng_seed=seed))
             for row, seed in enumerate(seeds) for variant in plan.variants]
    risk, d = plan.generator.risk(), plan.generator.budget()
    psi = safety_coefficients(risk)
    baselines: list[DualCertificate | None] = [None] * len(seeds)
    statuses = ["ok"] * len(seeds)
    if plan.compute_baseline:
        for row, draws in enumerate(rows):
            try:
                baselines[row] = minimize_dual(LinearizedInstance(draws, psi), tol=plan.tol)
            except ConvergenceError:
                statuses[row] = "baseline_failed"
    limits = _Limits(RiskSpec(risk.eta, risk.gamma_tilde, psi), n * d)

    results: list[dict[str, MetricsReport]] = [{} for _ in seeds]
    for (row, config), trace in zip(lanes, Lanes(rows, psi, lanes).run()):
        results[row][config.variant] = build_report(limits, trace, baselines[row])
    return list(zip(seeds, statuses, results))


def _log_slope(lo, hi) -> float:
    return float(np.log(hi[1] / lo[1]) / np.log(hi[0] / lo[0]))


def _scaling_summary(per_variant_by_n: dict) -> dict:
    """Log-log scaling of mean gap / violations against n, per variant.

    Per metric: ``n`` lists the grid points with a positive mean, the
    ones ``fit`` (the least-squares slope over them) used; ``fit`` is
    null with fewer than three such points.  ``last_pair`` is the slope
    between the two largest grid points, null unless both are positive.
    Metrics the plan does not measure (NaN means) are left out.
    """
    out: dict = {}
    for variant, by_n in per_variant_by_n.items():
        ns = sorted(by_n)
        slopes = {}
        for metric in ("optimality_gap", "soc_violation", "ce_violation",
                       "normalized_ce_violation", "probability_deviation"):
            pts = [(n, float(np.mean([getattr(r, metric) for r in by_n[n]]))) for n in ns]
            if any(np.isnan(v) for _, v in pts):
                continue
            kept = [(n, v) for n, v in pts if v > 0]
            last = pts[-2:]
            slopes[metric] = {
                "n": [n for n, _ in kept],
                "fit": scaling_slope(kept) if len(kept) >= 3 else None,
                "last_pair": (_log_slope(*last) if len(last) == 2
                              and min(v for _, v in last) > 0 else None),
            }
        out[variant] = slopes
    return out


def _plan_fingerprint(plan: ExperimentPlan) -> dict:
    """What makes two runs' rows comparable: everything but the grid, and
    the format of the part files, so that parts of another format are
    refused rather than half-merged."""
    gen = plan.generator

    def floats(values):
        return None if values is None else [float(x) for x in values]

    return {
        "experiment": gen.experiment, "m": gen.m, "k": gen.k,
        "d": floats(gen.d), "eta": floats(gen.eta),
        "gamma_tilde": floats(gen.gamma_tilde),
        "variants": [v.variant for v in plan.variants],
        "master_seed": int(plan.master_seed), "tol": float(plan.tol),
        "compute_baseline": bool(plan.compute_baseline), "parts": "cell-json-v1",
    }


def _claim_directory(parts_dir: Path, plan: ExperimentPlan) -> None:
    """Write the plan fingerprint, or refuse a directory holding another plan's parts."""
    path = parts_dir / "plan.json"
    mine = _plan_fingerprint(plan)
    if path.exists() and (theirs := _read_record(path, dict)) != mine:
        fields = sorted(k for k in mine.keys() | theirs.keys() if mine.get(k) != theirs.get(k))
        raise ConfigError(f"{parts_dir.parent} holds results of another plan "
                          f"(differs in {', '.join(fields)}); use another output directory")
    _write_replacing(path, lambda fh: fh.write(json.dumps(mine, indent=2, sort_keys=True).encode()))


def _part_text(seed: int, status: str, results: dict) -> str:
    """A cell's part file: seed, status and every report, vectors as lists;
    json writes floats with repr and NaN as NaN, so reports read back bit for bit."""
    return json.dumps({"seed": seed, "status": status, "reports": {
        name: dict(vars(report), per_constraint={
            key: vec.tolist() for key, vec in report.per_constraint.items()})
        for name, report in results.items()}})


def _read_parts(parts_dir: Path, m: int):
    """Every part present as ((n, trial), seed, status, reports), in (n, trial) order;
    a DomainError names a part that does not hold reports over m resources."""
    found = sorted((tuple(int(g) for g in match.groups()), path)
                   for path in parts_dir.iterdir()
                   if (match := re.fullmatch(r"cell_n(\d+)_t(\d+)\.json", path.name)))
    for key, path in found:
        yield _read_record(path, lambda doc: (
            key, _json_field(doc, "seed", (int,)), _json_field(doc, "status", (str,)),
            {name: _read_report(fields, m)
             for name, fields in _json_field(doc, "reports", (dict,)).items()}))


def _read_report(doc, m: int) -> MetricsReport:
    """A part's report: exactly ``MetricsReport``'s fields, each a JSON number
    (NaN included), ``per_constraint`` an object of lists of m numbers."""
    if type(doc) is not dict or doc.keys() != {*_SCALARS, "per_constraint"}:
        raise DomainError("a report does not hold exactly the fields of MetricsReport")
    per = _json_field(doc, "per_constraint", (dict,))
    per = {key: _json_field(per, key, many=True) for key in per}
    if any(len(vec) != m for vec in per.values()):
        raise DomainError(f"a report's per-constraint vectors must have {m} entries")
    return MetricsReport(**{name: _json_field(doc, name) for name in _SCALARS},
                         per_constraint=per)


def run_experiment(plan: ExperimentPlan) -> dict:
    """Execute the plan and write metrics.csv, aggregate.json, scaling.json.

    Returns the aggregate document.  Rerunning the same plan reproduces
    identical file bytes.
    """
    out_dir = Path(plan.output_dir)
    parts_dir = out_dir / "parts"
    parts_dir.mkdir(parents=True, exist_ok=True)
    _claim_directory(parts_dir, plan)
    for n in plan.n_grid:
        n = int(n)
        for t, outcome in enumerate(run_trial(plan, n, range(plan.trials))):
            _write_replacing(parts_dir / f"cell_n{n}_t{t}.json",
                             lambda fh: fh.write(_part_text(*outcome).encode()))

    # All three files are built from every part present, so that processes
    # running disjoint grids into the same directory union cleanly instead
    # of clobbering each other.
    m = plan.generator.m
    experiment = plan.generator.experiment
    by_variant_n: dict = {v.variant: {} for v in plan.variants}
    failed, trials, lines = [], {}, [csv_header(m)]
    for (n, t), seed, status, reports in _read_parts(parts_dir, m):
        lines += [csv_row(experiment, v.variant, n, t, seed, reports[v.variant], m,
                         status=status) for v in plan.variants]
        if status != "ok":
            failed.append({"n": n, "trial": t, "seed": seed, "status": status})
        trials[n] = trials.get(n, 0) + 1
        for name, report in reports.items():
            by_variant_n[name].setdefault(n, []).append(report)
    _write_replacing(out_dir / "metrics.csv", lambda fh: fh.write("".join(lines).encode()))

    agg_doc = {
        "experiment": experiment,
        "n_grid": sorted(trials),
        "trials": max(trials.values(), default=0),
        "master_seed": plan.master_seed,
        "failed_trials": failed,
        "variants": {
            vname: {str(n): aggregate(reports) for n, reports in by_n.items()}
            for vname, by_n in by_variant_n.items()
        },
    }
    for name, doc in ("aggregate.json", agg_doc), ("scaling.json", _scaling_summary(by_variant_n)):
        text = json.dumps(doc, indent=2, sort_keys=True)
        _write_replacing(out_dir / name, lambda fh: fh.write(text.encode()))
    return agg_doc
