"""Trial metrics: risk deviations, gap/ratio against a baseline, scaling fits.

Under the Gaussian consumption model the portfolio total for resource j
is normal with mean ``mean_consumption[j]`` and variance
``variance_accum[j]``, so the achieved holding probability and the
conditional overshoot are analytic: with z = (b - mean)/sigma they are
CDF(z) and mean_excess(z).  Evaluating them through the same scalar
functions the transform uses keeps metric and constraint consistent: a
trace whose cone-form usage is within budget can never show a positive
deviation.

Degenerate convention: a resource with zero accumulated variance holds
with probability 1 when its mean usage fits the budget and 0 otherwise,
and never violates a conditional-expectation cap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .baseline import DualCertificate
from .errors import ConfigError, DomainError
from .gaussian import mean_excess, std_normal_cdf
from .model import Instance, SolutionTrace, soc_lhs


@dataclass(frozen=True)
class MetricsReport:
    """All per-trial metrics; absent risk branches yield NaN fields."""

    objective: float
    baseline_value: float
    probability_deviation: float
    optimality_gap: float
    competitive_ratio: float
    normalized_ce_violation: float
    ce_violation: float
    soc_violation: float
    per_constraint: dict = field(default_factory=dict)


def probability_deviation(trace: SolutionTrace,
                          instance: Instance) -> tuple[float, np.ndarray]:
    """Mean positive shortfall of achieved holding probability below eta.

    Returns the average over resources and the per-resource shortfalls.
    """
    eta = instance.risk.eta
    if eta is None:
        raise ConfigError("instance risk has no confidence levels")
    b = instance.budget
    sigma = np.sqrt(trace.variance_accum)
    per = np.zeros(instance.m)
    for j in range(instance.m):
        if sigma[j] == 0.0:
            achieved = 1.0 if trace.mean_consumption[j] <= b[j] else 0.0
        else:
            achieved = std_normal_cdf((b[j] - trace.mean_consumption[j]) / sigma[j])
        per[j] = max(float(eta[j]) - achieved, 0.0)
    return float(per.mean()), per


def optimality_gap_and_ratio(trace: SolutionTrace,
                             baseline: DualCertificate) -> tuple[float, float]:
    """Baseline value minus revenue, and revenue over baseline in percent.

    The baseline is the (conservative) linear-relaxation optimum, so the
    gap upper-bounds and the ratio lower-bounds their exact-optimum
    counterparts.  A nonpositive baseline with positive revenue makes
    the ratio meaningless; it is reported as NaN.
    """
    gap = baseline.value - trace.objective
    if baseline.value <= 0.0:
        ratio = 100.0 if trace.objective == 0.0 else math.nan
    else:
        ratio = trace.objective / baseline.value * 100.0
    return float(gap), float(ratio)


def ce_violation(trace: SolutionTrace, instance: Instance
                 ) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Conditional-expectation overshoot, normalized and raw.

    Per resource, the normalized overshoot is mean_excess(z) -
    gamma_tilde with z = (b - mean)/sigma, and the raw overshoot is that
    times sigma.  Returns the two positive-part l2 norms followed by the
    per-resource signed values (normalized, raw).
    """
    gt = instance.risk.gamma_tilde
    if gt is None:
        raise ConfigError("instance risk has no conditional-expectation caps")
    b = instance.budget
    sigma = np.sqrt(trace.variance_accum)
    vtilde = np.zeros(instance.m)
    for j in range(instance.m):
        if sigma[j] == 0.0:
            vtilde[j] = -float(gt[j])
        else:
            z = (b[j] - trace.mean_consumption[j]) / sigma[j]
            vtilde[j] = mean_excess(z) - float(gt[j])
    vraw = vtilde * sigma
    norm_l2 = float(np.linalg.norm(np.maximum(vtilde, 0.0)))
    raw_l2 = float(np.linalg.norm(np.maximum(vraw, 0.0)))
    return norm_l2, raw_l2, vtilde, vraw


def soc_violation(trace: SolutionTrace,
                  instance: Instance) -> tuple[float, np.ndarray]:
    """l2 norm of the positive part of cone-form usage minus budget."""
    over = np.maximum(soc_lhs(trace, instance) - instance.budget, 0.0)
    return float(np.linalg.norm(over)), over


def scaling_slope(points) -> float:
    """Least-squares slope of log(value) against log(n).

    Points with nonpositive values are dropped with a warning; fewer
    than three surviving points is an error.
    """
    points = list(points)
    kept = [(n, v) for n, v in points if v > 0]
    dropped = len(points) - len(kept)
    if dropped:
        warnings.warn(f"scaling_slope dropped {dropped} nonpositive point(s)",
                      RuntimeWarning, stacklevel=2)
    if len(kept) < 3:
        raise DomainError(f"need at least 3 positive points, have {len(kept)}")
    x = np.log([n for n, _ in kept])
    y = np.log([v for _, v in kept])
    return float(np.polyfit(x, y, 1)[0])


def build_report(instance: Instance, trace: SolutionTrace,
                 baseline: DualCertificate | None = None) -> MetricsReport:
    """Assemble every metric the instance's risk spec supports."""
    per: dict = {}
    if instance.risk.eta is not None:
        pd, per_pd = probability_deviation(trace, instance)
        per["probability_deviation"] = per_pd
    else:
        pd = math.nan
    if instance.risk.gamma_tilde is not None:
        norm_l2, raw_l2, vtilde, vraw = ce_violation(trace, instance)
        per["normalized_ce"] = vtilde
        per["raw_ce"] = vraw
    else:
        norm_l2 = raw_l2 = math.nan
    if baseline is not None:
        gap, ratio = optimality_gap_and_ratio(trace, baseline)
        bval = baseline.value
    else:
        gap = ratio = bval = math.nan
    soc_l2, soc_per = soc_violation(trace, instance)
    per["soc_violation"] = soc_per
    return MetricsReport(
        objective=trace.objective,
        baseline_value=bval,
        probability_deviation=pd,
        optimality_gap=gap,
        competitive_ratio=ratio,
        normalized_ce_violation=norm_l2,
        ce_violation=raw_l2,
        soc_violation=soc_l2,
        per_constraint=per,
    )


_SCALARS = ("objective", "baseline_value", "probability_deviation",
            "optimality_gap", "competitive_ratio",
            "normalized_ce_violation", "ce_violation", "soc_violation")


def aggregate(trials: list[MetricsReport]) -> dict:
    """Mean and sample standard deviation per metric across trials.

    A single trial reports zero spread.  Per-constraint vectors are
    aggregated componentwise.
    """
    if not trials:
        raise DomainError("aggregate needs at least one trial")

    def _stats(values: list) -> dict:
        values = np.array(values)
        mean = values.mean(axis=0)
        std = values.std(axis=0, ddof=1) if len(values) > 1 else np.zeros_like(mean)
        return {"mean": mean.tolist(), "std": std.tolist()}

    out: dict = {name: _stats([getattr(t, name) for t in trials]) for name in _SCALARS}
    out["per_constraint"] = {name: _stats([t.per_constraint[name] for t in trials])
                             for name in trials[0].per_constraint}
    return out


# ---------------------------------------------------------------------------
# CSV emission.  One row per (experiment, variant, n, trial); the column
# order is frozen and recorded in the header comment so downstream plotting
# can rely on it.
# ---------------------------------------------------------------------------

CSV_VERSION = "socalloc-metrics-v1"


def csv_header(m: int) -> str:
    cols = ["experiment", "variant", "n", "trial", "seed", "status"]
    cols += list(_SCALARS) + [f"{key}_{j}" for key in ("prob_dev", "norm_ce", "raw_ce")
                              for j in range(1, m + 1)]
    return (f"# {CSV_VERSION} columns: " + ",".join(cols) + "\n"
            + ",".join(cols) + "\n")


def csv_row(experiment: str, variant: str, n: int, trial: int, seed: int,
            report: MetricsReport, m: int, status: str = "ok") -> str:
    cells = [experiment, variant, str(n), str(trial), str(seed), status]
    cells += [repr(getattr(report, name)) for name in _SCALARS]
    for key in ("probability_deviation", "normalized_ce", "raw_ce"):
        vec = report.per_constraint.get(key)
        cells += ["nan"] * m if vec is None else [repr(float(v)) for v in vec]
    return ",".join(cells) + "\n"
