"""Correctness checks computed apart from the program.

Everything the checks compare against is rebuilt here from the raw
coefficients with numpy and scipy: the safety coefficients psi
(``norm.ppf`` and a root of the Gaussian mean excess), the linear
columns a_tilde, the dual function, the linear relaxation's optimum
(HiGHS), the online decision rule and price path of each variant, and
the risk metrics (``scipy.stats.norm``).  The program is used only to
regenerate inputs and to rerun the traces being checked.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import brentq, linprog
from scipy.stats import norm

#: Float tolerance for a recomputed value against the program's value.
REL_TOL = 1e-8
ABS_TOL = 1e-10
#: Tolerance on reduced values when replaying decisions, so that an
#: exact tie broken another way still passes.
MARGIN_TOL = 1e-9
#: How far a certificate may lie above the HiGHS optimum of the linear
#: relaxation, relative to it.  The certificates measured on the
#: benchmark's inputs lie 5e-8 to 1e-6 above it.
CERT_GAP_TOL = 1e-5
#: How far a certificate may lie below the HiGHS optimum, relative to it:
#: the solver's own feasibility tolerance, not slack for the program.
CERT_BELOW_TOL = 1e-8

RANGES = {
    # (c, a_bar, k_diag) lower and upper limits of each input model.
    "uniform": ((0.0, 1.0), (0.0, 4.0), (0.0, 1.0)),
    "chi_square": ((0.0, math.inf), (0.0, math.inf), (0.0, math.inf)),
}


def close(a: float, b: float, rel: float = REL_TOL, abs_: float = ABS_TOL) -> bool:
    """Equal up to tolerance; two NaNs are equal."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def mean_excess(z):
    """E[Z - z | Z > z] for a standard normal Z, via log densities."""
    return np.exp(norm.logpdf(z) - norm.logsf(z)) - z


def psi(eta, gamma_tilde) -> np.ndarray:
    """Safety coefficients: the larger of norm.ppf(eta) and the root z
    of mean_excess(z) = gamma_tilde, per resource."""
    m = len(eta) if eta is not None else len(gamma_tilde)
    out = np.full(m, -math.inf)
    for j in range(m):
        if eta is not None:
            out[j] = max(out[j], norm.ppf(eta[j]))
        if gamma_tilde is not None:
            root = brentq(lambda z: mean_excess(z) - gamma_tilde[j], -40.0, 30.0,
                          xtol=1e-15, rtol=4 * np.finfo(float).eps)
            out[j] = max(out[j], root)
    return out


def a_tilde(a_bar: np.ndarray, k_diag: np.ndarray, psi_: np.ndarray) -> np.ndarray:
    """Linear columns a_bar + (psi / sqrt(n)) * sqrt(k_diag), shape (n, m, k)."""
    return a_bar + (psi_ / math.sqrt(a_bar.shape[0]))[None, :, None] * np.sqrt(k_diag)


def dual_function(p: np.ndarray, c: np.ndarray, at: np.ndarray, b: np.ndarray) -> float:
    """p.b + sum_t max(0, max_l (c_t - p.a_tilde_t)_l)."""
    reduced = c - np.einsum("j,tjl->tl", p, at)
    return float(p @ b + np.maximum(reduced.max(axis=1), 0.0).sum())


def lp_optimum(c: np.ndarray, at: np.ndarray, b: np.ndarray) -> float:
    """Optimum of the linear relaxation, solved by HiGHS:
    max sum c.x  s.t.  sum_t a_tilde_t x_t <= b,  sum_l x_tl <= 1,  x >= 0."""
    n, m, k = at.shape
    resources = sparse.csr_matrix(at.transpose(1, 0, 2).reshape(m, n * k))
    one_scheme = sparse.kron(sparse.eye(n), np.ones((1, k)))
    res = linprog(-c.ravel(), A_ub=sparse.vstack([resources, one_scheme]).tocsr(),
                  b_ub=np.concatenate([b, np.ones(n)]), bounds=(0, None),
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on the reference LP: {res.message}")
    return -float(res.fun)


# ---------------------------------------------------------------------------
# Replay of an online run: rebuild the prices from the earlier decisions and
# check each decision against the variant's rule.
# ---------------------------------------------------------------------------

def replay(variant: str, c, a_bar, k_diag, d, psi_, decisions):
    """Replay ``decisions`` under the rule of ``variant``.

    Returns (problems, result) where result holds the recomputed
    objective, mean consumption, variance, and per step the best reduced
    value and the prices after the step.
    """
    n, m, _ = a_bar.shape
    at = a_tilde(a_bar, k_diag, psi_)
    step = 1.0 / math.sqrt(n)
    p = np.zeros(m)
    mean = np.zeros(m)
    var = np.zeros(m)
    objective = 0.0
    best_values = np.empty(n)
    prices = np.empty((n, m))
    problems: list[str] = []
    if len(decisions) != n:
        return [f"{variant}: {len(decisions)} decisions for {n} requests"], None
    for t, x in enumerate(decisions):
        if variant == "vanilla":
            cols = at[t]
            target = d
        else:
            cols = a_bar[t] + psi_[:, None] * (np.sqrt(var[:, None] + k_diag[t])
                                               - np.sqrt(var)[:, None])
            if variant == "marginal-dynamic":
                used = mean + psi_ * np.sqrt(var)
                target = np.maximum((n * d - used) / (n - t), 0.0)
            else:
                target = d
        values = c[t] - p @ cols
        best = values.max()
        best_values[t] = best
        if x is None:
            if best > MARGIN_TOL and len(problems) < 5:
                problems.append(f"{variant} t={t}: skipped with margin {best!r}")
            cons = np.zeros(m)
        else:
            if not (0 <= x < len(values)) or values[x] < best - MARGIN_TOL \
                    or values[x] <= -MARGIN_TOL:
                if len(problems) < 5:
                    problems.append(f"{variant} t={t}: scheme {x} is not a positive "
                                    f"argmax of {values.tolist()}")
                if not 0 <= x < len(values):
                    return problems, None
            cons = cols[:, x]
            objective += c[t, x]
            mean = mean + a_bar[t, :, x]
            var = var + k_diag[t, :, x]
        p = np.maximum(p + step * (cons - target), 0.0)
        prices[t] = p
    return problems, {"objective": objective, "mean": mean, "var": var,
                      "best_values": best_values, "prices": prices}


def risk_metrics(mean, var, b, eta, gamma_tilde, psi_) -> dict:
    """The report's risk columns, from the Gaussian model of the totals."""
    sigma = np.sqrt(var)
    m = len(b)
    out = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (b - mean) / sigma
    if eta is not None:
        held = np.where(sigma > 0, norm.cdf(z), (mean <= b).astype(float))
        per = np.maximum(np.asarray(eta) - held, 0.0)
        out["probability_deviation"] = float(per.mean())
        out.update({f"prob_dev_{j + 1}": float(per[j]) for j in range(m)})
    if gamma_tilde is not None:
        gt = np.asarray(gamma_tilde)
        vt = np.where(sigma > 0, mean_excess(np.where(sigma > 0, z, 0.0)) - gt, -gt)
        vr = vt * sigma
        out["normalized_ce_violation"] = float(np.linalg.norm(np.maximum(vt, 0.0)))
        out["ce_violation"] = float(np.linalg.norm(np.maximum(vr, 0.0)))
        out.update({f"norm_ce_{j + 1}": float(vt[j]) for j in range(m)})
        out.update({f"raw_ce_{j + 1}": float(vr[j]) for j in range(m)})
    over = np.maximum(mean + psi_ * sigma - b, 0.0)
    out["soc_violation"] = float(np.linalg.norm(over))
    return out


# ---------------------------------------------------------------------------
# Checks on the program's outputs.
# ---------------------------------------------------------------------------

def read_metrics_csv(path) -> list[dict]:
    """Rows of a metrics.csv, skipping its header comment."""
    with Path(path).open() as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def check_row(row: dict, expected: dict, label: str) -> list[str]:
    """Each expected column of a metrics.csv row, up to tolerance."""
    problems = []
    for key, value in expected.items():
        got = float(row[key])
        if not close(got, value):
            problems.append(f"{label}: {key} is {got!r}, recomputed {value!r}")
    return problems


def expected_row(result: dict, baseline_value: float, b, eta, gamma_tilde, psi_) -> dict:
    """Every numeric column of a report row, recomputed from a replay."""
    objective = result["objective"]
    expected = {"objective": objective, "baseline_value": baseline_value,
                "optimality_gap": baseline_value - objective,
                "competitive_ratio": objective / baseline_value * 100.0}
    expected.update(risk_metrics(result["mean"], result["var"], b, eta, gamma_tilde, psi_))
    return expected


def check_trace_totals(result: dict, objective, mean, var, label: str) -> list[str]:
    """A trace's objective and accumulators against the replayed ones."""
    problems = []
    if not close(result["objective"], objective):
        problems.append(f"{label}: objective {objective!r}, replayed {result['objective']!r}")
    for name, got, want in (("mean consumption", mean, result["mean"]),
                            ("variance", var, result["var"])):
        if not all(close(float(g), float(w)) for g, w in zip(got, want)):
            problems.append(f"{label}: {name} {list(got)}, replayed {want.tolist()}")
    return problems


def check_certificate(value: float, p_star, c, at, b) -> list[str]:
    """A certificate's value is the dual function at its own prices."""
    p_star = np.asarray(p_star, dtype=float)
    if p_star.shape != (at.shape[1],) or np.any(p_star < 0):
        return [f"certificate prices {p_star.tolist()} are not a nonnegative m-vector"]
    f = dual_function(p_star, c, at, b)
    if not close(value, f, rel=1e-9, abs_=0.0):
        return [f"certificate value {value!r} is not the dual function {f!r} at p_star"]
    return []


def check_against_lp(baseline_value: float, lp: float, label: str) -> list[str]:
    """A certificate is an upper bound on the LP optimum, tight to CERT_GAP_TOL."""
    if not math.isfinite(baseline_value):
        return [f"{label}: baseline {baseline_value!r} is not a number"]
    if baseline_value < lp - CERT_BELOW_TOL * abs(lp):
        return [f"{label}: baseline {baseline_value!r} is below the LP optimum {lp!r}"]
    if baseline_value > lp + CERT_GAP_TOL * abs(lp):
        return [f"{label}: baseline {baseline_value!r} exceeds the LP optimum {lp!r} "
                f"by more than {CERT_GAP_TOL:g} of it"]
    return []


def check_ranges(experiment: str, c, a_bar, k_diag) -> list[str]:
    """Generated coefficients lie in their input model's ranges."""
    problems = []
    for name, arr, (lo, hi) in zip(("c", "a_bar", "k_diag"), (c, a_bar, k_diag),
                                   RANGES[experiment]):
        if not (np.all(np.isfinite(arr)) and arr.min() >= lo and arr.max() < hi):
            problems.append(f"{experiment} {name} leaves [{lo}, {hi}): "
                            f"min {arr.min()!r}, max {arr.max()!r}")
    return problems


def check_request_rows(request_fields, config, c, a_bar, k_diag, ts) -> list[str]:
    """request_fields(config, t) equals row t of the instance."""
    problems = []
    for t in ts:
        rc, ra, rk = request_fields(config, int(t))
        if not (np.array_equal(rc, c[t]) and np.array_equal(ra, a_bar[t])
                and np.array_equal(rk, k_diag[t])):
            problems.append(f"request_fields(config, {t}) differs from row {t}")
    return problems


def check_identical(first: Path, other: Path, names) -> list[str]:
    """Two output directories hold byte-identical copies of ``names``."""
    return [f"{other / name} differs from {first / name}" for name in names
            if (first / name).read_bytes() != (other / name).read_bytes()]
