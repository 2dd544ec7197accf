"""Offline dual baseline for the linearized problem.

By strong duality the relaxation's optimum is the minimum over p >= 0 of
f(p) = p . b + sum_t max(0, max_l (c_t - p . A_t)[l]), which one pass
over the requests evaluates exactly.  ``minimize_dual`` minimizes an
entropic smoothing of f (Nesterov, Math. Program. 103, 2005) by damped
Newton steps to a smoothed KKT residual of min(1e-6, tol), one smoothed
pass each, and evaluates f exactly at each stage's prices in one pass:
an upper bound by weak duality.  Every pass also carries a fractional
solution: its softmax weights or its greedy selection.  The best
revenue among them, scaled down to fit every row, is the lower bound.
Every step is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .model import _frozen, _json_field, _refuse, blocks
from .transform import LinearizedInstance, linear_columns


@dataclass(frozen=True)
class DualCertificate:
    """Best dual point, its exact value, its gap to a primal lower bound;
    one DomainError names every field out of its domain."""

    value: float
    p_star: np.ndarray
    iterations: int
    gap: float

    def __post_init__(self):
        object.__setattr__(self, "p_star", _frozen(self.p_star))
        _refuse("certificate", (
            ("value must be finite", np.isfinite(self.value)),
            ("prices must be finite and nonnegative",
             np.all(np.isfinite(self.p_star) & (self.p_star >= 0))),
            ("iterations must be nonnegative", self.iterations >= 0),
            ("gap must be finite and nonnegative", np.isfinite(self.gap) and self.gap >= 0),
        ))

    def to_dict(self) -> dict:
        return {"value": self.value, "p_star": self.p_star.tolist(),
                "iterations": self.iterations, "gap": self.gap}

    @classmethod
    def from_dict(cls, doc: dict) -> "DualCertificate":
        return cls(value=float(_json_field(doc, "value")),
                   p_star=_json_field(doc, "p_star", many=True),
                   iterations=_json_field(doc, "iterations", (int,)),
                   gap=float(_json_field(doc, "gap")))


#: Requests per block of a smoothed pass: its temporaries are (m, CHUNK k).
CHUNK = 2048


def _reduced_values(prices: np.ndarray, lin: LinearizedInstance) -> np.ndarray:
    """c_t - p . A_t for every request and scheme, (n, k), as one product
    with the (m, n k) view of the columns."""
    reduced = (prices @ lin.columns.reshape(lin.m, -1)).reshape(lin.c.shape)
    return np.subtract(lin.c, reduced, out=reduced)


def dual_value_and_subgradient(prices: np.ndarray,
                               lin: LinearizedInstance) -> tuple[float, np.ndarray]:
    """Exact dual value and one subgradient at ``prices``.

    The subgradient is b - sum_t A_t x_t(p) where x_t(p) selects any
    maximizer with positive reduced value (and nothing otherwise).
    """
    prices = np.asarray(prices, dtype=float)
    if np.any(prices < 0):
        raise DomainError("prices must be nonnegative")
    b = lin.budget
    reduced = _reduced_values(prices, lin)
    choice = reduced.argmax(axis=1)
    best = np.take_along_axis(reduced, choice[:, None], axis=1)[:, 0]
    t = np.flatnonzero(best > 0.0)
    return float(prices @ b + best[t].sum()), b - lin.columns[:, t, choice[t]].sum(axis=1)


def dual_value(rows, psi: np.ndarray, prices: np.ndarray) -> float:
    """:func:`dual_value_and_subgradient`'s value at ``prices`` of the row source
    ``rows`` (see :func:`~socalloc.model.blocks`) linearized by ``psi``, a block at a time."""
    return prices @ (rows.n * rows.d) + sum(
        np.maximum((c - prices @ linear_columns(a_bar, k_diag, psi, rows.n)).max(axis=1), 0.0).sum()
        for _, c, a_bar, k_diag in blocks(rows))


def _fitted(revenue: float, used: np.ndarray, b: np.ndarray) -> float:
    """Revenue of a fractional solution that uses ``used`` of each row,
    scaled down to fit every row; that of x = 0 if it is negative."""
    return max(float((b / np.maximum(used, b)).min()) * revenue, 0.0)


def _smoothed(prices: np.ndarray, lin: LinearizedInstance, mu: float):
    """f_mu, its gradient, its Hessian and a primal lower bound at
    ``prices``, in one pass whose temporaries are (n, k) or (m, CHUNK k).

    With pi_t the softmax weights of request t, the gradient is b less
    sum_t A_t pi_t and the Hessian is sum_t (A_t diag(pi_t) A_t' -
    (A_t pi_t)(A_t pi_t)') / mu, each a product over the flat columns.
    The weights are a fractional solution (they sum to at most 1 per
    request), and the bound is its revenue pi . c, scaled to fit."""
    b, m, k = lin.budget, lin.m, lin.k
    # each (n, k) or (m, CHUNK k) array is allocated once and then worked
    # in place: numpy reduces a short contiguous axis slowly, and exp is
    # slow where it underflows
    pi = _reduced_values(prices, lin)
    top = np.maximum(np.ascontiguousarray(pi.T).max(axis=0), 0.0)
    pi -= top[:, None]
    pi /= mu
    np.exp(np.maximum(pi, -700.0, out=pi), out=pi)
    z = np.exp(np.maximum(-top / mu, -700.0)) + pi @ np.ones(k)
    pi /= z[:, None]
    cols, weights, width = lin.columns.reshape(m, -1), pi.reshape(-1), CHUNK * k
    used, second, mean_outer = np.zeros(m), np.zeros((m, m)), np.zeros((m, m))
    buffer = np.empty((m, min(width, cols.shape[1])))
    for start in range(0, cols.shape[1], width):
        part = cols[:, start:start + width]
        weighted = np.multiply(part, weights[start:start + width],
                               out=buffer[:, :part.shape[1]])
        mean = weighted.reshape(m, -1, k) @ np.ones(k)  # A_t pi_t, (m, chunk)
        used += mean.sum(axis=1)
        second += weighted @ part.T
        mean_outer += mean @ mean.T
    hessian = (second - mean_outer) / mu
    return (float(prices @ b + (top + mu * np.log(z)).sum()), b - used,
            (hessian + hessian.T) / 2,  # weighted @ part.T rounds unevenly
            _fitted(float(weights @ lin.c.reshape(-1)), used, b))


def minimize_dual(lin: LinearizedInstance, tol: float = 1e-6, *,
                  iteration_cap: int = 20000) -> DualCertificate:
    """Minimize the dual function over nonnegative prices.

    ``value`` is exactly f(``p_star``); ``gap`` <= tol * max(|value|, 1)
    is ``value`` less the revenue of a feasible fractional solution (0 if
    rounding puts that above), the best of those its passes carry;
    ``iterations`` counts every pass over the requests: one exact and
    one smoothed pass per stage, and one smoothed pass per Newton step;
    the steps stop at a smoothed KKT residual of min(1e-6, tol).  Raises
    :class:`ConvergenceError`, with the best certificate so far, if
    ``iteration_cap`` passes or mu = 1e-15 mu0 leave a gap.
    """
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    b = lin.budget
    p = best_p = np.zeros(lin.m)
    passes, best_value, lower = 0, np.inf, -np.inf
    # start at a hundredth of the mean request's best revenue, f(0) / n
    mu = mu0 = 0.01 * np.maximum(lin.c.max(axis=1), 0.0).mean()
    while True:
        value, s = dual_value_and_subgradient(p, lin)
        passes += 1
        # the greedy selection at p uses b - s and earns value - p . s
        lower = max(lower, _fitted(value - p @ s, b - s, b))
        if value < best_value:
            best_value, best_p = value, p
        cert = DualCertificate(best_value, best_p, passes, max(best_value - lower, 0.0))
        if cert.gap <= tol * max(abs(best_value), 1.0):
            return cert
        if passes >= iteration_cap or mu < 1e-15 * mu0:
            raise ConvergenceError(f"dual gap {cert.gap:.3g} above tol {tol:g} after {passes} "
                                   f"passes over the data, at mu = {mu:.3g}", certificate=cert)

        f, g, h, low = _smoothed(p, lin, mu)
        passes += 1
        lower = max(lower, low)
        damping = np.abs(g).max() * lin.d.min() / lin.c.max()  # step <= box radius
        # Newton steps to a smoothed KKT residual of min(1e-6, tol), so all
        for _ in range(40):  # tols >= 1e-6 share one path and a looser one stops no later
            kkt = np.where(p > 0, np.abs(g), np.maximum(-g, 0.0)) / b
            if kkt.max() <= min(1e-6, tol) or passes >= iteration_cap:
                break
            free = (p > 0) | (g < 0)
            step = np.zeros(lin.m)
            step[free] = -np.linalg.solve(
                h[np.ix_(free, free)] + damping * np.eye(free.sum()), g[free])
            # trust the quadratic model for a change of about 20 mu in the
            # priced consumption of the mean request
            q = np.maximum(p + step * min(1.0, 20.0 * mu / (np.abs(step) @ lin.d)), 0.0)
            if np.array_equal(q, p):
                break
            fq, gq, hq, low = _smoothed(q, lin, mu)
            passes += 1
            lower = max(lower, low)  # any weights are a fractional solution
            damping *= 0.25 if fq < f else 4.0
            if fq < f:
                p, f, g, h = q, fq, gq, hq
        mu *= 0.1
