"""Offline dual baseline for the linearized problem.

By strong duality the relaxation's optimum is the minimum over p >= 0 of
f(p) = p . b + sum_t max(0, max_l (c_t - p . A_t)[l]), which one pass
over the requests evaluates exactly.  ``minimize_dual`` minimizes an
entropic smoothing of f (Nesterov, Math. Program. 103, 2005) by damped
Newton steps and certifies each stage's prices by the exact f there, an
upper bound by weak duality, and a lower bound from a fractional
solution recovered there.  Every step is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .model import _frozen
from .transform import LinearizedInstance


@dataclass(frozen=True)
class DualCertificate:
    """Best dual point, its exact value, its gap to a primal lower bound."""

    value: float
    p_star: np.ndarray
    iterations: int
    gap: float

    def __post_init__(self):
        object.__setattr__(self, "p_star", _frozen(self.p_star))

    def to_dict(self) -> dict:
        return {"value": self.value, "p_star": self.p_star.tolist(),
                "iterations": self.iterations, "gap": self.gap}

    @classmethod
    def from_dict(cls, doc: dict) -> "DualCertificate":
        return cls(value=float(doc["value"]), p_star=doc["p_star"],
                   iterations=int(doc["iterations"]), gap=float(doc["gap"]))


#: Requests per block of a smoothed pass: its temporaries are (m, CHUNK k).
CHUNK = 2048


def _reduced_values(prices: np.ndarray, lin: LinearizedInstance) -> np.ndarray:
    """c_t - p . A_t for every request and scheme, (n, k), as one product
    with the (m, n k) view of the columns."""
    reduced = (prices @ lin.columns.reshape(lin.base.m, -1)).reshape(lin.base.c.shape)
    return np.subtract(lin.base.c, reduced, out=reduced)


def dual_value_and_subgradient(prices: np.ndarray,
                               lin: LinearizedInstance) -> tuple[float, np.ndarray]:
    """Exact dual value and one subgradient at ``prices``.

    The subgradient is b - sum_t A_t x_t(p) where x_t(p) selects any
    maximizer with positive reduced value (and nothing otherwise).
    """
    prices = np.asarray(prices, dtype=float)
    if np.any(prices < 0):
        raise DomainError("prices must be nonnegative")
    b = lin.base.budget
    reduced = _reduced_values(prices, lin)
    choice = reduced.argmax(axis=1)
    best = np.take_along_axis(reduced, choice[:, None], axis=1)[:, 0]
    t = np.flatnonzero(best > 0.0)
    return float(prices @ b + best[t].sum()), b - lin.columns[:, t, choice[t]].sum(axis=1)


def dual_value(prices: np.ndarray, lin: LinearizedInstance) -> float:
    """Exact dual function value at ``prices`` (one pass over requests)."""
    return dual_value_and_subgradient(prices, lin)[0]


def _smoothed(prices: np.ndarray, lin: LinearizedInstance, mu: float):
    """f_mu, its gradient and its Hessian at ``prices``, in one pass whose
    temporaries are (n, k) or (m, CHUNK k).

    With pi_t the softmax weights of request t, the gradient is b less
    sum_t A_t pi_t and the Hessian is sum_t (A_t diag(pi_t) A_t' -
    (A_t pi_t)(A_t pi_t)') / mu, each a product over the flat columns."""
    b, m, k = lin.base.budget, lin.base.m, lin.base.k
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
            (hessian + hessian.T) / 2)  # weighted @ part.T rounds unevenly


def _certify(prices: np.ndarray, lin: LinearizedInstance) -> tuple[float, float]:
    """Exact dual value at ``prices`` and a primal lower bound (two passes).

    The bound is the revenue of a fractional solution that fits every
    row: each request takes its best option at ``prices`` (option k
    rejects); the (request, option) pairs losing least reduced value,
    one per positive price plus ties, shift fractions of their requests
    to make the priced rows tight (least squares over [0, 1]); a row
    that still overflows scales the solution down."""
    value, _ = dual_value_and_subgradient(prices, lin)
    n, _, k = lin.a_tilde.shape
    c, b = lin.base.c, lin.base.budget
    reduced = np.concatenate([_reduced_values(prices, lin), np.zeros((n, 1))], axis=1)
    rows = np.arange(n)
    first = reduced.argmax(axis=1)
    loss = reduced[rows, first][:, None] - reduced
    loss[rows, first] = np.inf

    def columns(t, option):  # consumption (len(t), m) and revenue of the options
        take, scheme = option < k, np.minimum(option, k - 1)
        return lin.a_tilde[t, :, scheme] * take[:, None], c[t, scheme] * take

    use, gain = columns(rows, first)
    used, revenue = use.sum(axis=0), float(gain.sum())
    priced = prices > 0
    s = min(int(priced.sum()), n * k)
    if s:
        cut = np.partition(loss, s - 1, axis=None)[s - 1]
        t, option = np.divmod(np.flatnonzero(loss <= cut), k + 1)
        alt_use, alt_gain = columns(t, option)
        shift = alt_use - use[t]
        alpha = np.linalg.lstsq(shift[:, priced].T, (b - used)[priced], rcond=None)[0]
        alpha = np.clip(alpha, 0.0, 1.0)
        alpha /= np.maximum(np.bincount(t, alpha, n)[t], 1.0)  # at most all of a request
        used = used + alpha @ shift
        revenue += float(alpha @ (alt_gain - gain[t]))
    return value, max(float((b / np.maximum(used, b)).min()) * revenue, 0.0)


def minimize_dual(lin: LinearizedInstance, tol: float = 1e-6, *,
                  iteration_cap: int = 20000) -> DualCertificate:
    """Minimize the dual function over nonnegative prices.

    ``value`` is exactly f(``p_star``); ``gap`` <= tol * max(|value|, 1)
    is ``value`` less the revenue of a feasible fractional solution (0 if
    rounding puts that above); ``iterations`` counts every pass over the
    requests.  Raises :class:`ConvergenceError`, with the best certificate
    so far, if ``iteration_cap`` passes or mu = 1e-15 mu0 leave a gap.
    """
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    inst = lin.base
    p = best_p = np.zeros(inst.m)
    passes, best_value, lower = 0, np.inf, -np.inf
    # start at a hundredth of the mean request's best revenue, f(0) / n
    mu = mu0 = 0.01 * np.maximum(inst.c.max(axis=1), 0.0).mean()
    while True:
        value, low = _certify(p, lin)
        passes += 2
        lower = max(lower, low)
        if value < best_value:
            best_value, best_p = value, p
        cert = DualCertificate(best_value, best_p, passes, max(best_value - lower, 0.0))
        if cert.gap <= tol * max(abs(best_value), 1.0):
            return cert
        if passes >= iteration_cap or mu < 1e-15 * mu0:
            raise ConvergenceError(f"dual gap {cert.gap:.3g} above tol {tol:g} after {passes} "
                                   f"passes over the data, at mu = {mu:.3g}", certificate=cert)

        f, g, h = _smoothed(p, lin, mu)
        passes += 1
        damping = np.abs(g).max() * inst.d.min() / inst.c.max()  # step <= box radius
        # Newton steps to a smoothed KKT residual of 1e-6 for every tol, so
        for _ in range(40):  # all tols share one path and a looser one stops no later
            kkt = np.where(p > 0, np.abs(g), np.maximum(-g, 0.0)) / inst.budget
            if kkt.max() <= 1e-6 or passes >= iteration_cap:
                break
            free = (p > 0) | (g < 0)
            step = np.zeros(inst.m)
            step[free] = -np.linalg.solve(
                h[np.ix_(free, free)] + damping * np.eye(free.sum()), g[free])
            # trust the quadratic model for a change of about 20 mu in the
            # priced consumption of the mean request
            q = np.maximum(p + step * min(1.0, 20.0 * mu / (np.abs(step) @ inst.d)), 0.0)
            if np.array_equal(q, p):
                break
            fq, gq, hq = _smoothed(q, lin, mu)
            passes += 1
            damping *= 0.25 if fq < f else 4.0
            if fq < f:
                p, f, g, h = q, fq, gq, hq
        mu *= 0.1
