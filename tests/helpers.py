"""Shared test oracles, independent of the implementations they check."""

from __future__ import annotations

import json
import math
import sys
import tracemalloc
import zipfile

import numpy as np


def pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def cdf_by_quadrature(z: float, panels: int = 4000) -> float:
    """Standard normal CDF by composite Simpson integration from 0 to z.

    With 4000 panels over |z| <= 8 the truncation error is far below
    1e-12; uses only the density, never erf/erfc.
    """
    if z < 0.0:
        return 1.0 - cdf_by_quadrature(-z, panels)
    zc = min(z, 12.0)  # the tail beyond 12 is ~1e-33, below double resolution here
    h = zc / panels
    total = pdf(0.0) + pdf(zc)
    for i in range(1, panels):
        total += pdf(i * h) * (4.0 if i % 2 else 2.0)
    return 0.5 + total * h / 3.0


def sf_by_quadrature(z: float, panels: int = 4000) -> float:
    return 1.0 - cdf_by_quadrature(z, panels)


def mean_excess_by_formula(z: float) -> float:
    """Direct mean-excess formula on top of the quadrature CDF."""
    return pdf(z) / sf_by_quadrature(z) - z


def bisect_root(fn, lo: float, hi: float, tol: float = 1e-12,
                max_iter: int = 200) -> float:
    """Plain bisection for a sign change of fn on [lo, hi]."""
    flo = fn(lo)
    fhi = fn(hi)
    assert flo * fhi <= 0, f"no sign change on [{lo}, {hi}]"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0 or (hi - lo) < tol:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_instance(rng: np.random.Generator, n: int, m: int = 4, k: int = 5,
                    eta=None, gamma_tilde=None, psi=None):
    """Small random instance with uniform-style coefficients."""
    from socalloc import Instance, RiskSpec
    c = rng.uniform(0, 1, (n, k))
    a_bar = rng.uniform(0, 4, (n, m, k))
    k_diag = rng.uniform(0, 1, (n, m, k)) ** 2
    risk = RiskSpec(eta=eta, gamma_tilde=gamma_tilde, psi=psi)
    return Instance(c, a_bar, k_diag, np.ones(m), risk)


def instance_json_bytes(inst) -> bytes:
    """An instance file's bytes, encoded whole: one json.dumps of a dict
    holding every request as a dict of lists."""
    risk = {name: getattr(inst.risk, name).tolist() for name in ("eta", "gamma_tilde", "psi")
            if getattr(inst.risk, name) is not None}
    return json.dumps({
        "n": inst.n, "m": inst.m, "k": inst.k, "d": inst.d.tolist(), "risk": risk,
        "requests": [{"c": inst.c[t].tolist(), "a_bar": inst.a_bar[t].tolist(),
                      "k_diag": inst.k_diag[t].tolist()} for t in range(inst.n)],
    }).encode()


def random_decisions(rng: np.random.Generator, n: int, k: int,
                     accept_prob: float = 0.7) -> list:
    return [int(rng.integers(k)) if rng.random() < accept_prob else None
            for _ in range(n)]


def trace_by_recomputation(instance, decisions):
    """Brute-force trace reconstruction from scratch (the oracle side)."""
    from socalloc import SolutionTrace
    m = instance.m
    mean = np.zeros(m)
    var = np.zeros(m)
    objective = 0.0
    for t, l in enumerate(decisions):
        if l is None:
            continue
        objective += float(instance.c[t, l])
        mean += instance.a_bar[t, :, l]
        var += instance.k_diag[t, :, l]
    return SolutionTrace(decisions=tuple(decisions), objective=objective,
                         mean_consumption=mean, variance_accum=var)


def priced_margins(prices, revenue, columns) -> list:
    """Revenue minus priced consumption of each scheme, by explicit sums."""
    m, k = np.shape(columns)
    return [float(revenue[l]) - sum(float(prices[j]) * float(columns[j][l])
                                    for j in range(m))
            for l in range(k)]


def projected_step(prices, consumption, target, step: float) -> np.ndarray:
    """One projected price step max(p + step*(cons - target), 0), per entry."""
    return np.array([max(float(p) + step * (float(c) - float(d)), 0.0)
                     for p, c, d in zip(prices, consumption, target)])


def a_tilde(lin) -> np.ndarray:
    """The columns a_tilde_tj of a linearized instance, (n, m, k): a view
    of its resource-major (m, n, k) array."""
    return lin.columns.transpose(1, 0, 2)


def lp_optimum(lin) -> float:
    """Optimum of the linear relaxation max c . x over x_t in [0, 1]^k
    with sum_l x_tl <= 1 and sum_t A_t x_t <= b, by HiGHS (scipy)."""
    from scipy import optimize, sparse
    n, m, k = lin.n, lin.m, lin.k
    rows_res = sparse.csr_matrix(lin.columns.reshape(m, n * k))
    rows_req = sparse.kron(sparse.eye(n), np.ones((1, k)), format="csr")
    res = optimize.linprog(
        -lin.c.ravel(),
        A_ub=sparse.vstack([rows_res, rows_req]),
        b_ub=np.concatenate([lin.budget, np.ones(n)]),
        bounds=(0, 1), method="highs")
    assert res.status == 0, res.message
    return -res.fun


def dual_value(prices, lin) -> float:
    """Exact dual function value at ``prices`` (one pass over requests)."""
    from socalloc import dual_value_and_subgradient
    return dual_value_and_subgradient(prices, lin)[0]


def greedy_primal(lin) -> tuple[list, float]:
    """Feasibility-preserving greedy pass over the linearized problem.

    Takes each request's highest-revenue scheme whenever doing so keeps
    every linear resource row within budget.  Any such selection's
    revenue lower-bounds the relaxation optimum, so it pairs with a dual
    certificate as a weak-duality sandwich.
    """
    a = a_tilde(lin)
    b = lin.budget
    used = np.zeros(lin.m)
    decisions: list = []
    revenue = 0.0
    for t in range(lin.n):
        pick = None
        for l in np.argsort(-lin.c[t]):
            if lin.c[t, l] <= 0:
                break
            if np.all(used + a[t, :, l] <= b):
                pick = int(l)
                break
        if pick is not None:
            used += a[t, :, pick]
            revenue += float(lin.c[t, pick])
        decisions.append(pick)
    return decisions, revenue


def smoothed_by_resource(prices, lin, mu: float):
    """Smoothed dual f_mu, its gradient, its Hessian and the revenue of its
    softmax weights at ``prices``, from per-request einsums over a_tilde
    and one loop over resources."""
    a, b = a_tilde(lin), lin.budget
    reduced = lin.c - np.einsum("j,tjk->tk", prices, a)
    top = np.maximum(reduced.max(axis=1), 0.0)
    pi = np.exp(np.maximum((reduced - top[:, None]) / mu, -700.0))
    z = np.exp(np.maximum(-top / mu, -700.0)) + pi.sum(axis=1)
    pi /= z[:, None]
    mean = np.einsum("tk,tjk->tj", pi, a)
    second = np.empty((len(b), len(b)))
    for i in range(len(b)):
        second[i, i:] = second[i:, i] = np.einsum("tk,tjk->j", pi * a[:, i, :], a[:, i:, :])
    return (float(prices @ b + (top + mu * np.log(z)).sum()), b - mean.sum(axis=0),
            (second - mean.T @ mean) / mu, float((pi * lin.c).sum()))


def traced_peak_mb(fn, *args, warm=None) -> float:
    """The tracemalloc peak, in MiB, of one call ``fn(*args)``.

    tracemalloc finds the line of every allocation, and CPython 3.11
    scans the code's line table for it, unless a profile function has
    given the code a line array.  So ``warm``, if given, is called first
    under a no-op profile function: a small call through the same code,
    after which the traced call runs several times faster.  The peak is
    that of the traced call alone, as without ``warm``.
    """
    if warm is not None:
        sys.setprofile(lambda *_: None)
        try:
            warm()
        finally:
            sys.setprofile(None)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def steps_csv(rows) -> str:
    """A steps.csv as the per-step recorder wrote it: a header, then one
    line per (t, scheme, best margin, prices) tuple, formatted alone."""
    lines = ["t,scheme,value,prices\n"]
    for t, scheme, value, prices in rows:
        price_txt = ";".join(repr(float(p)) for p in prices)
        lines.append(f"{t},{'' if scheme is None else scheme},{float(value)!r},{price_txt}\n")
    return "".join(lines)


def zip_members(path) -> list:
    """(name, bytes) of each member of the zip file ``path``, in order."""
    with zipfile.ZipFile(path) as z:
        return [(info.filename, z.read(info)) for info in z.infolist()]


def forced_run(instance, decisions, variant: str = "marginal", start: float = 100.0):
    """Run ``variant`` so that it takes ``decisions``; returns the trace
    and the consumption its dual steps charged.

    Revenue +-1e6 makes the wanted scheme the only positive margin (all
    negative on a skip).  Prices start at ``start``, high enough that the
    projected step never clips, so the charged total is read off the
    price path: sum_t cons_t = (p_n - p_0) * sqrt(n) + n * d.
    """
    from socalloc import Instance, OnlineSolver, VariantConfig
    n, _, k = instance.a_bar.shape
    c = np.full((n, k), -1e6)
    for t, l in enumerate(decisions):
        if l is not None:
            c[t, l] = 1e6
    forced = Instance(c, instance.a_bar, instance.k_diag, instance.d, instance.risk)
    solver = OnlineSolver(forced, VariantConfig(variant))
    solver.lanes.prices[0] = start
    trace = solver.run()
    return trace, (solver.lanes.prices[0] - start) * math.sqrt(n) + n * instance.d


def step(solver):
    """One step of a one-lane solver; returns its decision."""
    lanes = solver.lanes
    lanes.advance(1)
    pick = int(lanes.picks[0, lanes.t - 1])
    return None if pick == 0 else pick - 1


def reference_stream(seed: int, t: int) -> np.random.Generator:
    """Request t's own fresh stream: a Philox keyed by the seed at counter
    t * 2**64."""
    return np.random.Generator(np.random.Philox(key=seed, counter=t * 2 ** 64))


def reference_request(experiment: str, seed: int, t: int, m: int, k: int):
    """Request t of a built-in model from its own fresh stream, drawn in
    the documented order."""
    rng = reference_stream(seed, t)
    if experiment == "uniform":
        u = rng.random(k + 2 * m * k)
        return (u[:k], 4.0 * u[k:k + m * k].reshape(m, k),
                u[k + m * k:].reshape(m, k) ** 2)
    c = rng.gamma(1.5, 2.0, k)
    a_bar = (2.0 / 3.0) * rng.gamma(2.0, 2.0, (m, k))
    k_diag = ((2.0 / 3.0) * rng.gamma(1.0, 2.0, (m, k))) ** 2
    return c, a_bar, k_diag
