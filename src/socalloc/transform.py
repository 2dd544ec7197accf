"""From risk targets to cone form, and from cone form to linear columns.

``to_soc`` turns the per-resource risk targets into safety coefficients
psi so the feasible consumption of resource j becomes

    sum_t a_bar_tj . x_t + psi_j * sqrt(sum_t x_t . K_tj x_t) <= b_j.

``linearize`` replaces the coupled square root by per-request linear
columns

    a_tilde_tj = a_bar_tj + (psi_j / sqrt(n)) * gamma_tj,

where gamma is the per-scheme standard deviation vector.  For one-hot
selections the per-step standard deviation equals gamma . x_t exactly,
and summing those over t never exceeds the joint square root, so every
solution feasible in cone form stays feasible for the linear columns.
A :class:`LinearizedInstance` holds only what the baseline's dual reads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DomainError
from .gaussian import safety_coefficient
from .model import Instance, RiskSpec, _frozen, blocks


class LinearizedInstance:
    """Revenues ``c`` (n, k), per-step budget ``d`` (m,), ``budget`` = n d and the
    linear columns of the n requests of the row source ``rows`` (see
    :func:`~socalloc.model.blocks`), read a block at a time, so a_bar and k_diag are
    never held whole.  ``columns`` is read-only, C-contiguous and resource-major:
    ``columns[j, t, l]`` is a_tilde_tj[l].  Refuses psi = None (see :func:`to_soc`).
    """

    def __init__(self, rows, psi: np.ndarray | None):
        if psi is None:
            raise ConfigError("instance has no safety coefficients; apply to_soc first")
        n, self.d = rows.n, _frozen(rows.d)
        self.n, self.m, self.k, self.budget = n, len(self.d), rows.k, _frozen(n * self.d)
        self.c, self.columns = np.empty((n, self.k)), np.empty((self.m, n, self.k))
        for start, c, a_bar, k_diag in blocks(rows):
            block = slice(start, start + len(c))
            self.c[block] = c
            linear_columns(a_bar, k_diag, psi, n, out=self.columns[:, block].transpose(1, 0, 2))
        self.c.setflags(write=False)
        self.columns.setflags(write=False)


def safety_coefficients(risk: RiskSpec) -> np.ndarray:
    """The safety coefficient psi_j of every resource of ``risk``.

    psi_j is the larger of the quantile implied by eta_j and the
    mean-excess inverse implied by gamma_tilde_j.  A negative psi_j
    (eta_j < 0.5, or gamma_tilde_j > sqrt(2/pi), with no stronger target
    on resource j) would make the cone form non-convex and is rejected;
    psi_j = 0 (eta_j = 0.5 exactly) is legal.
    """
    if risk.eta is None and risk.gamma_tilde is None:
        raise ConfigError("risk spec is empty: need eta and/or gamma_tilde")
    psi = np.array([
        safety_coefficient(
            None if risk.eta is None else float(risk.eta[j]),
            None if risk.gamma_tilde is None else float(risk.gamma_tilde[j]))
        for j in range(risk.m)
    ])
    negative = np.flatnonzero(psi < 0)
    if negative.size:
        raise DomainError("negative safety coefficient (a target weaker than the "
                          "mean) on " + ", ".join(f"resource {j}: psi = {psi[j]:.6g}"
                                                 for j in negative))
    return psi


def to_soc(instance: Instance) -> Instance:
    """Populate the derived safety coefficients on a new instance.

    Coefficients (see :func:`safety_coefficients`) are computed once
    here so solver loops never touch root finding.
    """
    risk = instance.risk
    return Instance(
        instance.c, instance.a_bar, instance.k_diag, instance.d,
        RiskSpec(eta=risk.eta, gamma_tilde=risk.gamma_tilde,
                 psi=safety_coefficients(risk)))


def linear_columns(a_bar: np.ndarray, k_diag: np.ndarray, psi: np.ndarray,
                   n: int, out: np.ndarray | None = None) -> np.ndarray:
    """a_bar + (psi / sqrt(n)) * sqrt(k_diag) over trailing (m, k) axes,
    written into ``out`` if given; computed in place, with no temporary
    of the columns' size, and with the same bits as that expression."""
    out = np.sqrt(k_diag, out=out)
    out *= psi[:, None] / math.sqrt(n)
    out += a_bar
    return out


def linearize(instance: Instance) -> LinearizedInstance:
    """Build the per-request linear columns a_tilde of ``instance``.

    Requires psi (see :func:`to_soc`); with psi = 0 the columns reduce
    to the plain means.
    """
    return LinearizedInstance(instance, instance.risk.psi)
