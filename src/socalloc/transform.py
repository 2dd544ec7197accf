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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .gaussian import safety_coefficient
from .model import Instance, RiskSpec


@dataclass(frozen=True)
class LinearizedInstance:
    """An instance together with its per-request pricing columns.

    Construction refuses a base without psi (see :func:`to_soc`) and
    writes the columns once, resource-major: ``columns`` is a read-only,
    C-contiguous (m, n, k) array, so ``columns.reshape(m, n * k)`` is one
    matrix without a copy, and ``columns[j, t, l]`` is a_tilde_tj[l].
    """

    base: Instance
    columns: np.ndarray = field(init=False, repr=False)  # (m, n, k)

    def __post_init__(self):
        base, psi = self.base, self.base.risk.psi
        if psi is None:
            raise ConfigError("instance has no safety coefficients; apply to_soc first")
        n, m, k = base.a_bar.shape
        columns = np.empty((m, n, k))
        linear_columns(base.a_bar, base.k_diag, psi, n, out=columns.transpose(1, 0, 2))
        columns.setflags(write=False)
        object.__setattr__(self, "columns", columns)


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
    return LinearizedInstance(instance)
