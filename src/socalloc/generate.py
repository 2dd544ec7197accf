"""Seeded synthetic instance generators.

Two built-in input models, both with unit per-step budget:

* ``uniform``: revenue U[0,1], mean consumption U[0,4], variance
                   (U[0,1])^2; all coefficients bounded.
* ``chi_square``: revenue chi2(3), mean consumption (2/3)*chi2(4),
                   variance ((2/3)*chi2(2))^2; deliberately unbounded.
                   chi2(v) is drawn as Gamma(v/2, scale=2).

Every request owns a counter-based stream (Philox keyed by the seed,
counter t * 2**64) and draws its fields in a fixed order, so coefficients
depend only on (seed, t): generation order is irrelevant, and requests
can be streamed one at a time without materializing the instance.  One
Philox per config serves every request: before each draw it is moved to
the request's counter with an empty buffer, which is the state a fresh
Philox at that counter starts in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigError, DomainError, StructuralError
from .model import Instance, Request, RiskSpec

EXPERIMENTS = ("uniform", "chi_square")


@dataclass(frozen=True)
class GeneratorConfig:
    """Input model, problem dimensions, risk targets, and the seed.

    ``experiment`` is one of ``uniform``, ``chi_square``, or ``custom``;
    the custom tag requires ``sampler``, a callable (rng, m, k) ->
    (c, a_bar, k_diag) drawing one request.
    """

    experiment: str
    n: int
    m: int
    k: int
    d: tuple | None = None
    eta: tuple | None = None
    gamma_tilde: tuple | None = None
    seed: int = 0
    sampler: Callable | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS + ("custom",):
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"expected one of {EXPERIMENTS + ('custom',)}")
        if self.experiment == "custom" and self.sampler is None:
            raise ConfigError("custom experiment requires a sampler callable")
        if min(self.n, self.m, self.k) < 1:
            raise DomainError("n, m, k must all be at least 1")

    def budget(self) -> np.ndarray:
        if self.d is None:
            return np.ones(self.m)
        d = np.asarray(self.d, dtype=float)
        if d.shape != (self.m,):
            raise ConfigError(f"d must have {self.m} entries, got shape {d.shape}")
        if not np.all(d > 0):
            raise DomainError("budget must be positive in every resource")
        return d

    def risk(self) -> RiskSpec:
        risk = RiskSpec(eta=self.eta, gamma_tilde=self.gamma_tilde)
        if risk.m not in (None, self.m):
            raise StructuralError(f"risk spec has {risk.m} entries for {self.m} resources")
        return risk


def _draw_uniform(rng: np.random.Generator, m: int, k: int):
    u = rng.random(k + 2 * m * k)
    c = u[:k]
    a_bar = 4.0 * u[k:k + m * k].reshape(m, k)
    k_diag = u[k + m * k:].reshape(m, k) ** 2
    return c, a_bar, k_diag


def _draw_chi_square(rng: np.random.Generator, m: int, k: int):
    c = rng.gamma(1.5, 2.0, k)
    a_bar = (2.0 / 3.0) * rng.gamma(2.0, 2.0, (m, k))
    k_diag = ((2.0 / 3.0) * rng.gamma(1.0, 2.0, (m, k))) ** 2
    return c, a_bar, k_diag


_DRAWERS = {"uniform": _draw_uniform, "chi_square": _draw_chi_square}


class RequestDraws:
    """The coefficients of any request of one config, from one Philox.

    ``draws(t)`` returns (c, a_bar, k_diag) of request t;
    ``draws.block(start, stop)`` stacks requests start..stop-1 into
    arrays of shape (T, k), (T, m, k) and (T, m, k).  Requests may be
    drawn in any order.
    """

    def __init__(self, config: GeneratorConfig):
        self.bits = np.random.Philox(key=config.seed)
        self.rng = np.random.Generator(self.bits)
        self.state = self.bits.state
        self.drawer = (config.sampler if config.experiment == "custom"
                       else _DRAWERS[config.experiment])
        self.m, self.k = config.m, config.k

    def __call__(self, t: int):
        # counter t * 2**64 as four 64-bit words, buffer empty
        self.state["state"]["counter"] = np.array([0, t, 0, 0], dtype=np.uint64)
        self.state["buffer_pos"] = 4
        self.bits.state = self.state
        return self.drawer(self.rng, self.m, self.k)

    def block(self, start: int, stop: int):
        T, m, k = stop - start, self.m, self.k
        c, a_bar, k_diag = np.empty((T, k)), np.empty((T, m, k)), np.empty((T, m, k))
        for i in range(T):
            c[i], a_bar[i], k_diag[i] = self(start + i)
        return c, a_bar, k_diag


def request_fields(config: GeneratorConfig, t: int):
    """Coefficients (c, a_bar, k_diag) of request t, independent of order."""
    return RequestDraws(config)(t)


def stream_requests(config: GeneratorConfig) -> Iterator[Request]:
    """Yield requests in arrival order without materializing the instance."""
    draws = RequestDraws(config)
    for t in range(config.n):
        yield Request(*draws(t))


def generate(config: GeneratorConfig) -> Instance:
    """Materialize the full instance for the configuration."""
    return Instance(*RequestDraws(config).block(0, config.n), config.budget(),
                    config.risk())
