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
Philox per config serves every request.  Moving it to request t assigns
a state dict built once from Python ints: counter [0, t, 0, 0], an empty
buffer and no half-used 32-bit word, the state a fresh Philox at that
counter starts in.  A block of requests draws each request's raw
variates into one row of a (T, k + 2mk) buffer, and the model's scales
and squares are applied to the whole block at once.  The online lanes
read requests through the same ``RequestDraws.fill``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigError, DomainError, StructuralError
from .model import CHUNK, Instance, RiskSpec

EXPERIMENTS = ("uniform", "chi_square")


@dataclass(frozen=True)
class GeneratorConfig:
    """Input model, problem dimensions, risk targets, and the seed.

    Construction refuses an unknown model, a seed outside [0, 2**128), a
    ``d`` of the wrong length or with an entry that is not finite and
    positive, and risk targets that are invalid or not one per resource.
    """

    experiment: str
    n: int
    m: int
    k: int
    d: tuple | None = None
    eta: tuple | None = None
    gamma_tilde: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"expected one of {EXPERIMENTS}")
        if min(self.n, self.m, self.k) < 1:
            raise DomainError("n, m, k must all be at least 1")
        if not 0 <= self.seed < 2 ** 128:  # Philox's key
            raise DomainError(f"the seed must lie in [0, 2**128), got {self.seed}")
        d = self.budget()
        if d.shape != (self.m,):
            raise ConfigError(f"d must have {self.m} entries, got shape {d.shape}")
        if not np.all(np.isfinite(d) & (d > 0)):
            raise DomainError("budget must be positive and finite in every resource")
        rm = self.risk().m
        if rm not in (None, self.m):
            raise StructuralError(f"risk spec has {rm} entries for {self.m} resources")

    def budget(self) -> np.ndarray:
        """The per-step budget d, all ones unless given."""
        return np.ones(self.m) if self.d is None else np.asarray(self.d, dtype=float)

    def risk(self) -> RiskSpec:
        """The risk targets, without safety coefficients."""
        return RiskSpec(eta=self.eta, gamma_tilde=self.gamma_tilde)


class RequestDraws:
    """The coefficients of any request of one config, from one Philox.

    ``draws(t)`` returns (c, a_bar, k_diag) of request t;
    ``draws.block(start, stop)`` stacks requests start..stop-1 into
    C-contiguous arrays of shape (T, k), (T, m, k) and (T, m, k), and
    ``draws.fill(start, c, a_bar, k_diag)`` writes them into given
    arrays of those shapes.  Requests may be drawn in any order.  With the
    config's ``n``, ``d`` and ``risk`` it is a row source (see ``blocks``).
    """

    def __init__(self, config: GeneratorConfig):
        self.bits = np.random.Philox(key=config.seed)
        self.rng = np.random.Generator(self.bits)
        # the state of a fresh Philox at counter t * 2**64 (buffer empty,
        # no half-used 32-bit word), in Python ints; _at(t) sets counter[1]
        self.counter = [0, 0, 0, 0]
        key = [int(word) for word in self.bits.state["state"]["key"]]
        self.state = {"bit_generator": "Philox",
                      "state": {"counter": self.counter, "key": key},
                      "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                      "has_uint32": 0, "uinteger": 0}
        self.experiment = config.experiment
        self.n, self.m, self.k = config.n, config.m, config.k
        self.d, self.risk = config.budget(), config.risk()

    def _at(self, t: int) -> np.random.Generator:
        """The generator, moved to the start of request t's stream."""
        self.counter[1] = t
        self.bits.state = self.state
        return self.rng

    def __call__(self, t: int):
        c, a_bar, k_diag = self.block(t, t + 1)
        return c[0], a_bar[0], k_diag[0]

    def block(self, start: int, stop: int):
        T, m, k = stop - start, self.m, self.k
        out = np.empty((T, k)), np.empty((T, m, k)), np.empty((T, m, k))
        self.fill(start, *out)
        return out

    def fill(self, start: int, c: np.ndarray, a_bar: np.ndarray, k_diag: np.ndarray):
        T, m, k = len(c), self.m, self.k
        # row i holds request start + i's variates in draw order: k for c,
        # then m*k for a_bar, then m*k for k_diag; a block is scaled at once
        mk = m * k
        raw = np.empty((T, k + 2 * mk))
        if self.experiment == "uniform":
            for i, row in enumerate(raw):
                self._at(start + i).random(out=row)
            mean_scale = 4.0
        else:
            # chi2(v) as Generator.gamma(v / 2, 2.0) draws it:
            # 2.0 * standard_gamma(v / 2), then the model's 2/3
            for i, row in enumerate(raw):
                rng = self._at(start + i)
                rng.standard_gamma(1.5, out=row[:k])
                rng.standard_gamma(2.0, out=row[k:k + mk])
                rng.standard_gamma(1.0, out=row[k + mk:])
            raw *= 2.0
            raw[:, k:] *= 2.0 / 3.0
            mean_scale = 1.0
        c[...] = raw[:, :k]
        np.multiply(mean_scale, raw[:, k:k + mk].reshape(T, m, k), out=a_bar)
        np.square(raw[:, k + mk:].reshape(T, m, k), out=k_diag)


def request_fields(config: GeneratorConfig, t: int):
    """Coefficients (c, a_bar, k_diag) of request t, independent of order."""
    return RequestDraws(config)(t)


def stream_requests(config: GeneratorConfig) -> Iterator[tuple]:
    """Yield each request's (c, a_bar, k_diag) in arrival order, lazily."""
    draws = RequestDraws(config)
    for start in range(0, config.n, CHUNK):
        yield from zip(*draws.block(start, min(start + CHUNK, config.n)))


def generate(config: GeneratorConfig) -> Instance:
    """Materialize the full instance for the configuration.

    The arrays are filled CHUNK requests at a time and frozen, so the
    instance adopts them without a copy.
    """
    n, m, k = config.n, config.m, config.k
    fields = np.empty((n, k)), np.empty((n, m, k)), np.empty((n, m, k))
    draws = RequestDraws(config)
    for start in range(0, n, CHUNK):
        draws.fill(start, *(field[start:start + CHUNK] for field in fields))
    for field in fields:
        field.setflags(write=False)
    return Instance(*fields, config.budget(), config.risk())
