"""Online primal-dual solvers: the vanilla algorithm and two corrected variants.

The vanilla solver keeps a nonnegative price vector p, accepts the
scheme maximizing revenue minus priced linear consumption whenever that
margin is strictly positive, and moves prices by a projected subgradient
step of size 1/sqrt(n):

    p <- max(p + (consumption - d) / sqrt(n), 0).

The corrected variants exploit the exact cone structure instead of the
linear surrogate:

* ``marginal``: prices (and charges the dual update with) the exact
  increase of the cone-form usage a decision would cause right now,
  a_bar + psi * (sqrt(Q + K) - sqrt(Q)) with Q the variance consumed so
  far.  Summed along a run these charges telescope to the exact final
  cone-form usage.
* ``marginal-dynamic``: additionally replaces the static per-step budget
  d by the remaining cone-form budget spread over the remaining steps.

Both corrections use only information revealed so far, and both collapse
to the vanilla algorithm when psi = 0.

The rule runs in one place, :meth:`OnlineSolver.step`, for every
variant; the variants differ only in the columns they price and the
target of the dual step.  The solver reads the instance from its
:class:`LinearizedInstance`, and its one opt-in recorder (``record_steps``)
keeps the prices after every step.  Each run is strictly sequential;
decisions are never revised.  Distinct runs share nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StructuralError
from .model import Decision, Instance, SolutionTrace
from .transform import LinearizedInstance

VARIANTS = ("vanilla", "marginal", "marginal-dynamic")

_ALIASES = {"marginal+dynamic": "marginal-dynamic", "marginal_dynamic": "marginal-dynamic"}


def canonical_variant(name: str) -> str:
    name = _ALIASES.get(name, name)
    if name not in VARIANTS:
        raise ConfigError(f"unknown variant {name!r}; expected one of {VARIANTS}")
    return name


@dataclass(frozen=True)
class VariantConfig:
    """Which solver variant to run and the seed for tie-breaking."""

    variant: str = "vanilla"
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "variant", canonical_variant(self.variant))


@dataclass
class DualState:
    """Mutable per-run solver state.

    ``prices`` is the current dual vector, ``step_size`` is 1/sqrt(n),
    ``t`` counts processed requests (0-based), and the accumulators feed
    the corrected variants: ``q_accum`` holds selected variances,
    ``mean_accum`` selected mean consumptions, and ``g_accum`` the exact
    cone-form usage mean_accum + psi * sqrt(q_accum).
    """

    prices: np.ndarray
    step_size: float
    t: int = 0
    q_accum: np.ndarray | None = None
    mean_accum: np.ndarray | None = None
    g_accum: np.ndarray | None = None

    def __post_init__(self):
        m = len(self.prices)
        if self.q_accum is None:
            self.q_accum = np.zeros(m)
        if self.mean_accum is None:
            self.mean_accum = np.zeros(m)
        if self.g_accum is None:
            self.g_accum = np.zeros(m)


def tie_rng(seed: int, t: int) -> np.random.Generator:
    """Tie-breaking stream for step t; depends only on (seed, t), so runs
    that agree on the argmax set of a step draw the same scheme there."""
    return np.random.default_rng((seed, t))


def _choose(values: np.ndarray, seed: int, t: int) -> Decision:
    best = values.max()
    if not best > 0.0:
        return None
    ties = np.flatnonzero(values == best)
    if len(ties) == 1:
        return int(ties[0])
    return int(tie_rng(seed, t).choice(ties))


def marginal_soc_cost(state: DualState, a_bar: np.ndarray, k_diag: np.ndarray,
                      psi: np.ndarray) -> np.ndarray:
    """Exact cone-usage increase of each scheme if chosen now, shape (m, k).

    Entry (j, l) is a_bar[j, l] + psi[j] * (sqrt(Q_j + k_diag[j, l]) -
    sqrt(Q_j)).  Zero-variance schemes cost exactly their mean.
    """
    sq = np.sqrt(state.q_accum)
    return a_bar + psi[:, None] * (np.sqrt(state.q_accum[:, None] + k_diag)
                                   - sq[:, None])


def dynamic_budget(state: DualState, d: np.ndarray, n: int) -> np.ndarray:
    """Remaining cone-form budget spread over the remaining steps.

    At step t (0-based, current step included in the remainder) this is
    max((n*d - g_accum) / (n - t), 0); exhausted resources get a zero
    target, which forces their price to grow.
    """
    remaining = n - state.t
    if remaining <= 0:
        raise StructuralError("no steps remain")
    return np.maximum((n * d - state.g_accum) / remaining, 0.0)


class OnlineSolver:
    """Stepping engine for one irrevocable pass over ``lin.base``.

    ``step()`` consumes the next request and returns its decision; the
    decision at step t depends only on data revealed at steps <= t and
    the seed, so a run truncated after any prefix reproduces the full
    run's first decisions exactly.  With ``record_steps`` each step
    appends (t, scheme, best margin, prices after the update) to
    ``steps``.
    """

    def __init__(self, lin: LinearizedInstance,
                 config: VariantConfig = VariantConfig(),
                 record_steps: bool = False):
        instance = lin.base
        if instance.risk.psi is None:
            raise ConfigError("instance has no safety coefficients; apply to_soc first")
        self.instance = instance
        self.lin = lin
        self.config = config
        self.psi = instance.risk.psi
        self.d = instance.d
        self.state = DualState(prices=np.zeros(instance.m),
                               step_size=1.0 / math.sqrt(instance.n))
        self.objective = 0.0
        self.decisions: list[Decision] = []
        self.max_dual_inf = 0.0
        self.steps = [] if record_steps else None

    def step(self) -> Decision:
        """Price the columns, accept the best strictly positive margin,
        then take the projected step p <- max(p + step*(cons - target), 0)."""
        state = self.state
        t = state.t
        inst = self.instance
        if t >= inst.n:
            raise StructuralError("all requests already processed")

        if self.config.variant == "vanilla":
            columns = self.lin.a_tilde[t]
            target = self.d
        else:
            columns = marginal_soc_cost(state, inst.a_bar[t], inst.k_diag[t], self.psi)
            if self.config.variant == "marginal-dynamic":
                target = dynamic_budget(state, self.d, inst.n)
            else:
                target = self.d

        values = inst.c[t] - state.prices @ columns
        scheme = _choose(values, self.config.rng_seed, t)
        if scheme is not None:
            consumption = columns[:, scheme]
            self.objective += float(inst.c[t, scheme])
            state.mean_accum = state.mean_accum + inst.a_bar[t, :, scheme]
            state.q_accum = state.q_accum + inst.k_diag[t, :, scheme]
            state.g_accum = state.mean_accum + self.psi * np.sqrt(state.q_accum)
        else:
            consumption = np.zeros(inst.m)

        state.prices = np.maximum(state.prices + state.step_size * (consumption - target),
                                  0.0)
        state.t = t + 1
        self.decisions.append(scheme)

        pmax = float(state.prices.max(initial=0.0))
        if pmax > self.max_dual_inf:
            self.max_dual_inf = pmax
        if self.steps is not None:
            self.steps.append((t, scheme, float(values.max()), state.prices.copy()))
        return scheme

    def run(self, limit: int | None = None) -> SolutionTrace:
        n = self.instance.n if limit is None else min(limit, self.instance.n)
        while self.state.t < n:
            self.step()
        return self.trace()

    def trace(self) -> SolutionTrace:
        return SolutionTrace(
            decisions=tuple(self.decisions),
            objective=self.objective,
            mean_consumption=self.state.mean_accum,
            variance_accum=self.state.q_accum,
            max_dual_inf=self.max_dual_inf,
        )


def run_online(instance: Instance, lin: LinearizedInstance,
               config: VariantConfig = VariantConfig(),
               limit: int | None = None) -> SolutionTrace:
    """One pass of the configured variant; returns the completed trace.

    ``lin`` must be the linearization of ``instance`` itself, not of
    another instance of the same shape.
    """
    if lin.base is not instance:
        raise StructuralError("linearization was built from a different instance")
    return OnlineSolver(lin, config).run(limit=limit)
