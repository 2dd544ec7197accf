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

The rule runs in one place, :class:`Lanes`, which steps B runs in
lockstep over (B, m, k) arrays: one numpy call serves every lane, and
the variant is a per-lane choice of priced columns and dual target.  A
lane set holds runs of one n, such as the trials x variants of one
point of an experiment's n-grid; :class:`OnlineSolver` and
:func:`run_online` are the one-lane case.  Lanes read requests in
blocks from a source, so a source may draw requests as they are needed.
Each lane is strictly sequential, decisions are never revised, and lanes
share nothing but their arrays: a lane's trace is bit-identical to the
same run alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, StructuralError
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


#: Lane-steps a lane set reads from its source at a time: a block of
#: B lanes covers BLOCK // B steps (34 for 30 lanes), so that sources
#: drawing requests as they go hold little, while few lanes still step
#: through long blocks.
BLOCK = 1024


def tie_rng(seed: int, t: int) -> np.random.Generator:
    """Tie-breaking stream for step t; depends only on (seed, t), so runs
    that agree on the argmax set of a step draw the same scheme there."""
    return np.random.default_rng((seed, t))


class InstanceBlocks:
    """Block source over linearized instances of one shape, n, d and psi.

    ``blocks(start, stop)`` returns (c, a_bar, k_diag, a_tilde) of
    requests start..stop-1, shapes (T, R, k) and (T, R, m, k), where row
    r is ``lins[r]``.
    """

    def __init__(self, lins):
        base = lins[0].base
        if base.risk.psi is None:
            raise ConfigError("instance has no safety coefficients; apply to_soc first")
        for lin in lins:
            inst = lin.base
            if (inst.a_bar.shape != base.a_bar.shape or not np.array_equal(inst.d, base.d)
                    or not np.array_equal(inst.risk.psi, base.risk.psi)):
                raise StructuralError("lanes need instances of one shape, budget and psi")
        self.fields = [[lin.base.c for lin in lins], [lin.base.a_bar for lin in lins],
                       [lin.base.k_diag for lin in lins], [lin.a_tilde for lin in lins]]
        self.n, self.k = base.n, base.k
        self.d, self.psi = base.d, base.risk.psi

    def __call__(self, start: int, stop: int):
        return tuple(np.stack([x[start:stop] for x in field], axis=1)
                     for field in self.fields)


class Lanes:
    """B runs of the online rule, stepping in lockstep.

    ``source`` hands out request blocks as :class:`InstanceBlocks` does
    and carries the runs' common ``n``, ``k``, ``d`` and ``psi``.  Each
    lane is a (row, config) pair: the config's variant runs on that row
    of the blocks with the config's tie seed.  At step t every lane
    prices its columns (the linear columns a_tilde for ``vanilla``; for
    the marginal variants the exact cone-usage increase a_bar + psi *
    (sqrt(Q + K) - sqrt(Q)) with Q the variance selected so far),
    accepts the scheme of best strictly positive margin, drawing among
    tied best schemes from ``tie_rng(seed, t)``, and takes the projected
    dual step p <- max(p + (consumption - target)/sqrt(n), 0).  The
    target is d, or for ``marginal-dynamic`` the remaining cone budget
    spread over the remaining steps, max((n d - G)/(n - t), 0) with G
    the exact cone usage so far.  ``prices`` holds the lanes' current
    prices, one row per lane in the order given.  With ``record_steps``,
    ``steps[i]`` holds lane i's (t, scheme, best margin, prices after
    the step) per step.

    Every operation is elementwise per lane or a per-lane product, so a
    lane's arithmetic, and with it its trace, does not depend on the
    other lanes.  Coefficients must be finite.
    """

    def __init__(self, source, lanes, record_steps: bool = False):
        lanes = list(lanes)
        if not lanes:
            raise StructuralError("a lane set needs at least one lane")
        # lanes sorted by variant, so that each variant's lanes are a slice
        self._order = sorted(range(len(lanes)),
                             key=lambda i: VARIANTS.index(lanes[i][1].variant))
        self._rows = np.array([lanes[i][0] for i in self._order], dtype=np.intp)
        self._seeds = [lanes[i][1].rng_seed for i in self._order]
        variants = [lanes[i][1].variant for i in self._order]
        B, m, k, n = len(lanes), len(source.d), source.k, source.n
        self.block = T = max(1, BLOCK // B)
        mg = variants.count("vanilla")  # the first corrected lane
        dyn = B - variants.count("marginal-dynamic")  # the first dynamic lane
        self.source, self.n, self.k = source, n, k
        self._mg, self._dyn = mg, dyn
        self.t = 0
        self.prices = np.zeros((B, m))
        self.steps = [[] for _ in lanes] if record_steps else None
        self._decisions: list = []
        self._objective = np.zeros(B)
        self._max_dual_inf = np.zeros(B)
        self._step_size = 1.0 / math.sqrt(n)

        # Lane state; constants are spread to the shapes they meet, since
        # numpy calls on equal shapes cost less than broadcasting ones.
        self._mean_var = np.zeros((B, 1, 2, m))  # selected means and variances
        self._target = np.tile(source.d, (B, 1, 1))
        self._q_wide = np.zeros((B - mg, m, k))  # Q of each corrected lane
        self._psi_wide = np.tile(source.psi[:, None], (B - mg, 1, k))
        self._step_wide = np.full((B - mg, 1, m), self._step_size)
        self._usage = np.zeros((B - dyn, 1, m))  # cone usage G
        self._psi_usage = np.tile(source.psi, (B - dyn, 1, 1))
        self._budget = np.tile(n * source.d, (B - dyn, 1, 1))

        # Block buffers.  Along the scheme axis of _margins, _revenue and
        # _chosen, index 0 is a zero column and index l + 1 is scheme l:
        # the first maximal margin is at 0 exactly when no margin is
        # strictly positive, and a pick of 0 selects nothing.
        self._columns = np.empty((T, B, m, k))  # what each lane prices
        self._variances = np.empty((T, B - mg, m, k))
        self._margins = np.zeros((T, B, 1, k + 1))
        self._revenue = np.zeros((T, B, k + 1))
        # per scheme: a_bar, k_diag, and the price step's addend: the
        # columns of a corrected lane, (columns - d)/sqrt(n) of a vanilla one
        self._chosen = np.zeros((T, B, k + 1, 3, m))
        self._prices = np.empty((T + 1, B, 1, m))
        self._picks = np.empty((T, B, 1), dtype=np.intp)
        self._chosen_rows = self._chosen.reshape(T, B * (k + 1), 3, m)
        self._offsets = np.arange(0, B * (k + 1), k + 1)[:, None]
        self._no_ties = np.full((B, 1), k, dtype=np.intp).tobytes()

    def run(self, limit: int | None = None) -> list[SolutionTrace]:
        """Step every lane to ``limit`` (default n); the traces, in lane order."""
        stop = self.n if limit is None else min(limit, self.n)
        while self.t < stop:
            self.advance(min(self.block, stop - self.t))
        return self.traces()

    def advance(self, steps: int) -> np.ndarray:
        """Take the next ``steps`` (at most ``block``) steps; returns their
        picks, shape (steps, B) in sorted lane order, 0 for a skip and
        l + 1 for scheme l."""
        t0, n, k, mg, dyn = self.t, self.n, self.k, self._mg, self._dyn
        if not 0 < steps <= self.block or t0 + steps > n:
            raise StructuralError(f"cannot take {steps} steps at step {t0} of {n}")
        c, a_bar, k_diag, a_tilde = self.source(t0, t0 + steps)
        if not (np.isfinite(c).all() and np.isfinite(a_tilde).all()):
            raise DomainError(f"requests {t0} to {t0 + steps - 1} have coefficients "
                              f"that are not finite (or a negative variance)")
        rows = self._rows
        B = len(rows)
        C, E, P, D, AK = (self._columns, self._margins, self._prices, self._picks,
                          self._chosen)
        C[:steps, :mg] = a_tilde[:, rows[:mg]]
        C[:steps, mg:] = a_bar[:, rows[mg:]]
        self._variances[:steps] = k_diag[:, rows[mg:]]
        self._revenue[:steps, :, 1:] = c[:, rows]
        AK[:steps, :, 1:, 0] = a_bar[:, rows].transpose(0, 1, 3, 2)
        AK[:steps, :, 1:, 1] = k_diag[:, rows].transpose(0, 1, 3, 2)
        vanilla_move = AK[:steps, :mg, :, 2]
        vanilla_move[:, :, 0] = 0.0
        vanilla_move[:, :, 1:] = C[:steps, :mg].transpose(0, 1, 3, 2)
        vanilla_move -= self._target[:mg]
        vanilla_move *= self._step_size
        P[0, :, 0] = self.prices[self._order]
        start = self._mean_var.copy()

        revenue = self._revenue[:, :, None, 1:]
        margins, reversed_margins = E[..., 1:], E[..., ::-1]
        chosen_rows, offsets, no_ties = self._chosen_rows, self._offsets, self._no_ties
        corrected = self._mean_var[mg:]  # kept current step by step
        q_corrected = corrected[:, 0, 1, :, None]
        q_wide, psi_wide, step_wide = self._q_wide, self._psi_wide, self._step_wide
        variances, c_corrected = self._variances, C[:, mg:]
        chosen_corrected = AK[:, mg:, 1:, 2].transpose(0, 1, 3, 2)
        mean_dynamic, q_dynamic = self._mean_var[dyn:, :, 0], self._mean_var[dyn:, :, 1]
        usage, psi_usage, budget = self._usage, self._psi_usage, self._budget
        target_corrected, target_dynamic = self._target[mg:], self._target[dyn:]

        for s in range(steps):
            cols = C[s]
            if mg < B:
                sq = np.sqrt(q_wide)
                increase = q_wide + variances[s]
                np.sqrt(increase, out=increase)
                increase -= sq
                increase *= psi_wide
                cs = c_corrected[s]
                cs += increase
                chosen_corrected[s] = cs
            if dyn < B:
                np.subtract(budget, usage, out=target_dynamic)
                np.divide(target_dynamic, float(n - t0 - s), out=target_dynamic)
                np.maximum(target_dynamic, 0.0, out=target_dynamic)
            p = P[s]
            np.subtract(revenue[s], np.matmul(p, cols), out=margins[s])
            pick = E[s].argmax(-1)
            # the first and the last maximal margin differ only on a tie
            if (pick + reversed_margins[s].argmax(-1)).tobytes() != no_ties:
                self._break_ties(E[s], pick, t0 + s)
            D[s] = pick
            chosen = chosen_rows[s].take(offsets + pick, axis=0)
            move = chosen[:, :, 2]
            if mg < B:
                corrected += chosen[mg:, :, :2]
                np.copyto(q_wide, q_corrected)
                if dyn < B:
                    np.sqrt(q_dynamic, out=usage)
                    usage *= psi_usage
                    usage += mean_dynamic
                move_corrected = move[mg:]
                move_corrected -= target_corrected
                move_corrected *= step_wide
            after = P[s + 1]
            np.add(move, p, out=after)
            np.maximum(after, 0.0, out=after)

        self.t = t0 + steps
        self.prices[self._order] = P[steps, :, 0]
        picks = D[:steps, :, 0]
        block, lanes = np.arange(steps)[:, None], np.arange(B)
        self._objective = np.add.accumulate(np.concatenate(
            [self._objective[None], self._revenue[block, lanes, picks]]), axis=0)[-1]
        self._mean_var[:, 0] = np.add.accumulate(np.concatenate(
            [start[None, :, 0], AK[block, lanes, picks, :2]]), axis=0)[-1]
        self._max_dual_inf = np.fmax(self._max_dual_inf,
                                     P[1:steps + 1].max(axis=(0, 2, 3)))
        picks = picks.copy()
        self._decisions.append(picks)
        if self.steps is not None:
            best = margins[:steps, :, 0].max(-1)
            prices = P[1:steps + 1, :, 0].copy()
            for i, lane in enumerate(self._order):
                self.steps[lane].extend(
                    (t0 + s, None if pick == 0 else pick - 1, value, prices[s, i])
                    for s, (pick, value) in enumerate(zip(picks[:, i].tolist(),
                                                          best[:, i].tolist())))
        return picks

    def _break_ties(self, e, pick, t):
        """Draw among the tied best schemes of the accepting lanes."""
        for i in np.flatnonzero(pick[:, 0] > 0):
            ties = np.flatnonzero(e[i, 0] == e[i, 0, pick[i, 0]]) - 1
            if len(ties) > 1:
                pick[i, 0] = tie_rng(self._seeds[i], t).choice(ties) + 1

    def traces(self) -> list[SolutionTrace]:
        """Each lane's trace so far, in lane order."""
        B, k = len(self._rows), self.k
        picks = (np.concatenate(self._decisions) if self._decisions
                 else np.empty((0, B), dtype=np.intp))
        out: list = [None] * B
        for i, lane in enumerate(self._order):
            out[lane] = SolutionTrace(
                decisions=tuple(None if x == 0 else x - 1 for x in picks[:, i].tolist()),
                objective=float(self._objective[i]),
                mean_consumption=self._mean_var[i, 0, 0],
                variance_accum=self._mean_var[i, 0, 1],
                max_dual_inf=float(self._max_dual_inf[i]))
        return out


class OnlineSolver:
    """One irrevocable pass over ``lin.base``: a lane set of one lane.

    ``step()`` consumes the next request and returns its decision; the
    decision at step t depends only on data revealed at steps <= t and
    the seed, so a run truncated after any prefix reproduces the full
    run's first decisions exactly.  With ``record_steps``, ``steps``
    holds (t, scheme, best margin, prices after the update) per step.
    ``prices`` is the current price vector, writable in place.
    """

    def __init__(self, lin: LinearizedInstance,
                 config: VariantConfig = VariantConfig(),
                 record_steps: bool = False):
        self.instance = lin.base
        self.lin = lin
        self.config = config
        self.lanes = Lanes(InstanceBlocks([lin]), [(0, config)], record_steps)

    @property
    def prices(self) -> np.ndarray:
        return self.lanes.prices[0]

    @property
    def steps(self):
        return None if self.lanes.steps is None else self.lanes.steps[0]

    def step(self) -> Decision:
        if self.lanes.t >= self.instance.n:
            raise StructuralError("all requests already processed")
        pick = int(self.lanes.advance(1)[0, 0])
        return None if pick == 0 else pick - 1

    def run(self, limit: int | None = None) -> SolutionTrace:
        return self.lanes.run(limit)[0]

    def trace(self) -> SolutionTrace:
        return self.lanes.traces()[0]


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
