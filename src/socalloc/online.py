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
:func:`run_online` are the one-lane case.  Lanes fill request blocks
from row sources, so a source may draw requests as they are needed,
and price each block's linear columns themselves.
Each lane is strictly sequential, decisions are never revised, and lanes
share nothing but their arrays: a lane's trace is bit-identical to the
same run alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, StructuralError
from .model import Instance, SolutionTrace
from .transform import LinearizedInstance, linear_columns

VARIANTS = ("vanilla", "marginal", "marginal-dynamic")

@dataclass(frozen=True)
class VariantConfig:
    """Which solver variant to run and the nonnegative seed for tie-breaking."""

    variant: str = "vanilla"
    rng_seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.rng_seed < 0:
            raise DomainError(f"the tie-break seed must be nonnegative, got {self.rng_seed}")


#: Lane-steps a lane set reads from its row sources at a time: a block of
#: B lanes covers BLOCK // B steps (34 for 30 lanes), so that sources
#: drawing requests as they go hold little, while few lanes still step
#: through long blocks.
BLOCK = 1024


def tie_rng(seed: int, t: int) -> np.random.Generator:
    """Tie-breaking stream for step t; depends only on (seed, t), so runs
    that agree on the argmax set of a step draw the same scheme there."""
    return np.random.default_rng((seed, t))


class Lanes:
    """B runs of the online rule, stepping in lockstep.

    ``rows`` holds one row source per instance (see
    :func:`~socalloc.model.blocks`); the runs share ``psi``, and ``n`` and
    ``d``, read from ``rows[0]``.  Each lane is a (row, config) pair: the
    config's variant runs on that row with the config's tie seed.  At step t every
    lane prices its columns (the linear columns a_tilde, computed here,
    for ``vanilla``; for the marginal variants the exact cone-usage
    increase a_bar + psi * (sqrt(Q + K) - sqrt(Q)) with Q the variance
    selected so far), accepts the scheme of best strictly positive
    margin, drawing among tied best schemes from ``tie_rng(seed, t)``,
    and takes the projected dual step
    p <- max(p + (consumption - target)/sqrt(n), 0).  The target is d,
    or for ``marginal-dynamic`` the remaining cone budget spread over
    the remaining steps, max((n d - G)/(n - t), 0) with G the exact cone
    usage so far.  ``prices`` holds the lanes' current prices, one row
    per lane in the order given.  ``picks[i, t]`` is lane i's pick at
    step t, 0 for a skip and l + 1 for scheme l, in the smallest
    unsigned dtype that holds k.  With ``record_steps``, ``steps`` is a
    pair of arrays filled as the lanes step: ``steps[0][i, t]`` is lane
    i's best margin at step t and ``steps[1][i, t]`` its prices after
    that step.  ``run(limit)`` steps the lanes; ``trace(i)`` builds lane
    i's trace over the steps taken so far.

    Every operation is elementwise per lane or a per-lane product, so a
    lane's arithmetic, and with it its trace, does not depend on the
    other lanes.  Coefficients must be finite and variances nonnegative,
    as those of an :class:`~socalloc.model.Instance` and of the
    generator are; they are not checked here.
    """

    def __init__(self, rows, psi: np.ndarray, lanes, record_steps: bool = False):
        lanes = list(lanes)
        if not lanes:
            raise StructuralError("a lane set needs at least one lane")
        # lanes sorted by variant, so that each variant's lanes are a slice
        self._order = sorted(range(len(lanes)),
                             key=lambda i: VARIANTS.index(lanes[i][1].variant))
        self._rows = np.array([lanes[i][0] for i in self._order], dtype=np.intp)
        self._seeds = [lanes[i][1].rng_seed for i in self._order]
        variants = [lanes[i][1].variant for i in self._order]
        n, d, k = rows[0].n, rows[0].d, rows[0].k
        B, R, m = len(lanes), len(rows), len(d)
        self.block = T = max(1, BLOCK // B)
        mg = variants.count("vanilla")  # the first corrected lane
        dyn = B - variants.count("marginal-dynamic")  # the first dynamic lane
        self._sources, self.n, self.k, self._psi = rows, n, k, psi
        self._mg, self._dyn = mg, dyn
        self.t = 0
        self.prices = np.zeros((B, m))
        self.picks = np.zeros((B, n), dtype=np.min_scalar_type(k))
        self.steps = (np.empty((B, n)), np.empty((B, n, m))) if record_steps else None
        self._objective = np.zeros(B)
        self._max_dual_inf = np.zeros(B)
        self._step_size = 1.0 / math.sqrt(n)

        # Lane state; constants are spread to the shapes they meet, since
        # numpy calls on equal shapes cost less than broadcasting ones.
        self._mean_var = np.zeros((B, 1, 2, m))  # selected means and variances
        self._target = np.tile(d, (B, 1, 1))
        self._q_wide = np.zeros((B - mg, m, k))  # Q of each corrected lane
        self._psi_wide = np.tile(psi[:, None], (B - mg, 1, k))
        self._step_wide = np.full((B - mg, 1, m), self._step_size)
        self._usage = np.zeros((B - dyn, 1, m))  # cone usage G
        self._psi_usage = np.tile(psi, (B - dyn, 1, 1))
        self._budget = np.tile(n * d, (B - dyn, 1, 1))

        # Block buffers; column r of _draws is filled from row r.  Along
        # the scheme axis of _margins, _revenue and _chosen, index 0 is a
        # zero column and index l + 1 is scheme l: the first maximal
        # margin is at 0 exactly when no margin is strictly positive, and
        # a pick of 0 selects nothing.
        self._draws = np.empty((T, R, k)), np.empty((T, R, m, k)), np.empty((T, R, m, k))
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

    def run(self, limit: int | None = None) -> None:
        """Step every lane to ``limit`` (default n)."""
        stop = self.n if limit is None else min(limit, self.n)
        while self.t < stop:
            self.advance(min(self.block, stop - self.t))

    def trace(self, lane: int) -> SolutionTrace:
        """The trace of lane ``lane`` (in the order given) over the steps taken."""
        i = self._order.index(lane)
        return SolutionTrace(
            decisions=tuple(None if x == 0 else x - 1 for x in self.picks[lane, :self.t].tolist()),
            objective=float(self._objective[i]),
            mean_consumption=self._mean_var[i, 0, 0],
            variance_accum=self._mean_var[i, 0, 1],
            max_dual_inf=float(self._max_dual_inf[i]))

    def advance(self, steps: int) -> None:
        """Take the next ``steps`` (at most ``block``) steps."""
        t0, n, k, mg, dyn = self.t, self.n, self.k, self._mg, self._dyn
        if not 0 < steps <= self.block or t0 + steps > n:
            raise StructuralError(f"cannot take {steps} steps at step {t0} of {n}")
        c, a_bar, k_diag = (x[:steps] for x in self._draws)
        for r, source in enumerate(self._sources):
            source.fill(t0, c[:, r], a_bar[:, r], k_diag[:, r])
        rows = self._rows
        B = len(rows)
        C, E, P, D, AK = (self._columns, self._margins, self._prices, self._picks,
                          self._chosen)
        C[:steps, :mg] = linear_columns(a_bar, k_diag, self._psi, n)[:, rows[:mg]]
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
        self.picks[self._order, t0:self.t] = picks.T
        if self.steps is not None:
            values, prices = self.steps
            values[self._order, t0:self.t] = margins[:steps, :, 0].max(-1).T
            prices[self._order, t0:self.t] = P[1:steps + 1, :, 0].transpose(1, 0, 2)

    def _break_ties(self, e, pick, t):
        """Draw among the tied best schemes of the accepting lanes."""
        for i in np.flatnonzero(pick[:, 0] > 0):
            ties = np.flatnonzero(e[i, 0] == e[i, 0, pick[i, 0]]) - 1
            if len(ties) > 1:
                pick[i, 0] = tie_rng(self._seeds[i], t).choice(ties) + 1


class OnlineSolver:
    """One irrevocable pass over ``instance``, which carries psi (see
    :func:`~socalloc.transform.to_soc`): ``lanes``, a lane set of one lane.

    ``run(limit)`` runs ``lanes`` to ``limit`` and returns ``lanes.trace(0)``,
    the trace so far, read from the picks ``lanes.picks[0]``; the
    decision at step t depends only on data revealed at steps <= t and
    the seed, so a run truncated after any prefix reproduces the full
    run's first decisions exactly.  With ``record_steps``, ``steps``
    holds two arrays over the steps taken so far: each step's best
    margin, shape (t,), and the prices after its update, shape (t, m).
    """

    def __init__(self, instance: Instance,
                 config: VariantConfig = VariantConfig(),
                 record_steps: bool = False):
        if instance.risk.psi is None:
            raise ConfigError("instance has no safety coefficients; apply to_soc first")
        self.config = config
        self.lanes = Lanes([instance], instance.risk.psi, [(0, config)], record_steps)

    @property
    def steps(self):
        record, t = self.lanes.steps, self.lanes.t
        return None if record is None else (record[0][0, :t], record[1][0, :t])

    def run(self, limit: int | None = None) -> SolutionTrace:
        self.lanes.run(limit)
        return self.lanes.trace(0)


def run_online(instance: Instance, lin: LinearizedInstance,
               config: VariantConfig = VariantConfig(),
               limit: int | None = None) -> SolutionTrace:
    """One pass of the configured variant; returns the completed trace.

    ``lin`` must be the linearization of ``instance`` itself (its revenues
    and budget), not of another instance; the run reads only ``instance``.
    """
    if not (np.array_equal(lin.c, instance.c) and np.array_equal(lin.d, instance.d)):
        raise StructuralError("linearization was built from a different instance")
    return OnlineSolver(instance, config).run(limit=limit)
