"""Nash equilibrium solvers for the unconstrained and parity-constrained games.

The unconstrained game reduces to a scalar fixed point: the selected mass at
threshold ``t``, ``h(t) = sum_G p_G * Phi((br_G(t) - t) / s_G) - alpha``, is
strictly decreasing with downward jumps exactly at the groups' dropout
thresholds.  Walking every dropout upward either finds one whose jump
straddles alpha, in which case every group tied there splits between its two
tied best responses with the one weight that makes the selection budget
bind, or a segment free of jumps where the curve crosses alpha smoothly.
On that segment every group keeps one side of its dropout, the high maximum
when the dropout lies above the segment and the low one otherwise, so all
groups play pure strategies, the mass is continuous up to the segment's ends
and its slope is known in closed form: Newton's method
(:func:`kernel.find_root`) finds the crossing.

A threshold hits a group's dropout only when it is that very double; twin
groups (same cost and spread) share one curve and so one dropout, where they
mix alike and ``mixing_group`` names the first of them.  One rate table per
threshold, each group's low and high effort and selection rate, serves the
walk, the smooth crossing and the outcomes of both regimes.  A dropout's
rates do not depend on alpha, so the walk and the parity solve keep them in
the game's memo; a crossing hands the rows its Newton steps read to its
outcomes.  The outcomes wrap their strategies with no re-validation, as
their efforts and weights are the table's and the ones the solve checked.

Every solve walks the dropouts inside one closed-form bracket,
:func:`solver_bracket`, and a smooth crossing's Newton search starts at the
midpoint of its segment, as :func:`kernel.find_root` converges from any
start in it.  The threshold a profile of strategies induces, the (1 -
alpha)-quantile of the decision-statistic mixture, is found by
:func:`mixture_quantile`, Newton's method on the mixture CDF; the dynamics
take every new threshold from it.

A :class:`Game` checks a game and resolves its groups once, and answers both
solvers at any alpha and reward, keeping one reward's curves and rates:
a sweep keeps one game and asks it at every grid point.
:func:`solve_unconstrained` and :func:`solve_demographic_parity` answer one
game in one call, over a fresh :class:`Game`.

Under demographic parity each group selects its own top fraction alpha, so
each group's threshold is read off its response curve with no search.
"""

from __future__ import annotations

import math
from typing import Sequence

from .best_response import ResponseCurve
from .kernel import (
    _INV_SQRT_2PI,
    _SQRT2,
    find_root,
    normal_cdf,
    normal_pdf,
    normal_quantile,
)
from .metrics import quality_from_outcomes
from .model import (
    EffortDistribution,
    EquilibriumReport,
    GameConfig,
    GroupOutcome,
    GroupView,
    effective_groups,
    solver_violations,
)

__all__ = [
    "SolverError",
    "solver_bracket",
    "solve_unconstrained",
    "solve_demographic_parity",
    "Game",
]

# The reported selection rates must reproduce alpha to this relative error,
# so a small alpha keeps its own digits.  Near alpha = 1 the bound is about
# BUDGET_TOL absolute, the right rule there: a double holds alpha itself
# only to an absolute 1.1e-16.
BUDGET_TOL = 1e-8

# Mixing weights may stick out of [0, 1] by at most this before we call it a bug.
TAU_SLACK = 1e-6


class SolverError(RuntimeError):
    """The equilibrium search produced an inconsistent state."""


# Per group at one threshold: (rate_lo, rate_hi, effort_lo, effort_hi).
RateTable = list[tuple[float, float, float, float]]


def _rates(theta: float, curves: Sequence[ResponseCurve], rows: dict) -> RateTable:
    """Each group's low and high candidate efforts at ``theta`` and their
    selection rates: the ends of its best response (equal off a payoff tie,
    the tied pair at the group's dropout), kept in ``rows[theta, curve]``."""
    table = []
    for curve in curves:
        key = (theta, curve)
        if key not in rows:
            brs = curve.best_response(theta)
            e_lo, e_hi = brs[0], brs[-1]
            x_lo = normal_cdf((e_lo - theta) / curve.sigma)
            x_hi = x_lo if e_hi == e_lo else normal_cdf((e_hi - theta) / curve.sigma)
            rows[key] = (x_lo, x_hi, e_lo, e_hi)
        table.append(rows[key])
    return table


def _mass(views: tuple[GroupView, ...], table: RateTable, sides: Sequence[int]) -> float:
    """Selected mass when group ``i`` plays its low effort if ``sides[i]``
    is 0 and its high one if it is 1."""
    mass = 0.0
    for view, rates, side in zip(views, table, sides):
        mass += view.share * rates[side]
    return mass


def mixture_quantile(
    supports: Sequence[Sequence[tuple[float, float]]],
    views: Sequence[GroupView],
    alpha: float,
) -> float:
    """The threshold a strategy profile induces: the (1 - alpha)-quantile of
    the decision-statistic mixture in which group ``views[i]`` plays the
    ``(effort, weight)`` pairs ``supports[i]``.  Below every component
    quantile ``m + s * normal_quantile(1 - alpha)`` each component's CDF is
    at most ``1 - alpha``, above all of them at least, so the least and the
    greatest bracket the root."""
    target = 1.0 - alpha
    z = normal_quantile(target)
    # One (effort, spread, mass) triple per support point of every group.
    parts = [
        (m, view.sigma, view.share * w)
        for view, support in zip(views, supports)
        for m, w in support
    ]
    quantiles = [m + s * z for m, s, _ in parts]
    lo, hi = min(quantiles), max(quantiles)
    if lo == hi:
        return lo
    erfc, exp = math.erfc, math.exp

    def excess(theta: float) -> tuple[float, float]:
        # Mass above theta minus alpha, and its slope: minus the density.
        # kernel.normal_cdf and normal_pdf, inlined with their arithmetic.
        cdf = pdf = 0.0
        for m, s, mass in parts:
            u = (theta - m) / s
            cdf += mass * (0.5 * erfc(-u / _SQRT2))
            pdf += mass * (_INV_SQRT_2PI * exp(-0.5 * u * u)) / s
        return target - cdf, -pdf

    return find_root(excess, lo, hi, 0.5 * (lo + hi))


def solver_bracket(config: GameConfig) -> tuple[float, float]:
    """An interval certain to contain the equilibrium threshold, in closed
    form with no root search.

    Best responses lie between zero and the payoff-feasibility bound
    ``sqrt(2 S / C_G)``.  With ``z = -normal_quantile(alpha)``, the lower
    end ``min_G s_G * z`` lies below every component quantile at zero
    effort and the upper end ``max_G (sqrt(2 S / C_G) + s_G * z)`` above
    every one at the bound, so they bound the thresholds those profiles
    induce (see :func:`mixture_quantile`), and the selected-mass curve
    crosses alpha inside.
    """
    return _bracket(effective_groups(config), config.alpha, config.reward)


def _bracket(views: tuple[GroupView, ...], alpha: float, reward: float) -> tuple[float, float]:
    """:func:`solver_bracket` of the game ``views`` at ``alpha`` and ``reward``."""
    z = -normal_quantile(alpha)
    lo = min(v.sigma * z for v in views)
    return lo, max((2.0 * reward / v.cost) ** 0.5 + v.sigma * z for v in views)


def _outcomes(
    theta: float, views: tuple[GroupView, ...], table: RateTable,
    weights: Sequence[float], pinned: bool = False,
) -> tuple[GroupOutcome, ...]:
    """Outcomes when group ``i`` puts weight ``weights[i]`` on its high
    effort of ``table``; when ``pinned``, every group whose two rates differ
    (it is tied at ``theta``) reports its weight as ``tau``.  The strategies
    are wrapped unchecked: their efforts come off the response curves and
    their weights are 0, 1 or a clamped mixing weight (see
    :meth:`EffortDistribution._of_solved_support`)."""
    wrap = EffortDistribution._of_solved_support
    outcomes = []
    for view, (x_l, x_h, m_l, m_h), w in zip(views, table, weights):
        if w == 0.0:
            strategy = wrap(((m_l, 1.0),))
        elif w == 1.0:
            strategy = wrap(((m_h, 1.0),))
        else:
            strategy = wrap(((m_l, 1.0 - w), (m_h, w)))
        outcomes.append(
            GroupOutcome(
                label=view.label,
                threshold=theta,
                strategy=strategy,
                avg_effort=strategy.mean(),
                selection_rate=(1.0 - w) * x_l + w * x_h,
                tau=w if pinned and x_h > x_l else None,
            )
        )
    return tuple(outcomes)


def _mixing_weight(theta: float, excess: float, gap: float) -> float:
    """The weight on the high tied efforts that makes the budget bind at the
    pinned threshold ``theta``: ``excess`` is alpha less the selected mass
    with every tied group low, ``gap`` the mass their high efforts add."""
    if not gap > 0.0:
        raise SolverError(f"degenerate mixing interval at pinned threshold {theta!r}")
    # The walk pins only when alpha lies between the all-low and all-high
    # masses, so tau lies in [0, 1] up to rounding.
    tau = excess / gap
    if not -TAU_SLACK <= tau <= 1.0 + TAU_SLACK:
        raise SolverError(f"no feasible mixing weight at pinned threshold {theta!r}")
    return min(max(tau, 0.0), 1.0)


def _pinned_outcomes(
    theta: float, views: tuple[GroupView, ...], table: RateTable, alpha: float
) -> tuple[GroupOutcome, ...]:
    """Outcomes when the budget pins the threshold on a dropout at ``theta``;
    ``table`` holds the rates there.  Every group tied there (two distinct
    rates) mixes its tied efforts with the one weight that makes the budget
    bind, so groups of the same cost and spread play alike; every other
    group plays its one effort."""
    base = low = gap = 0.0
    for view, (x_lo, x_hi, _, _) in zip(views, table):
        if x_hi > x_lo:
            low += view.share * x_lo
            gap += view.share * (x_hi - x_lo)
        else:
            base += view.share * x_lo
    tau = _mixing_weight(theta, alpha - base - low, gap)
    weights = [tau if x_hi > x_lo else 0.0 for x_lo, x_hi, _, _ in table]
    return _outcomes(theta, views, table, weights, pinned=True)


class Game:
    """One game, checked and resolved once, that answers both solvers at any
    alpha and reward: a sweep keeps one and varies either per call.

    ``views`` are the resolved groups.  The game keeps one reward's response
    curves and their rate rows at the dropouts, which depend neither on
    alpha, on the other groups nor on the solver: a different reward
    replaces both, so give each thread its own game.  Raises ValueError
    when ``config`` is not a game the solvers support
    (:func:`model.solver_violations`); ``checked`` skips that check for a
    caller that ran it, or the stricter :func:`model.validate`, already.
    """

    def __init__(self, config: GameConfig, *, checked: bool = False) -> None:
        if not checked:
            problems = solver_violations(config)
            if problems:
                raise ValueError("invalid config: " + "; ".join(problems))
        self.config = config
        self.views = effective_groups(config)
        self._reward: float | None = None
        self._curves: tuple[ResponseCurve, ...] = ()
        self._rows: dict = {}

    def curves(self, reward: float | None = None) -> tuple[ResponseCurve, ...]:
        """Each group's response curve at ``reward``, the game's own by
        default.  Twin groups share one curve and so one dropout double."""
        reward = self.config.reward if reward is None else reward
        if reward != self._reward:
            shared: dict[tuple[float, float], ResponseCurve] = {}
            for view in self.views:
                key = (view.cost, view.sigma)
                if key not in shared:
                    shared[key] = ResponseCurve(view, reward)
            self._curves = tuple(shared[v.cost, v.sigma] for v in self.views)
            self._reward, self._rows = reward, {}
        return self._curves

    def unconstrained(
        self, alpha: float | None = None, reward: float | None = None,
        bracket: tuple[float, float] | None = None,
    ) -> EquilibriumReport:
        """Unique Nash equilibrium of the unconstrained selection game at
        ``alpha`` and ``reward``, the game's own by default.

        The walk and a smooth crossing start from ``bracket``, which must
        contain the equilibrium threshold, or with none from
        :func:`solver_bracket`.  One path serves every solve: the bracket,
        the walk over the dropouts inside it, then the pin or the smooth
        crossing.
        """
        views = self.views
        alpha = self.config.alpha if alpha is None else alpha
        reward = self.config.reward if reward is None else reward
        curves = self.curves(reward)
        memo = self._rows
        lo, hi = bracket or _bracket(views, alpha, reward)

        # Groups sharing a dropout share its double: twins share one curve.
        events = sorted({
            c.info.theta_d for c in curves
            if c.info is not None and lo < c.info.theta_d < hi
        })

        # Walk the dropouts up to the segment free of jumps that holds the
        # crossing, unless a jump straddles alpha.
        lows, highs = [0] * len(views), [1] * len(views)
        outcomes = None
        for theta_d in events:
            table = _rates(theta_d, curves, memo)
            m_lo, m_hi = _mass(views, table, lows), _mass(views, table, highs)
            if alpha > m_hi:
                hi = theta_d
                break
            if m_lo <= alpha <= m_hi:
                theta, regime = theta_d, "dropout_pinned"
                outcomes = _pinned_outcomes(theta, views, table, alpha)
                break
            lo = theta_d

        if outcomes is None:
            # No dropout lies inside (lo, hi): a group whose dropout lies above
            # it plays its high maximum throughout, every other group its low one.
            mid = 0.5 * (lo + hi)
            sides = [int(c.info is not None and c.info.theta_d > mid) for c in curves]
            rows: dict = {}  # the rates each Newton step read, for the outcomes

            def excess(theta: float) -> tuple[float, float]:
                table = _rates(theta, curves, rows)
                # A group's rate Phi(z) falls at phi(z) * eps / (s * (z * phi(z) +
                # eps)), with phi(z) = eps * mu on the maximum it plays, where
                # z * mu + 1 > 0.
                slope = 0.0
                for view, curve, rates, side in zip(views, curves, table, sides):
                    mu = rates[2 + side] / view.sigma
                    z = mu - theta / view.sigma
                    slope -= view.share * curve.eps * mu / (view.sigma * (z * mu + 1.0))
                return _mass(views, table, sides) - alpha, slope

            # Newton's method on the excess mass, continuous and decreasing here.
            theta = find_root(excess, lo, hi, mid)
            outcomes = _outcomes(theta, views, _rates(theta, curves, rows), sides)
            regime = "smooth"

        budget = sum(v.share * o.selection_rate for v, o in zip(views, outcomes))
        if abs(budget - alpha) > BUDGET_TOL * alpha:
            raise SolverError(
                f"selection budget off by {abs(budget - alpha)!r} at theta={theta!r}"
            )
        return EquilibriumReport(
            mode="unconstrained",
            regime=regime,
            threshold=theta,
            outcomes=outcomes,
            quality=quality_from_outcomes(views, outcomes),
        )

    def parity(
        self, alpha: float | None = None, reward: float | None = None
    ) -> EquilibriumReport:
        """Equilibrium when every group is selected at rate ``alpha``, at
        ``reward``; both are the game's own by default.

        Parity removes cross-group competition: each group is a population of
        mass one whose rate ``Phi(z) = alpha`` fixes ``z* = normal_quantile(alpha)``.
        A group whose tied best responses at its dropout have rates around alpha
        mixes them there.  Any other plays the stationary point ``mu = phi(z*) /
        eps`` at ``tau = mu - z*``, which is then its best response: no root is
        solved.  The rates at a dropout are the walk's rows there.
        """
        views = self.views
        alpha = self.config.alpha if alpha is None else alpha
        curves = self.curves(reward)
        memo = self._rows
        z = normal_quantile(alpha)
        outcomes = []
        for view, curve in zip(views, curves):
            # The group alone is a population of mass one: its rates are its
            # budget.  Its rates at its dropout are the walk's row there.
            info = curve.info
            table = None if info is None else _rates(info.theta_d, [curve], memo)
            if table is not None and table[0][0] <= alpha <= table[0][1]:
                x_lo, x_hi = table[0][:2]
                theta, pinned = info.theta_d, True
                weights = [_mixing_weight(theta, alpha - x_lo, x_hi - x_lo)]
            else:
                mu = normal_pdf(z) / curve.eps
                theta, effort = view.sigma * (mu - z), view.sigma * mu
                rate = normal_cdf((effort - theta) / view.sigma)
                table, weights, pinned = [(rate, rate, effort, effort)], [0.0], False
            outcome, = _outcomes(theta, (view,), table, weights, pinned)
            if abs(outcome.selection_rate - alpha) > BUDGET_TOL * alpha:
                raise SolverError(f"group {view.label!r} selected at rate "
                                  f"{outcome.selection_rate!r} at theta={outcome.threshold!r}")
            outcomes.append(outcome)
        outcomes = tuple(outcomes)
        return EquilibriumReport(
            mode="demographic_parity",
            regime="decomposed",
            threshold=None,
            outcomes=outcomes,
            quality=quality_from_outcomes(views, outcomes),
        )


def solve_unconstrained(
    config: GameConfig, bracket: tuple[float, float] | None = None
) -> EquilibriumReport:
    """:meth:`Game.unconstrained` of ``config`` in one call."""
    return Game(config).unconstrained(bracket=bracket)


def solve_demographic_parity(config: GameConfig) -> EquilibriumReport:
    """:meth:`Game.parity` of ``config`` in one call."""
    return Game(config).parity()
