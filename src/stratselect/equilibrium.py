"""Nash equilibrium solvers for the unconstrained and parity-constrained games.

The unconstrained game reduces to a scalar fixed point: the selected mass at
threshold ``t``, ``h(t) = sum_G p_G * Phi((br_G(t) - t) / s_G) - alpha``, is
strictly decreasing with downward jumps exactly at the groups' dropout
thresholds.  Walking the dropouts inside a bracket that provably contains
the fixed point either finds one whose jump straddles alpha, in which case
the pinned group splits between its two tied best responses with the weight
that makes the selection budget bind, or a segment free of jumps where the
curve crosses alpha smoothly and Brent's method finds the crossing.  On that
segment every group keeps one side of its dropout, the high maximum when the
dropout lies above the segment and the low one otherwise, so all groups play
pure strategies and the mass is continuous up to the segment's ends.

A threshold hits a group's dropout only when it is that very double; twin
groups share one curve and so one dropout.  One rate table per threshold,
each group's low and high effort and selection rate, serves the walk, the
smooth crossing and the outcomes of both regimes.

The threshold a profile of strategies induces, the (1 - alpha)-quantile of
the decision-statistic mixture, is found by :func:`mixture_quantile`: the
solver bracket is that quantile at zero effort and at the payoff-feasibility
bound, and the dynamics take every new threshold from it.

The demographic-parity game decomposes into one single-group instance per
group (each selecting its own top fraction), solved with the same machinery.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .best_response import ResponseCurve, payoff
from .kernel import find_decreasing_root, find_root_seeded
from .kernel import normal_cdf, normal_quantile
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
    "ExcessMassEvaluation",
    "excess_mass",
    "solver_bracket",
    "solve_unconstrained",
    "solve_demographic_parity",
    "max_deviation_gain",
    "CurveMemo",
]

# The reported selection rates must reproduce alpha this tightly.
BUDGET_TOL = 1e-8

# Mixing weights may stick out of [0, 1] by at most this before we call it a bug.
TAU_SLACK = 1e-6

_THETA_WIDTH_REL = 1e-13


class SolverError(RuntimeError):
    """The equilibrium search produced an inconsistent state."""


@dataclass(frozen=True)
class ExcessMassEvaluation:
    """Selected mass at a threshold, as an interval.

    The interval is degenerate except at some group's dropout, or within a
    payoff tie of it, where ``mass_lo``/``mass_hi`` use that group's low/high
    tied best response.
    """

    theta: float
    mass_lo: float
    mass_hi: float


# Response curves keyed by ``(cost, sigma, reward)``: a curve does not depend on
# alpha, on the other groups or on the solver, so one memo serves a command.
CurveMemo = dict[tuple[float, float, float], ResponseCurve]


def memo_curve(view: GroupView, reward: float, memo: CurveMemo | None) -> ResponseCurve:
    """The curve of ``view`` at ``reward`` from ``memo``, built and stored on
    a miss; a fresh curve when ``memo`` is None."""
    if memo is None:
        return ResponseCurve(view, reward)
    key = (view.cost, view.sigma, reward)
    if key not in memo:
        memo[key] = ResponseCurve(view, reward)
    return memo[key]


def _curves(
    views: tuple[GroupView, ...], reward: float, memo: CurveMemo | None = None
) -> list[ResponseCurve]:
    """Each group's curve from ``memo`` (a fresh one when None), with its
    dropout searched unless the reward is subcritical for it.  Twin groups
    share one curve and so one dropout double."""
    memo = {} if memo is None else memo
    curves = [memo_curve(view, reward, memo) for view in views]
    for curve in curves:
        if curve.window is not None:
            curve.dropout()
    return curves


# Per group at one threshold: (rate_lo, rate_hi, effort_lo, effort_hi).
RateTable = list[tuple[float, float, float, float]]


def _rates(
    theta: float, views: tuple[GroupView, ...], curves: list[ResponseCurve]
) -> RateTable:
    """Each group's low and high candidate efforts at ``theta`` and their
    selection rates: the tied pair when ``theta`` is the group's dropout,
    the ends of its best response otherwise (equal off a payoff tie)."""
    table = []
    for view, curve in zip(views, curves):
        info = curve.info
        if info is not None and theta == info.theta_d:
            e_lo, e_hi = info.br_min, info.br_max
        else:
            brs = curve.best_response(theta)
            e_lo, e_hi = brs[0], brs[-1]
        x_lo = normal_cdf((e_lo - theta) / view.sigma)
        x_hi = x_lo if e_hi == e_lo else normal_cdf((e_hi - theta) / view.sigma)
        table.append((x_lo, x_hi, e_lo, e_hi))
    return table


def _mass(views: tuple[GroupView, ...], table: RateTable, sides: Sequence[int]) -> float:
    """Selected mass when group ``i`` plays its low effort if ``sides[i]``
    is 0 and its high one if it is 1."""
    mass = 0.0
    for view, rates, side in zip(views, table, sides):
        mass += view.share * rates[side]
    return mass


def excess_mass(theta: float, config: GameConfig) -> ExcessMassEvaluation:
    """Selected mass when every group best-responds to ``theta``."""
    views = effective_groups(config)
    table = _rates(theta, views, _curves(views, config.reward))
    return ExcessMassEvaluation(
        theta=theta,
        mass_lo=_mass(views, table, [0] * len(views)),
        mass_hi=_mass(views, table, [1] * len(views)),
    )


def mixture_quantile(
    supports: Sequence[Sequence[tuple[float, float]]],
    views: Sequence[GroupView],
    alpha: float,
) -> float:
    """The threshold a strategy profile induces: the (1 - alpha)-quantile of
    the decision-statistic mixture in which group ``views[i]`` plays the
    ``(effort, weight)`` pairs ``supports[i]``.  It lies between the
    quantiles ``m + s * normal_quantile(1 - alpha)`` of the mixture's
    components, which seed the search."""
    target = 1.0 - alpha

    def excess(theta: float) -> float:
        # Mass above theta minus alpha as target - CDF: the exact negation
        # of CDF - target, so Brent takes the same steps on either.
        total = 0.0
        for view, support in zip(views, supports):
            for m, w in support:
                total += view.share * w * normal_cdf((theta - m) / view.sigma)
        return target - total

    z = normal_quantile(target)
    seeds = [m + view.sigma * z for view, support in zip(views, supports) for m, _ in support]
    return find_decreasing_root(excess, min(seeds), max(seeds))


def solver_bracket(config: GameConfig) -> tuple[float, float]:
    """An interval certain to contain the equilibrium threshold.

    The lower end is the threshold induced by zero effort everywhere, the
    upper end the one induced by the payoff-feasibility bound ``sqrt(2 S /
    C_G)``; actual best responses lie in between, so the selected-mass curve
    crosses alpha inside.
    """
    views = effective_groups(config)
    zero = [((0.0, 1.0),)] * len(views)
    caps = [(((2.0 * config.reward / v.cost) ** 0.5, 1.0),) for v in views]
    return (
        mixture_quantile(zero, views, config.alpha),
        mixture_quantile(caps, views, config.alpha),
    )


def _outcomes(
    theta: float, views: tuple[GroupView, ...], table: RateTable,
    weights: Sequence[float], mixer: int | None = None,
) -> tuple[GroupOutcome, ...]:
    """Outcomes when group ``i`` puts weight ``weights[i]`` on its high
    effort of ``table``; the ``mixer`` reports its weight as ``tau``."""
    outcomes = []
    for i, (view, (x_l, x_h, m_l, m_h), w) in enumerate(zip(views, table, weights)):
        if w == 0.0:
            strategy = EffortDistribution.point(m_l)
        elif w == 1.0:
            strategy = EffortDistribution.point(m_h)
        else:
            strategy = EffortDistribution.mixture(((m_l, 1.0 - w), (m_h, w)))
        outcomes.append(
            GroupOutcome(
                label=view.label,
                threshold=theta,
                strategy=strategy,
                avg_effort=strategy.mean(),
                selection_rate=(1.0 - w) * x_l + w * x_h,
                tau=w if i == mixer else None,
            )
        )
    return tuple(outcomes)


def _pinned_outcomes(
    theta: float, hit: list[int], views: tuple[GroupView, ...], table: RateTable, alpha: float
) -> tuple[GroupOutcome, ...]:
    """Outcomes when the budget pins the threshold on the dropout that the
    groups ``hit`` share at ``theta``; ``table`` holds the rates there."""

    def gap(i: int) -> float:
        return table[i][1] - table[i][0]

    # Largest rate gap first; sorted() is stable, so the first group wins ties.
    mixers = sorted(hit, key=gap, reverse=True)
    if gap(mixers[0]) <= 0.0:
        raise SolverError(
            f"degenerate mixing interval for group {views[mixers[0]].label!r}"
        )

    # Coinciding dropouts are not covered by the theory.  Try each hit group
    # as the mixer in turn and park the others on one side each, preferring
    # low effort, until a feasible mixing weight exists.  The group with the
    # largest share * gap always admits a parking, so some choice succeeds
    # for every alpha between the all-low and all-high masses.
    base = sum(v.share * table[i][0] for i, v in enumerate(views) if i not in hit)
    tau = None
    for mixer in mixers:
        x_lo, x_hi, _, _ = table[mixer]
        if x_hi - x_lo <= 0.0:
            break  # so is every later gap
        share = views[mixer].share
        others_hit = [i for i in hit if i != mixer]
        for sides in itertools.product((0, 1), repeat=len(others_hit)):
            mass = base + sum(
                views[i].share * table[i][side] for i, side in zip(others_hit, sides)
            )
            candidate = (alpha - mass - share * x_lo) / (share * (x_hi - x_lo))
            if -TAU_SLACK <= candidate <= 1.0 + TAU_SLACK:
                tau = candidate
                break
        if tau is not None:
            break
    if tau is None:
        raise SolverError(
            f"no feasible mixing weight at pinned threshold {theta!r}"
        )
    if len(hit) > 1:
        warnings.warn(
            f"dropout thresholds of {[views[i].label for i in hit]} coincide at "
            f"{theta!r}; assigning the mixed strategy to {views[mixer].label!r}",
            RuntimeWarning,
            stacklevel=3,
        )

    # The mixer puts weight tau on its high effort, every other group 0 or 1.
    weights = [0] * len(views)
    for i, side in zip(others_hit, sides):
        weights[i] = side
    weights[mixer] = min(max(tau, 0.0), 1.0)
    return _outcomes(theta, views, table, weights, mixer)


def solve_unconstrained(
    config: GameConfig,
    bracket: tuple[float, float] | None = None,
    *,
    curves: CurveMemo | None = None,
) -> EquilibriumReport:
    """Unique Nash equilibrium of the unconstrained selection game.

    ``bracket`` may narrow the search interval; it must still contain the
    equilibrium threshold.  ``curves`` is a memo of response curves to read
    and fill, shared across solves; ``None`` starts a fresh one.
    """
    problems = solver_violations(config)
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))
    views = effective_groups(config)
    alpha = config.alpha
    curves = _curves(views, config.reward, curves)
    theta_lo, theta_hi = bracket if bracket is not None else solver_bracket(config)

    # Groups sharing a dropout share its double: twins share one curve.
    events: dict[float, list[int]] = {}
    for i, curve in enumerate(curves):
        if curve.info is not None and theta_lo < curve.info.theta_d < theta_hi:
            events.setdefault(curve.info.theta_d, []).append(i)

    # Walk the dropouts up to the segment free of jumps that holds the
    # crossing, unless a jump straddles alpha.  f_lo/f_hi are the excess mass
    # inside the segment at its ends: just above a dropout the low tied
    # effort plays, just below one the high one; None at a bracket end.
    lows, highs = [0] * len(views), [1] * len(views)
    lo, hi, f_lo, f_hi = theta_lo, theta_hi, None, None
    outcomes = None
    for theta_d, hit in sorted(events.items()):
        table = _rates(theta_d, views, curves)
        m_lo, m_hi = _mass(views, table, lows), _mass(views, table, highs)
        if alpha > m_hi:
            hi, f_hi = theta_d, m_hi - alpha
            break
        if m_lo <= alpha <= m_hi:
            theta, regime = theta_d, "dropout_pinned"
            outcomes = _pinned_outcomes(theta, hit, views, table, alpha)
            break
        lo, f_lo = theta_d, m_lo - alpha

    if outcomes is None:
        # No dropout lies inside (lo, hi): a group whose dropout lies above
        # it plays its high maximum throughout, every other group its low one.
        mid = 0.5 * (lo + hi)
        sides = [int(c.info is not None and c.info.theta_d > mid) for c in curves]

        def excess(theta: float) -> float:
            return _mass(views, _rates(theta, views, curves), sides) - alpha

        # Brent's method on the excess mass, continuous and decreasing here.
        theta = find_root_seeded(
            excess, lo, hi,
            excess(lo) if f_lo is None else f_lo,
            excess(hi) if f_hi is None else f_hi,
            _THETA_WIDTH_REL * max(1.0, abs(lo), abs(hi)),
        )
        outcomes = _outcomes(theta, views, _rates(theta, views, curves), sides)
        regime = "smooth"

    budget = sum(v.share * o.selection_rate for v, o in zip(views, outcomes))
    if abs(budget - alpha) > BUDGET_TOL:
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


def solve_demographic_parity(
    config: GameConfig, *, curves: CurveMemo | None = None
) -> EquilibriumReport:
    """Equilibrium when every group is selected at rate alpha.

    The parity constraint removes cross-group competition, so each group is
    solved as a stand-alone population of mass one facing the same reward
    and selection size.  Every subgame shares the ``curves`` memo (see
    :func:`solve_unconstrained`).
    """
    problems = solver_violations(config)
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))
    views = effective_groups(config)
    curves = {} if curves is None else curves
    outcomes = []
    for params in config.groups:
        sub = replace(config, groups=(replace(params, share=1.0),))
        sub_report = solve_unconstrained(sub, curves=curves)
        outcomes.append(sub_report.outcomes[0])
    outcomes = tuple(outcomes)
    return EquilibriumReport(
        mode="demographic_parity",
        regime="decomposed",
        threshold=None,
        outcomes=outcomes,
        quality=quality_from_outcomes(views, outcomes),
    )


def max_deviation_gain(
    report: EquilibriumReport,
    config: GameConfig,
) -> dict[str, float]:
    """Best payoff improvement any candidate could find on an effort grid.

    At a Nash equilibrium this is nonpositive up to solver residuals.  The
    grid spans ``[0, sqrt(2 S / C) + 6 sigma]`` per group, which contains
    every best response.
    """
    views = {v.label: v for v in effective_groups(config)}
    gains = {}
    for outcome in report.outcomes:
        view = views[outcome.label]
        theta = outcome.threshold
        hi = (2.0 * config.reward / view.cost) ** 0.5 + 6.0 * view.sigma
        grid = np.linspace(0.0, hi, 10_000)
        values = config.reward * normal_cdf(
            (grid - theta) / view.sigma
        ) - 0.5 * view.cost * grid * grid
        current = sum(
            w * payoff(m, theta, view, config.reward)
            for m, w in outcome.strategy.support
        )
        gains[outcome.label] = float(values.max() - current)
    return gains
