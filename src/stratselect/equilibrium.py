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
from .metrics import quality_from_outcomes, selection_rate
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

# A threshold this close (relative) to a group's dropout counts as hitting it:
# the walk's events, the pinned outcomes and excess_mass read both tied
# efforts there.
DROPOUT_MATCH_REL = 1e-9

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

    The interval is degenerate except when the threshold hits some group's
    dropout, where ``mass_lo``/``mass_hi`` use that group's low/high tied
    best response.
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
) -> dict[str, ResponseCurve]:
    """Each group's curve from ``memo`` (a fresh one when None), with its
    dropout searched unless the reward is subcritical for it."""
    memo = {} if memo is None else memo
    curves = {}
    for view in views:
        curve = curves[view.label] = memo_curve(view, reward, memo)
        if curve.window is not None:
            curve.dropout()
    return curves


def _effort_pair(theta: float, curve: ResponseCurve) -> tuple[float, float]:
    """Low/high candidate efforts at ``theta`` (equal off the dropout)."""
    info = curve.info
    if info is not None and abs(theta - info.theta_d) <= DROPOUT_MATCH_REL * max(
        1.0, abs(info.theta_d)
    ):
        return info.br_min, info.br_max
    brs = curve.best_response(theta)
    return brs[0], brs[-1]


def _mass_interval(
    theta: float, views: tuple[GroupView, ...], curves: dict[str, ResponseCurve]
) -> tuple[float, float]:
    lo = hi = 0.0
    for view in views:
        e_lo, e_hi = _effort_pair(theta, curves[view.label])
        lo += view.share * normal_cdf((e_lo - theta) / view.sigma)
        hi += view.share * normal_cdf((e_hi - theta) / view.sigma)
    return lo, hi


def excess_mass(theta: float, config: GameConfig) -> ExcessMassEvaluation:
    """Selected mass when every group best-responds to ``theta``."""
    views = effective_groups(config)
    lo, hi = _mass_interval(theta, views, _curves(views, config.reward))
    return ExcessMassEvaluation(theta=theta, mass_lo=lo, mass_hi=hi)


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


def _pure_outcomes(
    theta: float, views: tuple[GroupView, ...], efforts: Sequence[float]
) -> tuple[GroupOutcome, ...]:
    outcomes = []
    for view, effort in zip(views, efforts):
        strategy = EffortDistribution.point(effort)
        outcomes.append(
            GroupOutcome(
                label=view.label,
                threshold=theta,
                strategy=strategy,
                avg_effort=effort,
                selection_rate=selection_rate(strategy, theta, view),
            )
        )
    return tuple(outcomes)


def _pinned_outcomes(
    theta: float,
    hit: list[GroupView],
    views: tuple[GroupView, ...],
    curves: dict[str, ResponseCurve],
    alpha: float,
) -> tuple[GroupOutcome, ...]:
    """Outcomes when the budget pins the threshold on dropout(s) at ``theta``."""
    rate = {}
    for view in views:
        e_lo, e_hi = _effort_pair(theta, curves[view.label])
        rate[view.label] = (
            normal_cdf((e_lo - theta) / view.sigma),
            normal_cdf((e_hi - theta) / view.sigma),
            e_lo,
            e_hi,
        )

    def gap(view: GroupView) -> float:
        lo, hi, _, _ = rate[view.label]
        return hi - lo

    # Largest rate gap first; sorted() is stable, so the first group wins ties.
    mixers = sorted(hit, key=gap, reverse=True)
    if gap(mixers[0]) <= 0.0:
        raise SolverError(
            f"degenerate mixing interval for group {mixers[0].label!r}"
        )

    # Coinciding dropouts are not covered by the theory.  Try each hit group
    # as the mixer in turn and park the others on one side each, preferring
    # low effort, until a feasible mixing weight exists.  The group with the
    # largest share * gap always admits a parking, so some choice succeeds
    # for every alpha between the all-low and all-high masses.
    base = sum(v.share * rate[v.label][0] for v in views if v not in hit)
    tau = None
    for mixer in mixers:
        x_lo, x_hi, _, _ = rate[mixer.label]
        if x_hi - x_lo <= 0.0:
            break  # so is every later gap
        others_hit = [v for v in hit if v.label != mixer.label]
        for sides in itertools.product((0, 1), repeat=len(others_hit)):
            mass = base + sum(
                v.share * rate[v.label][side]
                for v, side in zip(others_hit, sides)
            )
            candidate = (alpha - mass - mixer.share * x_lo) / (
                mixer.share * (x_hi - x_lo)
            )
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
            f"dropout thresholds of {[v.label for v in hit]} coincide at "
            f"{theta!r}; assigning the mixed strategy to {mixer.label!r}",
            RuntimeWarning,
            stacklevel=3,
        )
    tau = min(max(tau, 0.0), 1.0)

    # The mixer puts weight tau on its high effort, every other group 0 or 1.
    weight = {v.label: side for v, side in zip(others_hit, sides)}
    weight[mixer.label] = tau
    outcomes = []
    for view in views:
        x_l, x_h, m_l, m_h = rate[view.label]
        w = weight.get(view.label, 0)
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
                tau=tau if view.label == mixer.label else None,
            )
        )
    return tuple(outcomes)


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
    reward, alpha = config.reward, config.alpha
    by_label = _curves(views, reward, curves)
    theta_lo, theta_hi = bracket if bracket is not None else solver_bracket(config)

    events: list[tuple[float, list[GroupView]]] = []
    for view in views:
        info = by_label[view.label].info
        if info is None or not theta_lo < info.theta_d < theta_hi:
            continue
        for theta_d, group_list in events:
            if abs(info.theta_d - theta_d) <= DROPOUT_MATCH_REL * max(
                1.0, abs(theta_d)
            ):
                group_list.append(view)
                break
        else:
            events.append((info.theta_d, [view]))
    events.sort(key=lambda item: item[0])

    # Walk the dropouts up to the segment free of jumps that holds the
    # crossing, unless a jump straddles alpha.  f_lo/f_hi are the excess mass
    # inside the segment at its ends: just above a dropout the low tied
    # effort plays, just below one the high one; None at a bracket end.
    lo, hi, f_lo, f_hi = theta_lo, theta_hi, None, None
    pinned: tuple[float, list[GroupView]] | None = None
    for theta_d, group_list in events:
        m_lo, m_hi = _mass_interval(theta_d, views, by_label)
        if alpha > m_hi:
            hi, f_hi = theta_d, m_hi - alpha
            break
        if m_lo <= alpha <= m_hi:
            pinned = (theta_d, group_list)
            break
        lo, f_lo = theta_d, m_lo - alpha

    if pinned is not None:
        theta, group_list = pinned
        outcomes = _pinned_outcomes(theta, group_list, views, by_label, alpha)
        regime = "dropout_pinned"
    else:
        # No dropout lies inside (lo, hi): a group whose dropout lies above
        # it plays its high maximum throughout, every other group its low one.
        mid = 0.5 * (lo + hi)
        group_curves = [by_label[v.label] for v in views]
        sides = [-1 if c.info and c.info.theta_d > mid else 0 for c in group_curves]

        def efforts(theta: float) -> list[float]:
            return [c.best_response(theta)[side] for c, side in zip(group_curves, sides)]

        def excess(theta: float) -> float:
            mass = 0.0
            for view, effort in zip(views, efforts(theta)):
                mass += view.share * normal_cdf((effort - theta) / view.sigma)
            return mass - alpha

        # Brent's method on the excess mass, continuous and decreasing here.
        theta = find_root_seeded(
            excess, lo, hi,
            excess(lo) if f_lo is None else f_lo,
            excess(hi) if f_hi is None else f_hi,
            _THETA_WIDTH_REL * max(1.0, abs(lo), abs(hi)),
        )
        outcomes = _pure_outcomes(theta, views, efforts(theta))
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
    grid_points: int = 10_000,
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
        grid = np.linspace(0.0, hi, grid_points)
        values = config.reward * normal_cdf(
            (grid - theta) / view.sigma
        ) - 0.5 * view.cost * grid * grid
        current = sum(
            w * payoff(m, theta, view, config.reward)
            for m, w in outcome.strategy.support
        )
        gains[outcome.label] = float(values.max() - current)
    return gains
