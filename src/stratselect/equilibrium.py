"""Nash equilibrium solvers for the unconstrained and parity-constrained games.

The unconstrained game reduces to a scalar fixed point: the selected mass at
threshold ``t``, ``h(t) = sum_G p_G * Phi((br_G(t) - t) / s_G) - alpha``, is
strictly decreasing with downward jumps exactly at the groups' dropout
thresholds.  Bisection over a bracket that provably contains the fixed point
either crosses zero smoothly (all groups play pure strategies) or lands on a
dropout, in which case the pinned group splits between its two tied best
responses with the weight that makes the selection budget bind.

The demographic-parity game decomposes into one single-group instance per
group (each selecting its own top fraction), solved with the same machinery.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .best_response import (
    DropoutInfo,
    SubcriticalReward,
    best_response,
    critical_reward,
    dropout_threshold,
    payoff,
)
from .kernel import NoConvergence, RootConfig, find_root, normal_cdf, normal_quantile
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
    "DropoutMemo",
]

# A threshold this close (relative) to a group's dropout counts as hitting it.
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


# Dropout thresholds keyed by the dropout problem's own inputs
# ``(cost, sigma, reward, cfg)``; ``None`` marks a subcritical reward.  The
# threshold does not depend on alpha, on the other groups or on the solver,
# so one memo can serve every solve of a command.
DropoutMemo = dict[tuple[float, float, float, RootConfig | None], DropoutInfo | None]


def _dropout_infos(
    views: tuple[GroupView, ...],
    reward: float,
    cfg: RootConfig | None,
    memo: DropoutMemo | None = None,
) -> dict[str, DropoutInfo]:
    memo = {} if memo is None else memo
    infos: dict[str, DropoutInfo] = {}
    for view in views:
        key = (view.cost, view.sigma, reward, cfg)
        if key not in memo:
            try:
                memo[key] = dropout_threshold(view, reward, cfg)
            except SubcriticalReward:
                memo[key] = None
        if memo[key] is not None:
            infos[view.label] = memo[key]
    return infos


def _effort_pair(
    theta: float,
    view: GroupView,
    info: DropoutInfo | None,
    reward: float,
    cfg: RootConfig | None,
) -> tuple[float, float]:
    """Low/high candidate efforts at ``theta`` (equal off the dropout)."""
    if info is not None and abs(theta - info.theta_d) <= DROPOUT_MATCH_REL * max(
        1.0, abs(info.theta_d)
    ):
        return info.br_min, info.br_max
    brs = best_response(theta, view, reward, cfg)
    return brs[0], brs[-1]


def _mass_interval(
    theta: float,
    views: tuple[GroupView, ...],
    infos: dict[str, DropoutInfo],
    reward: float,
    cfg: RootConfig | None,
) -> tuple[float, float]:
    lo = hi = 0.0
    for view in views:
        e_lo, e_hi = _effort_pair(theta, view, infos.get(view.label), reward, cfg)
        lo += view.share * normal_cdf((e_lo - theta) / view.sigma)
        hi += view.share * normal_cdf((e_hi - theta) / view.sigma)
    return lo, hi


def excess_mass(
    theta: float, config: GameConfig, cfg: RootConfig | None = None
) -> ExcessMassEvaluation:
    """Selected mass when every group best-responds to ``theta``."""
    views = effective_groups(config)
    infos = _dropout_infos(views, config.reward, cfg)
    lo, hi = _mass_interval(theta, views, infos, config.reward, cfg)
    return ExcessMassEvaluation(theta=theta, mass_lo=lo, mass_hi=hi)


def _decreasing_root(f, lo: float, hi: float, cfg: RootConfig | None) -> float:
    """Root of a decreasing ``f``, expanding the seed bracket as needed."""
    span = max(1.0, hi - lo)
    for _ in range(64):
        if f(lo) >= 0.0:
            break
        lo -= span
        span *= 2.0
    else:
        raise NoConvergence("could not bracket the root from below")
    span = max(1.0, hi - lo)
    for _ in range(64):
        if f(hi) <= 0.0:
            break
        hi += span
        span *= 2.0
    else:
        raise NoConvergence("could not bracket the root from above")
    return find_root(f, lo, hi, cfg)


def solver_bracket(
    config: GameConfig, cfg: RootConfig | None = None
) -> tuple[float, float]:
    """An interval certain to contain the equilibrium threshold.

    The lower end assumes everyone exerts zero effort, the upper end assumes
    everyone plays the payoff-feasibility bound ``sqrt(2 S / C_G)``; actual
    best responses lie in between, so the selected-mass curve crosses alpha
    inside.
    """
    views = effective_groups(config)
    alpha = config.alpha
    q = normal_quantile(1.0 - alpha)

    def at_zero(theta: float) -> float:
        return (
            sum(v.share * (1.0 - normal_cdf(theta / v.sigma)) for v in views)
            - alpha
        )

    caps = {v.label: (2.0 * config.reward / v.cost) ** 0.5 for v in views}

    def at_cap(theta: float) -> float:
        return (
            sum(
                v.share * (1.0 - normal_cdf((theta - caps[v.label]) / v.sigma))
                for v in views
            )
            - alpha
        )

    seeds = [v.sigma * q for v in views]
    theta_lo = _decreasing_root(at_zero, min(seeds), max(seeds) + 1e-9, cfg)
    seeds = [caps[v.label] + v.sigma * q for v in views]
    theta_hi = _decreasing_root(at_cap, min(seeds), max(seeds) + 1e-9, cfg)
    return theta_lo, theta_hi


def _pure_outcomes(
    theta: float,
    views: tuple[GroupView, ...],
    infos: dict[str, DropoutInfo],
    config: GameConfig,
    cfg: RootConfig | None,
) -> tuple[GroupOutcome, ...]:
    outcomes = []
    for view in views:
        e_lo, e_hi = _effort_pair(theta, view, infos.get(view.label), config.reward, cfg)
        if e_lo != e_hi:
            # Borderline dropout hit: keep the side that serves the budget best.
            others = 0.0
            for o in views:
                if o.label == view.label:
                    continue
                effort_o = _effort_pair(theta, o, infos.get(o.label), config.reward, cfg)[0]
                others += o.share * normal_cdf((effort_o - theta) / o.sigma)
            err_lo = abs(others + view.share * normal_cdf((e_lo - theta) / view.sigma) - config.alpha)
            err_hi = abs(others + view.share * normal_cdf((e_hi - theta) / view.sigma) - config.alpha)
            effort = e_lo if err_lo <= err_hi else e_hi
        else:
            effort = e_lo
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
    infos: dict[str, DropoutInfo],
    config: GameConfig,
    cfg: RootConfig | None,
) -> tuple[tuple[GroupOutcome, ...], str]:
    """Outcomes when the budget pins the threshold on dropout(s) at ``theta``."""
    reward, alpha = config.reward, config.alpha
    rate = {}
    for view in views:
        e_lo, e_hi = _effort_pair(theta, view, infos.get(view.label), reward, cfg)
        rate[view.label] = (
            normal_cdf((e_lo - theta) / view.sigma),
            normal_cdf((e_hi - theta) / view.sigma),
            e_lo,
            e_hi,
        )

    def gap(view: GroupView) -> float:
        lo, hi, _, _ = rate[view.label]
        return hi - lo

    mixer = max(hit, key=gap)  # ties resolved by max(): first wins on equality
    if len(hit) > 1:
        warnings.warn(
            f"dropout thresholds of {[v.label for v in hit]} coincide at "
            f"{theta!r}; assigning the mixed strategy to {mixer.label!r}",
            RuntimeWarning,
            stacklevel=3,
        )
    others_hit = [v for v in hit if v.label != mixer.label]
    smooth = [v for v in views if v.label != mixer.label and v not in others_hit]
    base = sum(v.share * rate[v.label][0] for v in smooth)

    x_lo, x_hi, e_lo, e_hi = rate[mixer.label]
    if x_hi - x_lo <= 0.0:
        raise SolverError(f"degenerate mixing interval for group {mixer.label!r}")

    chosen_sides = None
    tau = None
    # Coinciding dropouts are not covered by the theory; park the other hit
    # groups on one side each, preferring low effort, until a feasible
    # mixing weight exists.
    for sides in itertools.product((0, 1), repeat=len(others_hit)):
        mass = base + sum(
            v.share * rate[v.label][side] for v, side in zip(others_hit, sides)
        )
        candidate = (alpha - mass - mixer.share * x_lo) / (
            mixer.share * (x_hi - x_lo)
        )
        if -TAU_SLACK <= candidate <= 1.0 + TAU_SLACK:
            chosen_sides = sides
            tau = candidate
            break
    if tau is None:
        raise SolverError(
            f"no feasible mixing weight at pinned threshold {theta!r}"
        )
    tau = min(max(tau, 0.0), 1.0)

    side_of = {
        v.label: side for v, side in zip(others_hit, chosen_sides or ())
    }
    outcomes = []
    for view in views:
        x_l, x_h, m_l, m_h = rate[view.label]
        if view.label == mixer.label:
            if tau == 0.0:
                strategy = EffortDistribution.point(m_l)
            elif tau == 1.0:
                strategy = EffortDistribution.point(m_h)
            else:
                strategy = EffortDistribution.mixture(
                    ((m_l, 1.0 - tau), (m_h, tau))
                )
            outcomes.append(
                GroupOutcome(
                    label=view.label,
                    threshold=theta,
                    strategy=strategy,
                    avg_effort=strategy.mean(),
                    selection_rate=(1.0 - tau) * x_l + tau * x_h,
                    tau=tau,
                )
            )
        else:
            side = side_of.get(view.label, 0)
            effort = (m_l, m_h)[side]
            strategy = EffortDistribution.point(effort)
            outcomes.append(
                GroupOutcome(
                    label=view.label,
                    threshold=theta,
                    strategy=strategy,
                    avg_effort=effort,
                    selection_rate=(x_l, x_h)[side],
                )
            )
    return tuple(outcomes), mixer.label


def _smooth_theta(
    lo: float,
    hi: float,
    views: tuple[GroupView, ...],
    infos: dict[str, DropoutInfo],
    config: GameConfig,
    cfg: RootConfig | None,
) -> float:
    """Bisection on the selected mass over an interval free of dropout jumps.

    The signs at the (never evaluated) endpoints are known: mass > alpha just
    above ``lo`` and < alpha just below ``hi``.
    """
    reward, alpha = config.reward, config.alpha
    a, b = lo, hi
    for _ in range(256):
        if b - a <= _THETA_WIDTH_REL * max(1.0, abs(a), abs(b)):
            break
        mid = 0.5 * (a + b)
        m_lo, m_hi = _mass_interval(mid, views, infos, reward, cfg)
        if 0.5 * (m_lo + m_hi) > alpha:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def solve_unconstrained(
    config: GameConfig,
    bracket: tuple[float, float] | None = None,
    cfg: RootConfig | None = None,
    *,
    dropouts: DropoutMemo | None = None,
) -> EquilibriumReport:
    """Unique Nash equilibrium of the unconstrained selection game.

    ``bracket`` may narrow the search interval; it must still contain the
    equilibrium threshold.  ``dropouts`` is a memo of dropout thresholds to
    read and fill, shared across solves; ``None`` starts a fresh one.
    """
    problems = solver_violations(config)
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))
    views = effective_groups(config)
    reward, alpha = config.reward, config.alpha
    infos = _dropout_infos(views, reward, cfg, dropouts)
    theta_lo, theta_hi = bracket if bracket is not None else solver_bracket(config, cfg)

    events: list[tuple[float, list[GroupView]]] = []
    for view in views:
        info = infos.get(view.label)
        if info is None or not theta_lo < info.theta_d < theta_hi:
            continue
        merged = False
        for theta_d, group_list in events:
            if abs(info.theta_d - theta_d) <= DROPOUT_MATCH_REL * max(
                1.0, abs(theta_d)
            ):
                group_list.append(view)
                merged = True
                break
        if not merged:
            events.append((info.theta_d, [view]))
    events.sort(key=lambda item: item[0])

    lo = theta_lo
    pinned: tuple[float, list[GroupView]] | None = None
    segment_hi = theta_hi
    for theta_d, group_list in events:
        m_lo, m_hi = _mass_interval(theta_d, views, infos, reward, cfg)
        if alpha > m_hi:
            segment_hi = theta_d
            break
        if m_lo <= alpha <= m_hi:
            pinned = (theta_d, group_list)
            break
        lo = theta_d

    if pinned is not None:
        theta, group_list = pinned
        outcomes, _ = _pinned_outcomes(
            theta, group_list, views, infos, config, cfg
        )
        regime = "dropout_pinned"
    else:
        theta = _smooth_theta(lo, segment_hi, views, infos, config, cfg)
        outcomes = _pure_outcomes(theta, views, infos, config, cfg)
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
    config: GameConfig,
    cfg: RootConfig | None = None,
    *,
    dropouts: DropoutMemo | None = None,
) -> EquilibriumReport:
    """Equilibrium when every group is selected at rate alpha.

    The parity constraint removes cross-group competition, so each group is
    solved as a stand-alone population of mass one facing the same reward
    and selection size.  Every subgame shares the ``dropouts`` memo (see
    :func:`solve_unconstrained`).
    """
    problems = solver_violations(config)
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))
    views = effective_groups(config)
    dropouts = {} if dropouts is None else dropouts
    outcomes = []
    for params in config.groups:
        sub = GameConfig(
            reward=config.reward,
            alpha=config.alpha,
            eta_sq=config.eta_sq,
            groups=(replace(params, share=1.0),),
            dm_mode=config.dm_mode,
        )
        sub_report = solve_unconstrained(sub, cfg=cfg, dropouts=dropouts)
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
