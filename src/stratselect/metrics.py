"""Equilibrium summary statistics and closed-form predictions.

Selection quality is the expected latent quality mass of the selected
cohort.  For a decision statistic with spread ``s`` and covariance ``c``
with the latent quality, a group playing effort ``m`` against threshold
``t`` contributes

    m * Phi((m - t) / s) + (c / s) * phi((t - m) / s)

per unit of mass.  When the statistic is the posterior mean, ``c = s**2``
and this is the plain truncated-normal mean ``m * Phi + s * phi``; ranking
by the raw noisy estimate keeps ``c`` at the latent variance, which shrinks
the tail term.  The large-reward limits (rate/effort ratios,
parity-vs-unconstrained comparisons, quality ratio) and the small-reward
crossing points (where the two groups' efforts or selection rates coincide)
are evaluated directly from their closed forms, on groups already resolved
into ``GroupView``s, such as a ``Game``'s ``views``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .best_response import critical_reward
from .kernel import lambert_w, normal_cdf, normal_pdf
from .model import EffortDistribution, EquilibriumReport, GroupOutcome, GroupView

__all__ = [
    "NotTwoGroups",
    "AmbiguousRegime",
    "DegenerateVariance",
    "SubcriticalityViolated",
    "AsymptoticPrediction",
    "SmallSCrossings",
    "selection_rate",
    "selection_quality",
    "quality_from_outcomes",
    "ordered_pair",
    "asymptotic_predictions",
    "small_s_crossings",
]


class NotTwoGroups(ValueError):
    """The closed forms compare exactly two groups."""


class AmbiguousRegime(ValueError):
    """Fully symmetric groups: every predicted ratio would be 1."""


class DegenerateVariance(ValueError):
    """Equal decision-statistic spreads make the crossing formulas divide by zero."""


class SubcriticalityViolated(ValueError):
    """A group's reward is large enough to create a dropout threshold."""


def selection_rate(
    strategy: EffortDistribution, theta: float, group: GroupView
) -> float:
    """Probability that a candidate playing ``strategy`` clears ``theta``."""
    # Left to right from 0, the same double as ``sum`` on Python 3.11.
    rate = 0
    for m, w in strategy.support:
        rate += w * normal_cdf((m - theta) / group.sigma)
    return rate


def quality_from_outcomes(
    views: tuple[GroupView, ...], outcomes: tuple[GroupOutcome, ...]
) -> float:
    """Population-weighted expected latent quality of the selected cohort."""
    q = 0.0
    for view, outcome in zip(views, outcomes):
        theta = outcome.threshold
        tail_scale = view.latent_stat_cov / view.sigma
        for m, w in outcome.strategy.support:
            z = (m - theta) / view.sigma
            q += view.share * w * (
                m * normal_cdf(z) + tail_scale * normal_pdf(-z)
            )
    return q


def selection_quality(report: EquilibriumReport, views: tuple[GroupView, ...]) -> float:
    """Expected latent quality of the selected cohort of a solved game."""
    by_label = {v.label: v for v in views}
    ordered = tuple(by_label[o.label] for o in report.outcomes)
    return quality_from_outcomes(ordered, report.outcomes)


def ordered_pair(views: tuple[GroupView, ...]) -> tuple[GroupView, GroupView]:
    """The two groups ordered so the first has the (asymptotically) larger
    dropout threshold: lower cost wins, ties broken by smaller spread."""
    if len(views) != 2:
        raise NotTwoGroups(f"expected exactly 2 groups, got {len(views)}")
    a, b = views
    if (a.cost, a.sigma) <= (b.cost, b.sigma):
        return a, b
    return b, a


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Large-reward limits for a two-group game.

    Ratios are oriented as ``other / dominant`` where the dominant group is
    the one whose dropout threshold wins for large rewards.
    """

    regime: str  # "equal_cost" or "cost_gap"
    dominant_label: str
    other_label: str
    predicted_rate_ratio: float
    predicted_effort_ratio: float
    predicted_quality_ratio: float
    dp_effort_ratio: float
    comparison_ratios: dict[str, float]


def asymptotic_predictions(views: tuple[GroupView, ...], alpha: float) -> AsymptoticPrediction:
    """Evaluate every large-reward closed form for a two-group game."""
    g1, g2 = ordered_pair(views)
    if g1.cost == g2.cost and g1.sigma == g2.sigma:
        raise AmbiguousRegime("groups are fully symmetric; all limit ratios equal 1")
    p1 = g1.share

    rate_ratio = 0.0 if alpha <= p1 else (alpha - p1) / (1.0 - p1)
    # The dominant group's dropout grows like sqrt(2 S / cost), hence the
    # cost-ratio square roots below.
    c12 = math.sqrt(g1.cost / g2.cost)

    if g1.cost == g2.cost:
        regime = "equal_cost"
        quality_ratio = 1.0
    else:
        regime = "cost_gap"
        # g1 is the cost-advantaged group here.
        c = c12
        denom = c * g2.share + g1.share
        quality_ratio = 1.0 / denom if p1 >= alpha else c / denom

    comparison = {
        g1.label: (1.0 / p1) if alpha <= p1 else c12 / alpha,
        g2.label: 0.0 if alpha <= p1 else (alpha - p1) / (alpha * (1.0 - p1)),
    }
    return AsymptoticPrediction(
        regime=regime,
        dominant_label=g1.label,
        other_label=g2.label,
        predicted_rate_ratio=rate_ratio,
        predicted_effort_ratio=rate_ratio,
        predicted_quality_ratio=quality_ratio,
        dp_effort_ratio=c12,
        comparison_ratios=comparison,
    )


@dataclass(frozen=True)
class SmallSCrossings:
    """Closed-form crossing points in the subcritical (small reward) regime.

    ``k_mu`` is None (and ``alpha_effort_cross`` empty) when the equal-effort
    equation has no real solution; then the low-spread group exerts less
    effort at every selection size.
    """

    k_mu: float | None
    k_x: float
    xi: float
    alpha_effort_cross: tuple[float, float] | None
    alpha_rate_cross: float


def small_s_crossings(views: tuple[GroupView, ...], reward: float) -> SmallSCrossings:
    """Crossing selection sizes for a two-group subcritical game."""
    a, b = ordered_pair(views)  # NotTwoGroups unless there are two
    for v in views:
        if reward >= critical_reward(v):
            raise SubcriticalityViolated(
                f"group {v.label!r} is supercritical: reward {reward!r} "
                f">= {critical_reward(v)!r}"
            )
    if a.sigma == b.sigma:
        raise DegenerateVariance(
            "equal decision-statistic spreads: crossing formulas are undefined"
        )
    # h: smaller spread (effectively high estimate noise), l: larger spread.
    h, l = (a, b) if a.sigma < b.sigma else (b, a)

    xi = reward * (1.0 / (h.cost * h.sigma) - 1.0 / (l.cost * l.sigma)) / (
        l.sigma - h.sigma
    )
    k_x = math.sqrt(lambert_w("principal", xi * xi / (2.0 * math.pi)))
    alpha_rate_cross = 1.0 - normal_cdf(math.copysign(k_x, xi))

    log_ratio = math.log((h.cost * h.sigma) / (l.cost * l.sigma))
    if log_ratio > 0.0:  # k_mu**2 = -2 * log_ratio / denom < 0, as denom >= 0
        return SmallSCrossings(None, k_x, xi, None, alpha_rate_cross)
    denom = 1.0 / h.sigma**2 - 1.0 / l.sigma**2
    if denom >= sys.float_info.min and -2.0 * log_ratio / denom < math.inf:
        k_mu = math.sqrt(-2.0 * log_ratio / denom)
    else:  # denom is subnormal or k_mu**2 overflows: denom = gap / (h * l)**2
        gap = (l.sigma - h.sigma) * (l.sigma + h.sigma)
        k_mu = h.sigma * l.sigma * math.sqrt(-2.0 * log_ratio / gap)
    crossings = tuple(
        sorted(
            sum(v.share * (1.0 - normal_cdf(sign * k_mu / v.sigma)) for v in views)
            for sign in (1.0, -1.0)
        )
    )
    return SmallSCrossings(k_mu, k_x, xi, crossings, alpha_rate_cross)
