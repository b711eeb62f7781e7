"""Candidate-side analysis: payoff shape, stationary points, best responses
and the dropout threshold.

A candidate of a group with cost ``C`` and decision-statistic spread ``s``
who exerts effort ``m`` against a selection threshold ``t`` earns

    u(m; t) = S * Phi((m - t) / s) - C * m**2 / 2.

In the substitution ``z = (m - t) / s`` the stationary points of ``u`` solve
``v(z) = C * t`` with ``v(z) = (S / s) * phi(z) - C * s * z``.  ``v`` is
strictly decreasing when ``S < C * s**2 / phi(1)`` (a single optimum for any
threshold); above that reward ``v`` turns around at

    z_{1,2} = -sqrt(-W_{-1,0}(-2 * pi * C**2 * s**4 / S**2))

and thresholds inside ``(v(z1)/C, v(z2)/C)`` admit three stationary points in
a max/min/max pattern.  The payoff gap between the outer maxima is strictly
decreasing in the threshold, which pins down a unique dropout threshold where
a low and a high effort tie; above it the candidate gives up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kernel import (
    _INV_SQRT_2PI,
    NoConvergence,
    RootConfig,
    find_root,
    find_root_seeded,
    lambert_w,
    normal_cdf,
    normal_pdf,
)
from .model import GroupView

__all__ = [
    "SubcriticalReward",
    "StationaryPoints",
    "DropoutInfo",
    "critical_reward",
    "foc_window",
    "selection_probability",
    "payoff",
    "stationary_points",
    "best_response",
    "dropout_threshold",
]

# 1 / phi(1): rewards below cost * sigma**2 times this have a unique optimum.
CRITICAL_REWARD_FACTOR = math.sqrt(2.0 * math.pi * math.e)

# Two maxima closer than this (relative to S) count as tied: the dropout case.
PAYOFF_TIE_REL = 1e-9

# Window narrower than this means the two maxima have numerically merged.
DEGENERATE_WINDOW = 1e-9

_BRANCH_POINT = -math.exp(-1.0)


class SubcriticalReward(ValueError):
    """The reward is too small for a dropout threshold to exist."""


@dataclass(frozen=True)
class StationaryPoints:
    """Stationary points of the payoff, ascending, each tagged as a local
    max or min; ``z_brackets`` carries the z-space turning points when the
    three-root window exists."""

    points: tuple[tuple[float, str], ...]
    z_brackets: tuple[float, float] | None = None

    @property
    def maxima(self) -> tuple[float, ...]:
        return tuple(m for m, kind in self.points if kind == "local_max")


@dataclass(frozen=True)
class DropoutInfo:
    """The threshold where the low- and high-effort optima earn the same
    payoff, with both tied best responses and the window that brackets it."""

    theta_d: float
    br_min: float
    br_max: float
    window: tuple[float, float]
    payoff_at_dropout: float


def critical_reward(group: GroupView) -> float:
    """Smallest reward at which the payoff can have two maxima."""
    return group.cost * group.sigma**2 * CRITICAL_REWARD_FACTOR


def selection_probability(m: float, theta: float, sigma: float) -> float:
    """Probability of clearing threshold ``theta`` with effort ``m``."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    return normal_cdf((m - theta) / sigma)


def payoff(m: float, theta: float, group: GroupView, reward: float) -> float:
    """Expected reward minus quadratic effort cost."""
    return (
        reward * normal_cdf((m - theta) / group.sigma)
        - 0.5 * group.cost * m * m
    )


def foc_window(
    group: GroupView, reward: float
) -> tuple[float, float, float, float] | None:
    """``(z1, z2, theta1, theta2)`` bounding the three-root region, or None
    when the reward is subcritical for this group."""
    ratio = group.cost * group.sigma**2 / reward
    arg = -2.0 * math.pi * ratio * ratio
    if arg < _BRANCH_POINT:
        return None
    z1 = -math.sqrt(-lambert_w("minus_one", arg))
    z2 = -math.sqrt(-lambert_w("principal", arg))
    theta1 = _v(z1, group, reward) / group.cost
    theta2 = _v(z2, group, reward) / group.cost
    return z1, z2, theta1, theta2


def _v(z: float, group: GroupView, reward: float) -> float:
    return (reward / group.sigma) * normal_pdf(z) - group.cost * group.sigma * z


def stationary_points(
    theta: float,
    group: GroupView,
    reward: float,
    cfg: RootConfig | None = None,
) -> StationaryPoints:
    """All stationary points of the payoff at threshold ``theta``."""
    if not reward > 0.0:
        raise ValueError(f"reward must be positive, got {reward!r}")
    sigma, cost = group.sigma, group.cost
    cap = reward * normal_pdf(0.0) / (cost * sigma) + 1.0
    slope = reward / sigma  # du/dm = slope * phi(z) - cost * m
    bend = reward / sigma**2

    def f(m: float) -> float:
        z = (theta - m) / sigma
        return slope * (_INV_SQRT_2PI * math.exp(-0.5 * z * z)) - cost * m

    def root(lo: float, hi: float) -> float:
        m = find_root(f, lo, hi, cfg)
        # Two guarded Newton steps push the FOC residual to machine level.
        for _ in range(2):
            z = (theta - m) / sigma
            pdf = _INV_SQRT_2PI * math.exp(-0.5 * z * z)
            deriv = bend * pdf * z - cost
            if deriv == 0.0:
                break
            candidate = m - (slope * pdf - cost * m) / deriv
            if not lo <= candidate <= hi:
                break
            m = candidate
        return m

    win = foc_window(group, reward)
    if win is not None:
        z1, z2, theta1, theta2 = win
        if theta2 - theta1 < DEGENERATE_WINDOW * max(1.0, abs(theta2)):
            win = None
    if win is None:
        return StationaryPoints(((root(0.0, cap), "local_max"),))

    z1, z2, theta1, theta2 = win
    edge = 1e-9 * max(1.0, abs(theta1), abs(theta2))
    m_z1 = theta + sigma * z1
    m_z2 = theta + sigma * z2
    if theta <= theta1 + edge:
        m = root(max(m_z2, 0.0), cap)
        return StationaryPoints(((m, "local_max"),), z_brackets=(z1, z2))
    if theta >= theta2 - edge:
        m = root(0.0, m_z1)
        return StationaryPoints(((m, "local_max"),), z_brackets=(z1, z2))

    low = root(0.0, m_z1)
    mid = root(m_z1, m_z2)
    high = root(m_z2, cap)
    return StationaryPoints(
        ((low, "local_max"), (mid, "local_min"), (high, "local_max")),
        z_brackets=(z1, z2),
    )


def best_response(
    theta: float,
    group: GroupView,
    reward: float,
    cfg: RootConfig | None = None,
) -> tuple[float, ...]:
    """Globally optimal effort(s) at threshold ``theta``, ascending.

    The result has two elements only when the two local maxima tie within
    ``PAYOFF_TIE_REL * reward`` — i.e. at the dropout threshold.
    """
    sp = stationary_points(theta, group, reward, cfg)
    maxima = sp.maxima
    if len(maxima) == 1:
        return maxima
    u_low = payoff(maxima[0], theta, group, reward)
    u_high = payoff(maxima[-1], theta, group, reward)
    if abs(u_high - u_low) <= PAYOFF_TIE_REL * reward:
        return (maxima[0], maxima[-1])
    return (maxima[-1],) if u_high > u_low else (maxima[0],)


def dropout_threshold(
    group: GroupView,
    reward: float,
    cfg: RootConfig | None = None,
) -> DropoutInfo:
    """Locate the unique threshold where the two payoff maxima tie.

    Brent's method on the (strictly decreasing) payoff gap between the high
    and low maximum over the three-root window, to within a few ulps of the
    window's upper edge.  Raises :class:`SubcriticalReward` when no window
    exists or it has degenerated.
    """
    win = foc_window(group, reward)
    if win is None:
        raise SubcriticalReward(
            f"reward {reward!r} is below the critical reward "
            f"{critical_reward(group)!r} for group {group.label!r}"
        )
    z1, z2, theta1, theta2 = win
    if theta2 - theta1 < DEGENERATE_WINDOW * max(1.0, abs(theta2)):
        raise SubcriticalReward(
            f"three-root window ({theta1!r}, {theta2!r}) for group "
            f"{group.label!r} is numerically degenerate"
        )

    def gap(theta: float) -> float:
        maxima = stationary_points(theta, group, reward, cfg).maxima
        if len(maxima) == 1:
            # On a window edge one maximum has merged into the minimum, at
            # the turning point z1 (lower edge) or z2 (upper edge); that
            # degenerate stationary point stands in for it.
            if maxima[0] > theta + group.sigma * 0.5 * (z1 + z2):
                maxima = (theta + group.sigma * z1, maxima[0])
            else:
                maxima = (maxima[0], theta + group.sigma * z2)
        return payoff(maxima[-1], theta, group, reward) - payoff(
            maxima[0], theta, group, reward
        )

    # gap(theta1) > 0 > gap(theta2).  The tolerance is a few ulps of the
    # window's upper edge, near Brent's own floor: that edge can sit far
    # above the dropout (it grows like S * phi(0) / (C * sigma)), and the
    # tie is only as tight as the threshold.
    xtol = 1e-15 * max(1.0, abs(theta2))
    theta_d = find_root_seeded(gap, theta1, theta2, gap(theta1), gap(theta2), xtol)

    maxima = stationary_points(theta_d, group, reward, cfg).maxima
    if len(maxima) != 2:
        raise NoConvergence(
            f"dropout search for group {group.label!r} did not resolve two maxima"
        )
    br_min, br_max = maxima
    u_min = payoff(br_min, theta_d, group, reward)
    u_max = payoff(br_max, theta_d, group, reward)
    if abs(u_max - u_min) > 1e-9 * reward:
        raise NoConvergence(
            f"payoffs at dropout differ by {abs(u_max - u_min)!r} "
            f"(> 1e-9 * reward) for group {group.label!r}"
        )
    return DropoutInfo(
        theta_d=theta_d,
        br_min=br_min,
        br_max=br_max,
        window=(theta1, theta2),
        payoff_at_dropout=0.5 * (u_min + u_max),
    )
