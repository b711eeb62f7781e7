"""Candidate-side analysis: payoff shape, stationary points, best responses
and the dropout threshold, all read off one response curve per group.

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
decreasing in the threshold, which pins down a unique dropout threshold
``t_d`` where a low and a high effort tie; above it the candidate gives up.

A :class:`ResponseCurve` holds what depends on ``(C, s, S)`` alone: the
window and, from the first threshold inside it, the dropout.  Inside the
window a best response then solves only the maximum that wins, the high one
below ``t_d`` and the low one above.  By the envelope theorem the gap falls
at rate ``r = (S/s) * (phi(z_high) - phi(z_low))`` at ``t_d``, so the tie
test ``|gap| <= PAYOFF_TIE_REL * S`` fires only within
``PAYOFF_TIE_REL * S / r`` of ``t_d``.  A band ``TIE_BAND`` times wider keeps
the three-root solve and the tie test; it covers every tie while the rate
changes by less than that factor across it.  Roots are solved on the same
brackets on both paths, so a best response is the same double.  A curve also
remembers its last two evaluations, as a Brent search ends on one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kernel import (
    _BRANCH_POINT,
    _INV_SQRT_2PI,
    NoBracket,
    NoConvergence,
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
    "ResponseCurve",
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

# Tie band half-width, in units of the widest offset where the tie test fires.
TIE_BAND = 1e3

# Window narrower than this means the two maxima have numerically merged.
DEGENERATE_WINDOW = 1e-9


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
    # theta = v(z) / C at both turning points.
    theta1, theta2 = (
        ((reward / group.sigma) * normal_pdf(z) - group.cost * group.sigma * z) / group.cost
        for z in (z1, z2)
    )
    return z1, z2, theta1, theta2


def _recall(memo: list, solve, theta: float):
    """``solve(theta)``, unless one of the last two thresholds was ``theta``."""
    for key, value in memo:
        if key == theta:
            return value
    value = solve(theta)
    memo[:] = [*memo[-1:], (theta, value)]
    return value


class ResponseCurve:
    """Stationary points, best responses and the dropout of one group at one
    reward; ``window`` is :func:`foc_window`'s, None when missing or degenerate."""

    def __init__(self, group: GroupView, reward: float) -> None:
        if not reward > 0.0:
            raise ValueError(f"reward must be positive, got {reward!r}")
        self.group, self.reward = group, reward
        self.sigma, self.cost = sigma, cost = group.sigma, group.cost
        self.cap = reward * normal_pdf(0.0) / (cost * sigma) + 1.0
        self.slope = reward / sigma  # du/dm = slope * phi(z) - cost * m
        self.bend = reward / sigma**2
        win = foc_window(group, reward)
        if win is not None and win[3] - win[2] < DEGENERATE_WINDOW * max(1.0, abs(win[3])):
            win = None
        self.window = win
        if win is not None:
            # Thresholds strictly between these have three stationary points.
            edge = 1e-9 * max(1.0, abs(win[2]), abs(win[3]))
            self.inner = (win[2] + edge, win[3] - edge)
        self.info: DropoutInfo | None = None
        self.band: tuple[float, float] | None = None
        self._points: list = []
        self._responses: list = []

    def _root(self, theta: float, lo: float, hi: float) -> float:
        sigma, cost, slope, bend = self.sigma, self.cost, self.slope, self.bend

        def f(m: float) -> float:
            z = (theta - m) / sigma
            return slope * (_INV_SQRT_2PI * math.exp(-0.5 * z * z)) - cost * m

        m = find_root(f, lo, hi)
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

    def stationary_points(self, theta: float) -> StationaryPoints:
        """All stationary points of the payoff at threshold ``theta``."""
        return _recall(self._points, self._stationary_points, theta)

    def _stationary_points(self, theta: float) -> StationaryPoints:
        if self.window is None:
            return StationaryPoints(((self._root(theta, 0.0, self.cap), "local_max"),))
        z1, z2, _, _ = self.window
        m_z1 = theta + self.sigma * z1
        m_z2 = theta + self.sigma * z2
        if not self.inner[0] < theta < self.inner[1]:
            # On or past a window edge: the one maximum on its side.
            lo, hi = (max(m_z2, 0.0), self.cap) if theta <= self.inner[0] else (0.0, m_z1)
            m = self._root(theta, lo, hi)
            return StationaryPoints(((m, "local_max"),), z_brackets=(z1, z2))
        low = self._root(theta, 0.0, m_z1)
        mid = self._root(theta, m_z1, m_z2)
        high = self._root(theta, m_z2, self.cap)
        return StationaryPoints(
            ((low, "local_max"), (mid, "local_min"), (high, "local_max")),
            z_brackets=(z1, z2),
        )

    def best_response(self, theta: float) -> tuple[float, ...]:
        """Globally optimal effort(s) at threshold ``theta``, ascending.

        The result has two elements only when the two local maxima tie within
        ``PAYOFF_TIE_REL * reward`` — i.e. at the dropout threshold.
        """
        return _recall(self._responses, self._best_response, theta)

    def _best_response(self, theta: float) -> tuple[float, ...]:
        if self.window is not None and self.inner[0] < theta < self.inner[1]:
            band_lo, band_hi = self._tie_band()
            if theta < band_lo:  # the high maximum wins: solve it on [m_z2, cap]
                return (self._root(theta, theta + self.sigma * self.window[1], self.cap),)
            if theta > band_hi:  # the low maximum wins: solve it on [0, m_z1]
                return (self._root(theta, 0.0, theta + self.sigma * self.window[0]),)
        return self._compare_maxima(theta)

    def _compare_maxima(self, theta: float) -> tuple[float, ...]:
        maxima = self.stationary_points(theta).maxima
        if len(maxima) == 1:
            return maxima
        u_low = payoff(maxima[0], theta, self.group, self.reward)
        u_high = payoff(maxima[-1], theta, self.group, self.reward)
        if abs(u_high - u_low) <= PAYOFF_TIE_REL * self.reward:
            return (maxima[0], maxima[-1])
        return (maxima[-1],) if u_high > u_low else (maxima[0],)

    def _tie_band(self) -> tuple[float, float]:
        """Thresholds around the dropout that keep the three-root path."""
        if self.band is None:
            try:
                info = self.dropout()
                slope_d = self.slope * (
                    normal_pdf((info.br_max - info.theta_d) / self.sigma)
                    - normal_pdf((info.br_min - info.theta_d) / self.sigma)
                )
                half = TIE_BAND * PAYOFF_TIE_REL * self.reward / abs(slope_d)
                self.band = (info.theta_d - half, info.theta_d + half)
            except (ZeroDivisionError, NoBracket, NoConvergence):
                self.band = (-math.inf, math.inf)
        return self.band

    def dropout(self) -> DropoutInfo:
        """The threshold where the two payoff maxima tie, searched once.

        Brent's method on the (strictly decreasing) payoff gap between the
        high and low maximum over the three-root window, to within a few ulps
        of the window's upper edge.  Raises :class:`SubcriticalReward` when
        no window exists or it has degenerated.
        """
        if self.info is not None:
            return self.info
        group, reward = self.group, self.reward
        if self.window is None:
            raise SubcriticalReward(
                f"reward {reward!r} gives group {group.label!r} no three-root "
                f"window (critical reward {critical_reward(group)!r})"
            )
        z1, z2, theta1, theta2 = self.window
        sigma = self.sigma

        def gap(theta: float) -> float:
            maxima = self.stationary_points(theta).maxima
            if len(maxima) == 1:
                # On a window edge one maximum has merged into the minimum, at
                # the turning point z1 (lower edge) or z2 (upper edge); that
                # degenerate stationary point stands in for it.
                if maxima[0] > theta + sigma * 0.5 * (z1 + z2):
                    maxima = (theta + sigma * z1, maxima[0])
                else:
                    maxima = (maxima[0], theta + sigma * z2)
            return payoff(maxima[-1], theta, group, reward) - payoff(
                maxima[0], theta, group, reward
            )

        # gap(theta1) > 0 > gap(theta2).  The tolerance is a few ulps of the
        # window's upper edge, near Brent's own floor: that edge can sit far
        # above the dropout (it grows like S * phi(0) / (C * sigma)), and the
        # tie is only as tight as the threshold.
        xtol = 1e-15 * max(1.0, abs(theta2))
        theta_d = find_root_seeded(gap, theta1, theta2, gap(theta1), gap(theta2), xtol)

        # Brent ends on a threshold it has just evaluated: a remembered one.
        maxima = self.stationary_points(theta_d).maxima
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
        self.info = DropoutInfo(
            theta_d=theta_d,
            br_min=br_min,
            br_max=br_max,
            window=(theta1, theta2),
            payoff_at_dropout=0.5 * (u_min + u_max),
        )
        return self.info


def stationary_points(theta: float, group: GroupView, reward: float) -> StationaryPoints:
    """All stationary points of the payoff at threshold ``theta``."""
    return ResponseCurve(group, reward).stationary_points(theta)


def best_response(theta: float, group: GroupView, reward: float) -> tuple[float, ...]:
    """:meth:`ResponseCurve.best_response` for one threshold: every
    stationary point is solved, since one call cannot repay a dropout search."""
    return ResponseCurve(group, reward)._compare_maxima(theta)


def dropout_threshold(group: GroupView, reward: float) -> DropoutInfo:
    """:meth:`ResponseCurve.dropout` of a fresh curve."""
    return ResponseCurve(group, reward).dropout()
