"""Candidate-side analysis in scaled units: stationary points, best responses
and the dropout threshold, all read off one response curve per group.

A candidate of a group with cost ``C`` and decision-statistic spread ``s``
who exerts effort ``m`` against a selection threshold ``t`` earns
``S * Phi((m - t) / s) - C * m**2 / 2``.  In the scaled variables

    eps = C * s**2 / S,   tau = t / s,   mu = m / s,   z = mu - tau

the payoff is ``S * (Phi(z) - eps * mu**2 / 2)``, a function of ``eps``
alone.  Stationary points solve ``g = phi(z) - eps * mu = 0`` (slope ``-z *
phi(z) - eps`` at fixed ``tau``) and lie on ``tau = phi(z) / eps - z``, which
for ``eps < phi(1)`` turns around where ``z * phi(z) = -eps``:

    z_{1,2} = -sqrt(-W_{-1,0}(-2 * pi * eps**2)),   tau_i = -1/z_i - z_i.

Thresholds inside ``(tau1, tau2)`` have a low maximum (``z < z1``, so
``mu = phi(z) / eps < -1/z1``), a minimum and a high maximum (``z > z2``).
The payoff gap between the maxima falls in ``tau`` at rate ``phi(z_high) -
phi(z_low)`` (envelope theorem); its zero is the dropout ``tau_d(eps)``.

A :class:`ResponseCurve` holds ``eps``, ``s``, the window and the dropout,
searched when the curve is made.  It converts units only at its boundary:
``tau = t / s`` in, ``m = s * mu`` out.  A root is bracketed in ``mu`` where
``mu`` can be tiny next to ``tau`` (the low maximum, and the one maximum
outside the window), and in ``z`` where ``mu - tau`` would cancel (the
minimum and the high maximum).  Each root is :func:`kernel.find_root`,
Newton's method safeguarded by the bracket, on ``g`` (on ``-g`` for the
minimum, where ``g`` rises).  It converges from any start in the bracket;
the start is a speed hint, a fixed point of the bracket from which ``g'' =
(z**2 - 1) * phi(z)`` keeps one sign up to the root, so the steps approach
it from one side: ``mu = 0`` for the low maximum (``z < z1 < -1``), the
inflection point ``z = 1`` for the high one (``z > z2 > -1``, ``mu = 0``
where that is higher) and ``z = -1`` for the minimum.  So a root depends on
``eps``, ``tau`` and its bracket alone, never on earlier calls.

The dropout tie is one more :func:`find_root` equation, in ``tau``: the
payoff gap at the two maxima, whose closed-form slope folds in the maxima's
own Newton steps.  Each evaluation predicts both maxima at its Newton step,
so the search solves them only at its start, ``min(sqrt(2 / eps),
midpoint)``, and where it bisects; ``tau_d`` too depends on ``eps`` alone,
and the tied pair is held to the same tie test as a best response.

A best response is one dispatch on ``tau``, which solves one root outside
the tie band: with no window, the one maximum on ``[0, cap]``; on or below
the window's lower inner edge, the high maximum on its ``mu`` bracket; before
the band, the high maximum on its ``z`` bracket; on or above the upper edge,
or past the band, the low maximum; inside the band, both maxima, compared by
the tie test ``|gap| <= PAYOFF_TIE_REL``.  That test fires only within
``PAYOFF_TIE_REL / |phi(z_high) - phi(z_low)|`` of ``tau_d``, and the band
is ``TIE_BAND`` times wider.  :meth:`ResponseCurve.stationary_points` is the
same dispatch outside the window's interior and solves the low maximum, the
minimum and the high maximum inside it.  A maximum inside the window is
solved on the same bracket whichever branch asks, so a best response is the
same double.  A failed dropout search raises from the constructor; after it
a curve changes no attribute, so solves may share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kernel import (
    _BRANCH_POINT,
    _INV_SQRT_2PI,
    NoConvergence,
    find_root,
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
    "payoff",
    "stationary_points",
    "best_response",
    "dropout_threshold",
]

# 1 / phi(1): rewards below cost * sigma**2 times this have a unique optimum.
CRITICAL_REWARD_FACTOR = math.sqrt(2.0 * math.pi * math.e)

# Two maxima whose scaled payoffs (payoff / S) differ by at most this tie:
# the dropout case.
PAYOFF_TIE_REL = 1e-9

# Tie band half-width, in units of the widest offset where the tie test fires.
TIE_BAND = 1e3

# Thresholds within this (relative) of a window edge are treated as on it; a
# window whose edges are that close has numerically merged into one point.
DEGENERATE_WINDOW = 1e-9


class SubcriticalReward(ValueError):
    """The reward is too small for a dropout threshold to exist."""


@dataclass(frozen=True)
class StationaryPoints:
    """Stationary points of the payoff, ascending, each tagged as a local
    max or min."""

    points: tuple[tuple[float, str], ...]

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


def payoff(m: float, theta: float, group: GroupView, reward: float) -> float:
    """Expected reward minus quadratic effort cost."""
    return (
        reward * normal_cdf((m - theta) / group.sigma)
        - 0.5 * group.cost * m * m
    )


def _eps(group: GroupView, reward: float) -> float:
    """``C * s**2 / S``, with ``s * s`` as ``s**2`` is not always correctly
    rounded: scaling ``s`` by a power of two must scale ``eps`` exactly."""
    return group.cost * group.sigma * group.sigma / reward


def _turning_points(eps: float) -> tuple[float, float, float, float] | None:
    """``(z1, z2, tau1, tau2)``: where ``z * phi(z) = -eps`` and the
    thresholds there, or None when ``eps >= phi(1)``."""
    arg = -2.0 * math.pi * eps * eps
    if arg < _BRANCH_POINT:
        return None
    z1 = -math.sqrt(-lambert_w("minus_one", arg))
    z2 = -math.sqrt(-lambert_w("principal", arg))
    return z1, z2, -1.0 / z1 - z1, -1.0 / z2 - z2


def foc_window(
    group: GroupView, reward: float
) -> tuple[float, float, float, float] | None:
    """``(z1, z2, theta1, theta2)`` bounding the three-root region, or None
    when the reward is subcritical for this group."""
    window = _turning_points(_eps(group, reward))
    if window is None:
        return None
    z1, z2, tau1, tau2 = window
    return z1, z2, group.sigma * tau1, group.sigma * tau2


class ResponseCurve:
    """Stationary points, best responses and the dropout of one group at one
    reward.  ``window`` is ``(z1, z2, tau1, tau2)`` in scaled units, None when
    missing or degenerate; ``inner`` and ``band`` are in ``tau``.  ``info``
    and ``band`` are None exactly when ``window`` is."""

    def __init__(self, group: GroupView, reward: float) -> None:
        if not reward > 0.0:
            raise ValueError(f"reward must be positive, got {reward!r}")
        self.group, self.reward, self.sigma = group, reward, group.sigma
        self.eps = eps = _eps(group, reward)
        self.window = _turning_points(eps)
        if self.window is not None:
            z1, z2, tau1, tau2 = self.window
            # Thresholds strictly between these have three stationary points.
            self.inner = (tau1 * (1.0 + DEGENERATE_WINDOW), tau2 * (1.0 - DEGENERATE_WINDOW))
            if not self.inner[0] < self.inner[1]:
                self.window = None
            # Brackets of the low maximum, in mu, and of the high one, in z:
            # phi(z) < eps * mu where z >= z_top = sqrt(-2 log eps) and mu >= 1.
            # The last entry is where Newton starts: mu = 0 and z = 1.
            self.low = (0.0, -1.0 / z1, True, 0.0)
            self.high = (z2, math.sqrt(-2.0 * math.log(eps)), False, 1.0)
        self.info: DropoutInfo | None = None
        self.band: tuple[float, float] | None = None
        if self.window is not None:
            self._search_dropout()

    def _root(
        self, tau: float, lo: float, hi: float, in_mu: bool, start: float, falls: bool = True
    ) -> tuple[float, float]:
        """``(z, mu)`` of the stationary point on ``[lo, hi]``, an interval
        in ``x = mu`` when ``in_mu`` and in ``x = z`` otherwise, where ``g``
        changes sign once: from + to - when ``falls``, from - to + otherwise
        (the minimum, solved as the root of ``-g``).  Newton's method from
        ``start`` (:func:`find_root`)."""
        eps = self.eps
        dz, dmu = (-tau, 0.0) if in_mu else (0.0, tau)  # z = x + dz, mu = x + dmu
        sign = 1.0 if falls else -1.0

        def foc(x: float) -> tuple[float, float]:
            z = x + dz
            pdf = _INV_SQRT_2PI * math.exp(-0.5 * z * z)
            return sign * (pdf - eps * (x + dmu)), sign * (-z * pdf - eps)

        x = find_root(foc, lo, hi, start)
        return x + dz, x + dmu

    def _utility(self, point: tuple[float, float]) -> float:
        z, mu = point
        return normal_cdf(z) - 0.5 * self.eps * mu * mu

    def stationary_points(self, theta: float) -> StationaryPoints:
        """All stationary points of the payoff at threshold ``theta``."""
        points = self._stationary_points(theta / self.sigma)
        kinds = ("local_max",) if len(points) == 1 else ("local_max", "local_min", "local_max")
        return StationaryPoints(
            tuple((self.sigma * mu, kind) for (_, mu), kind in zip(points, kinds))
        )

    def _stationary_points(self, tau: float) -> tuple[tuple[float, float], ...]:
        if self.window is None or tau <= self.inner[0] or tau >= self.inner[1]:
            return self._best_response(tau)
        # The minimum, where g rises, starts at g's inflection point z = -1.
        z1, z2, _, _ = self.window
        low, high = self._root(tau, *self.low), self._root(tau, *self.high)
        return (low, self._root(tau, z1, z2, False, -1.0, False), high)

    def best_response(self, theta: float) -> tuple[float, ...]:
        """Globally optimal effort(s) at threshold ``theta``, ascending.

        The result has two elements only when the two local maxima tie within
        ``PAYOFF_TIE_REL * reward`` — i.e. at the dropout threshold, where
        ``info.theta_d`` gives the pair its search tied.
        """
        info = self.info
        if info is not None and theta == info.theta_d:
            return (info.br_min, info.br_max)
        maxima = self._best_response(theta / self.sigma)
        sigma = self.sigma
        if len(maxima) == 1:
            return (sigma * maxima[0][1],)
        return (sigma * maxima[0][1], sigma * maxima[1][1])

    def _best_response(self, tau: float) -> tuple[tuple[float, float], ...]:
        if self.window is None:  # the one maximum has mu = phi(z) / eps <= phi(0) / eps
            # Newton starts at mu = 0 when it lies below z = -1, that is when
            # g(z = -1) = phi(1) - eps * (tau - 1) < 0, and at z = 1 otherwise.
            cap = _INV_SQRT_2PI / self.eps + 1.0
            below = self.eps * (tau - 1.0) * CRITICAL_REWARD_FACTOR > 1.0
            start = 0.0 if below else min(max(tau + 1.0, 0.0), cap)
            return (self._root(tau, 0.0, cap, True, start),)
        if tau <= self.inner[0]:  # on or below the lower edge: the high maximum
            z2, z_top = self.high[:2]  # so the FOC is negative at mu = max(tau, 0) + z_top
            lo, hi = max(tau + z2, 0.0), max(tau, 0.0) + z_top
            # Newton starts at z = 1, or at mu = 0 where that is higher.
            return (self._root(tau, lo, hi, True, max(tau + 1.0, 0.0)),)
        band_lo, band_hi = self.band
        if tau < band_lo:  # before the band the high maximum wins
            return (self._root(tau, *self.high),)
        if tau >= self.inner[1] or tau > band_hi:  # on or above the upper edge, or past the band
            return (self._root(tau, *self.low),)
        low, high = self._root(tau, *self.low), self._root(tau, *self.high)
        u_low, u_high = self._utility(low), self._utility(high)
        if abs(u_high - u_low) <= PAYOFF_TIE_REL:
            return (low, high)
        return (high,) if u_high > u_low else (low,)

    def _search_dropout(self) -> None:
        """Set ``info`` and ``band``: :func:`find_root` on ``tie``, the
        scaled payoff gap ``G`` (high minus low), which falls in ``tau``.  At
        maxima ``(mu_low, z_high)`` with first-order residuals ``g_low`` and
        ``g_high``, ``G`` has slope ``-g_low`` in ``mu_low`` and ``g_high`` in
        ``z_high``: the value is ``G`` corrected to second order for the
        residuals, and the slope the envelope slope ``phi(z_low) -
        phi(z_high)`` plus the terms that eliminating the linearized
        residuals leaves.  The maxima at ``tau`` are those predicted by the
        last evaluation's Newton step when ``tau`` is that step and they are
        on their branches, and are solved by :meth:`_root` otherwise."""
        group, reward, sigma, eps = self.group, self.reward, self.sigma, self.eps
        z1, z2, tau1, tau2 = self.window
        lo, hi = self.inner
        predicted = (math.nan, 0.0, 0.0)  # a Newton step and the maxima there

        def maxima(tau: float) -> tuple[float, float]:
            step, mu, z = predicted
            if tau == step and 0.0 <= mu < tau + z1 and z > z2:
                return mu, z
            return self._root(tau, *self.low)[1], self._root(tau, *self.high)[0]

        def tie(tau: float) -> tuple[float, float]:
            nonlocal predicted
            mu, z = maxima(tau)
            z_low, mu_high = mu - tau, z + tau
            pdf_low = _INV_SQRT_2PI * math.exp(-0.5 * z_low * z_low)
            pdf_high = _INV_SQRT_2PI * math.exp(-0.5 * z * z)
            g_low, g_high = pdf_low - eps * mu, pdf_high - eps * mu_high
            # Slopes of g_low in mu_low and of g_high in z_high: negative on
            # the branches z_low < z1 and z_high > z2.
            s_low, s_high = -z_low * pdf_low - eps, -z * pdf_high - eps
            if s_low >= 0.0 or s_high >= 0.0:
                raise NoConvergence(f"a maximum left its branch at tau {tau!r}")
            gap = (normal_cdf(z) - 0.5 * eps * mu_high * mu_high) - (
                normal_cdf(z_low) - 0.5 * eps * mu * mu
            )
            r_low, r_high = g_low * g_low / s_low, g_high * g_high / s_high
            value = gap + 0.5 * (r_low - r_high)
            slope = pdf_low - eps * mu_high + (g_low * z_low * pdf_low / s_low
                                               + g_high * eps / s_high)
            dtau = -value / slope if slope != 0.0 else math.inf
            predicted = (
                tau + dtau,
                mu - (g_low + z_low * pdf_low * dtau) / s_low,
                z + (eps * dtau - g_high) / s_high,
            )
            return value, slope

        try:
            tau = find_root(tie, lo, hi, min(math.sqrt(2.0 / eps), 0.5 * (lo + hi)))
        except NoConvergence as exc:
            raise NoConvergence(f"no tie for group {group.label!r}: {exc}") from exc
        mu, z = maxima(tau)
        u_low, u_high = self._utility((mu - tau, mu)), self._utility((z, z + tau))
        if not abs(u_high - u_low) <= PAYOFF_TIE_REL:
            raise NoConvergence(
                f"payoffs at dropout differ by {abs(u_high - u_low) * reward!r} "
                f"(> 1e-9 * reward) for group {group.label!r}"
            )
        half = TIE_BAND * PAYOFF_TIE_REL / abs(normal_pdf(z) - normal_pdf(mu - tau))
        self.band = (tau - half, tau + half)
        self.info = DropoutInfo(
            theta_d=sigma * tau,
            br_min=sigma * mu,
            br_max=sigma * (z + tau),
            window=(sigma * tau1, sigma * tau2),
            payoff_at_dropout=reward * 0.5 * (u_low + u_high),
        )


def stationary_points(theta: float, group: GroupView, reward: float) -> StationaryPoints:
    """All stationary points of the payoff at threshold ``theta``."""
    return ResponseCurve(group, reward).stationary_points(theta)


def best_response(theta: float, group: GroupView, reward: float) -> tuple[float, ...]:
    """:meth:`ResponseCurve.best_response` of a fresh curve."""
    return ResponseCurve(group, reward).best_response(theta)


def dropout_threshold(group: GroupView, reward: float) -> DropoutInfo:
    """The ``info`` of a fresh curve; :class:`SubcriticalReward` when None."""
    info = ResponseCurve(group, reward).info
    if info is None:
        raise SubcriticalReward(
            f"reward {reward!r} gives group {group.label!r} no three-root "
            f"window (critical reward {critical_reward(group)!r})"
        )
    return info
