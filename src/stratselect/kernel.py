"""Special functions and bracketed root finding shared by every solver.

Every function here takes and returns Python floats and runs on the
standard library; the array versions the Monte Carlo oracles need live in
``mc``.  The normal CDF goes through ``erfc`` (relative error near machine
precision over the range that matters here), the quantile is the standard
library's ``NormalDist.inv_cdf`` (Wichura's AS241, a few ulps from exact),
and the two real branches of the Lambert W function are Newton iterations on
the log form ``w + log(w / x) = 0``, which stays finite from the branch fold
down to subnormal ``x``.  Root finding is one function, :func:`find_root`:
Newton's method safeguarded by a bracket, for an equation whose slope its
caller knows in closed form, that converges from any start in the bracket
to a root inside it.  Every equation of the solvers is one: a stationary
point of the candidate's payoff and the dropout tie in ``best_response``,
the smooth equilibrium crossing and the induced threshold
(``equilibrium.mixture_quantile``).  Everything is a pure function of its
arguments and safe to call concurrently.
"""

from __future__ import annotations

import math
import statistics
import sys
from typing import Callable, Literal

__all__ = [
    "DomainError",
    "NoBracket",
    "NoConvergence",
    "normal_pdf",
    "normal_cdf",
    "normal_quantile",
    "lambert_w",
    "find_root",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_STANDARD_NORMAL = statistics.NormalDist()
_BRANCH_POINT = -math.exp(-1.0)  # -1/e, where the two real W branches meet
_MIN_RTOL = 4.0 * sys.float_info.epsilon  # find_root's and lambert_w's step tolerance
MAX_ITER = 200  # Newton steps of find_root and lambert_w

WBranch = Literal["principal", "minus_one"]


class DomainError(ValueError):
    """Argument outside the mathematical domain of a special function."""


class NoBracket(ValueError):
    """Root search started from an empty interval or one without a sign change."""


class NoConvergence(RuntimeError):
    """An iterative routine exhausted its iteration budget."""


def normal_pdf(z: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def normal_cdf(z: float) -> float:
    """Standard normal CDF, strictly increasing onto (0, 1)."""
    return 0.5 * math.erfc(-z / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse of :func:`normal_cdf` on (0, 1): ``NormalDist().inv_cdf``,
    within a few ulps of the exact quantile down to ``p = 1e-300``.

    Raises :class:`DomainError` outside the open unit interval.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"normal_quantile requires p in (0, 1), got {p!r}")
    return _STANDARD_NORMAL.inv_cdf(p)


def lambert_w(branch: WBranch, x: float) -> float:
    """Real Lambert W: the solution ``w`` of ``w * exp(w) = x``.

    ``principal`` covers ``x >= -1/e`` with ``w >= -1``; ``minus_one`` covers
    ``-1/e <= x < 0`` with ``w <= -1``.
    """
    if branch == "principal":
        if x < _BRANCH_POINT - 1e-15:
            raise DomainError(
                f"lambert_w principal branch requires x >= -1/e, got {x!r}"
            )
    elif branch == "minus_one":
        if x < _BRANCH_POINT - 1e-15 or x >= 0.0:
            raise DomainError(
                f"lambert_w minus_one branch requires -1/e <= x < 0, got {x!r}"
            )
    else:
        raise ValueError(f"unknown Lambert W branch {branch!r}")

    if x <= _BRANCH_POINT + 1e-15:
        return -1.0
    if x == 0.0:
        return 0.0
    principal = branch == "principal"
    log_minus_x = 0.0 if principal else math.log(-x)
    p_sq = 2.0 * (math.e * x + 1.0)
    if x < -0.25:
        # Fold series in p = sqrt(2 (e x + 1)): the answer within p_sq <= 1e-4
        # of -1/e, where Newton's slope (w + 1) / w vanishes, and the start
        # point further out.
        p = math.sqrt(p_sq) if principal else -math.sqrt(p_sq)
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (-43.0 / 540.0))))
        if p_sq <= 1e-4:
            return w
    elif principal:
        w = math.log1p(x)
    else:
        w = log_minus_x - math.log(-log_minus_x)
    # Newton on w + log(w / x) = 0.  On the principal branch w / x = exp(-w)
    # is at most e; on the -1 branch it overflows for |x| < 4e-306, so the
    # logarithm is split there.  The no-progress stop ends the iteration
    # next to the fold, where rounding keeps the step from reaching an ulp.
    last = math.inf
    for _ in range(MAX_ITER):
        log_ratio = math.log(w / x) if principal else math.log(-w) - log_minus_x
        step = w * (w + log_ratio) / (w + 1.0)
        if abs(step) >= last:
            break
        w -= step
        if abs(step) <= _MIN_RTOL * abs(w):
            break
        last = abs(step)
    return w


def find_root(
    f: Callable[[float], tuple[float, float]], lo: float, hi: float, start: float
) -> float:
    """Root of ``f`` on ``[lo, hi]``, where ``f(x)`` returns the value and
    the slope at ``x`` and the value falls through one sign change.

    Newton's method from ``start``, any point of ``[lo, hi]``; the start
    sets only the speed.  Each evaluation replaces the end of the bracket on
    its side of the root, known from the sign of the value (the slope can be
    about 0 near a turning point, so it cannot tell).  As in Numerical
    Recipes' ``rtsafe``, a Newton step is taken only if it lands strictly
    inside the bracket and is at most half as long as the step two
    iterations earlier, else the bracket is bisected, so no Newton cycle
    stalls it.  It stops on a step within ``_MIN_RTOL * (|x| + 1)``, clamped
    into the bracket, or on an exact zero, so the root lies in ``[lo, hi]``
    and depends on ``f``, the bracket and ``start`` alone.  Raises
    :class:`NoBracket` unless ``lo < hi``, and :class:`NoConvergence` when
    the value is NaN or after ``MAX_ITER`` evaluations.
    """
    if not lo < hi:
        raise NoBracket(f"need lo < hi, got [{lo!r}, {hi!r}]")
    x = start
    last = older = math.inf  # the last two step lengths, unbounded at first
    for _ in range(MAX_ITER):
        value, slope = f(x)
        if value != value:
            raise NoConvergence(f"f({x!r}) is NaN")
        if value == 0.0:
            return x
        if value > 0.0:
            lo = x
        else:
            hi = x
        # The stop is relative far from x = 0 and absolute near it, where a
        # root can be 0 to double precision.
        tol = _MIN_RTOL * (abs(x) + 1.0)
        step = x - value / slope if slope != 0.0 else math.inf
        dx = abs(step - x)
        if dx > tol and (not lo < step < hi or dx > 0.5 * older):
            step = 0.5 * (lo + hi)
            dx = abs(step - x)
        # Stops on a converged Newton step, or on a bracket down to adjacent
        # doubles, where the two ends would otherwise alternate.
        if dx <= tol:
            return min(max(step, lo), hi)
        last, older = dx, last
        x = step
    raise NoConvergence(f"no root in [{lo!r}, {hi!r}] after {MAX_ITER} steps")
