"""Special functions and bracketed root finding shared by every solver.

Every function here takes and returns Python floats and runs on the
standard library; the array versions the Monte Carlo oracles need live in
``mc``.  The normal CDF goes through ``erfc`` (relative error near machine
precision over the range that matters here), the quantile is the standard
library's ``NormalDist.inv_cdf`` (Wichura's AS241, a few ulps from exact),
and the two real branches of the Lambert W function are Newton iterations on
the log form ``w + log(w / x) = 0``, which stays finite from the branch fold
down to subnormal ``x``.  Root finding is one function, :func:`find_root`:
Brent's method, a line-by-line port of scipy's ``brentq`` loop that returns
the same double, which takes optional bracket-end values and evaluates only
the ends its caller did not pass.  It serves the searches whose function has
no cheap slope: the dropout search, the smooth equilibrium crossing and the
induced threshold (``equilibrium.mixture_quantile``).  A stationary point of
the candidate's payoff, whose slope is known in closed form, is solved by
Newton's method in ``best_response`` instead.
Everything is a pure function of its arguments and safe to call
concurrently.
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
_MIN_RTOL = 4.0 * sys.float_info.epsilon  # scipy's smallest brentq rtol
ROOT_XTOL = 1e-12  # find_root's absolute tolerance on the unknown
MAX_ITER = 200  # Brent iterations before NoConvergence; lambert_w's cap

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
    f: Callable[[float], float],
    lo: float,
    hi: float,
    f_lo: float | None = None,
    f_hi: float | None = None,
    xtol: float = ROOT_XTOL,
    max_iter: int = MAX_ITER,
) -> float:
    """Root of a continuous ``f`` on ``[lo, hi]``: Brent's method, ported
    from scipy's ``brentq`` with the smallest ``rtol`` it accepts, so it
    returns ``brentq``'s double with at most ``xtol + rtol*|root|`` between
    the final bracket ends and one evaluation of ``f`` per iteration.  An end
    value ``f_lo``, ``f_hi`` left ``None`` is evaluated, ``f(hi)`` only when
    ``f(lo)`` does not decide; an exact zero at an end returns that end.
    Raises :class:`NoBracket` on an empty interval or end values of one sign,
    and :class:`NoConvergence` when ``f`` is NaN at an end or an iterate or
    past ``max_iter`` iterations.
    """
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise NoBracket(f"need lo < hi, got [{lo!r}, {hi!r}]")
    if f_lo is None:
        f_lo = f(lo)
    if f_lo != f_lo:
        raise NoConvergence(f"f({lo!r}) is NaN")
    if f_lo == 0.0:
        return lo
    if f_hi is None:
        f_hi = f(hi)
    if f_hi != f_hi:
        raise NoConvergence(f"f({hi!r}) is NaN")
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise NoBracket(
            f"f({lo!r}) = {f_lo!r} and f({hi!r}) = {f_hi!r} have the same sign"
        )
    return float(_brent(f, lo, hi, f_lo, f_hi, xtol, _MIN_RTOL, max_iter))


def _brent(f, xpre, xcur, fpre, fcur, xtol, rtol, max_iter):
    # scipy/optimize/Zeros/brentq.c, operation by operation, from its loop
    # on: [xpre, xcur] brackets a root and fpre, fcur are f there, nonzero
    # and of opposite sign.  xcur is the best estimate, xblk the point that
    # keeps the bracket, xpre the previous estimate; spre and scur are the
    # last two steps.
    xblk = fblk = spre = scur = 0.0
    for _ in range(max_iter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (
                        -fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre))
                    )
            except ZeroDivisionError:
                # C divides to +-inf or nan here, which never passes the
                # step test below.
                stry = math.inf
            limit = 3.0 * abs(sbis) - delta
            if abs(spre) < limit:
                limit = abs(spre)
            if 2.0 * abs(stry) < limit:
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
        if fcur != fcur:
            raise NoConvergence(f"f({xcur!r}) is NaN")
    raise NoConvergence(
        f"no root to within {xtol} after {max_iter} iterations"
    )
