"""Special functions and bracketed root finding shared by every solver.

The normal CDF goes through ``erfc`` (relative error near machine precision
over the range that matters here), the quantile is scipy's rational
approximation tightened with one guarded Newton step, and the two real
branches of the Lambert W function are Halley-polished so that ``w * exp(w)``
reproduces the argument to ~1e-14 relative.  Everything is a pure function of
its arguments and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Union

import numpy as np
from scipy import optimize, special

__all__ = [
    "DomainError",
    "NoBracket",
    "NoConvergence",
    "RootConfig",
    "DEFAULT_ROOT_CONFIG",
    "normal_pdf",
    "normal_cdf",
    "normal_quantile",
    "lambert_w",
    "find_root",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_BRANCH_POINT = -math.exp(-1.0)  # -1/e, where the two real W branches meet
_MIN_RTOL = 4.0 * float(np.finfo(float).eps)

WBranch = Literal["principal", "minus_one"]
ArrayLike = Union[float, np.ndarray]


class DomainError(ValueError):
    """Argument outside the mathematical domain of a special function."""


class NoBracket(ValueError):
    """Root search started from an empty interval or one without a sign change."""


class NoConvergence(RuntimeError):
    """An iterative routine exhausted its iteration budget."""


@dataclass(frozen=True)
class RootConfig:
    """Tolerances for bracketed root searches (absolute, on the unknown)."""

    abs_tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not self.abs_tol > 0.0:
            raise ValueError("abs_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


DEFAULT_ROOT_CONFIG = RootConfig()


def normal_pdf(z: ArrayLike) -> ArrayLike:
    """Standard normal density.  Accepts floats or numpy arrays."""
    if isinstance(z, np.ndarray):
        return _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def normal_cdf(z: ArrayLike) -> ArrayLike:
    """Standard normal CDF, strictly increasing onto (0, 1)."""
    if isinstance(z, np.ndarray):
        return special.ndtr(z)
    return 0.5 * math.erfc(-z / _SQRT2)


def normal_quantile(p: ArrayLike) -> ArrayLike:
    """Inverse of :func:`normal_cdf` on (0, 1).

    Raises :class:`DomainError` outside the open unit interval.  A Newton
    step on top of the rational initial guess keeps the round trip
    ``normal_quantile(normal_cdf(z)) == z`` tight for moderate ``z``.
    """
    if isinstance(p, np.ndarray):
        if p.size and (np.any(p <= 0.0) or np.any(p >= 1.0)):
            raise DomainError("normal_quantile requires p in (0, 1)")
        x = special.ndtri(p)
        # Clamping the density keeps far-tail lanes (where the step is already
        # negligible relative to |x|) free of overflow.
        x -= (special.ndtr(x) - p) / np.maximum(normal_pdf(x), 1e-300)
        return x
    if not 0.0 < p < 1.0:
        raise DomainError(f"normal_quantile requires p in (0, 1), got {p!r}")
    x = float(special.ndtri(p))
    if 1e-10 < p < 1.0 - 1e-10:
        x -= (normal_cdf(x) - p) / normal_pdf(x)
    return x


def _halley_polish(w: float, x: float) -> float:
    # Halley steps degenerate at the branch fold w = -1; the initial guess is
    # already best possible there, so bail out instead of dividing by ~0.
    for _ in range(8):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        if abs(f) <= 1e-15 * max(1.0, abs(x)) or abs(wp1) < 1e-6:
            break
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        if denom == 0.0:
            break
        w -= f / denom
    return w


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
    p_sq = 2.0 * (math.e * x + 1.0)
    if p_sq <= 1e-4:
        # Fold series in p = sqrt(2 (e x + 1)); more accurate than the
        # generic algorithm this close to -1/e, where Halley degenerates.
        p = math.sqrt(p_sq)
        if branch == "minus_one":
            p = -p
        return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (-43.0 / 540.0))))
    k = 0 if branch == "principal" else -1
    w = float(special.lambertw(complex(x, 0.0), k).real)
    return _halley_polish(w, x)


def find_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    cfg: RootConfig | None = None,
) -> float:
    """Root of a continuous ``f`` on the sign-changing interval ``[lo, hi]``.

    Brent's method (bisection with inverse-quadratic acceleration), so the
    result is deterministic and the final bracket is at most ``cfg.abs_tol``
    wide.  Raises :class:`NoBracket` when ``f(lo)`` and ``f(hi)`` have the
    same sign or the interval is empty, and :class:`NoConvergence` past
    ``cfg.max_iter`` iterations.
    """
    cfg = cfg or DEFAULT_ROOT_CONFIG
    if not lo < hi:
        raise NoBracket(f"need lo < hi, got [{lo!r}, {hi!r}]")
    flo = f(lo)
    if flo == 0.0:
        return float(lo)
    fhi = f(hi)
    if fhi == 0.0:
        return float(hi)
    if (flo > 0.0) == (fhi > 0.0):
        raise NoBracket(
            f"f({lo!r}) = {flo!r} and f({hi!r}) = {fhi!r} have the same sign"
        )
    root, result = optimize.brentq(
        f,
        lo,
        hi,
        xtol=cfg.abs_tol,
        rtol=_MIN_RTOL,
        maxiter=cfg.max_iter,
        full_output=True,
        disp=False,
    )
    if not result.converged:
        raise NoConvergence(
            f"no root to within {cfg.abs_tol} after {cfg.max_iter} iterations"
        )
    return float(root)
