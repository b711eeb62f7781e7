"""Monte Carlo and brute-force oracles for the analytic formulas.

Every array in the package lives here: this module and the CLI's log grids
are the only users of numpy and scipy, and the solvers run on the standard
library.  Importing this module loads neither: they load on the first draw
or effort grid, so the CLI pays for them only in ``verify`` and ``:log``
grids.  Sampling is counter-based (Philox keyed by ``(seed, stream)``) so
estimates are bit-reproducible and independent streams can run in parallel.
Normal draws are scipy's ``ndtri`` of the uniforms, with no Newton step:
the inverse CDF rather than a separate sampler.

The selection-probability oracle simulates the actual observation chain
(latent quality, noisy estimate, posterior mean) whenever a group is
parameterized by its noise variance; groups with a direct spread override
are sampled from the decision statistic's law instead.  The quality oracle
draws the statistic first and reconstructs the latent quality from the
residual variance, which reproduces the exact joint law in both cases.  The
checks of a solved game take its resolved ``GroupView``s, and a seed, one
Philox key word, must lie in ``[0, 2**64)``.

Both oracles scale and shift their draws in place, in the order the
formulas read (``m + s * z`` is ``z *= s; z += m``: IEEE products and sums
commute, so every element is the same double).  The selection-probability
oracle counts its hits rather than averaging a float copy of them, and its
standard error is the binomial closed form ``sqrt(p (1 - p) / (n - 1))``,
algebraically the sample standard deviation over ``sqrt(n)`` of the 0/1 hits.

An oracle call draws its ``n`` samples in spans ``[lo, hi)`` of ``CHUNK``
draws, which fit in cache and run on a thread pool: numpy's and scipy's
array kernels release the GIL.  Its draws are the arrays of one stream in a
fixed order, array ``k`` from double ``k * n`` on (selection probability:
the statistic, then the noise; quality: the group uniform, the statistic,
the residual, then the effort uniform), and a span positions a generator at
double ``k * n + lo`` of its stream, so it draws exactly the doubles an
unbroken pass over the stream would.  Each span does the same arithmetic
on each element, the selection-probability oracle sums integer hit counts,
and the quality oracle's spans fill disjoint slices of one value array
before one estimate is taken of it.  So every estimate is the same double
whatever the span boundaries, the worker count or the order the spans
finish in.  The pool is created on first use with one worker per CPU this
process may use; with one CPU, or one span, the spans run in the calling
thread.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .best_response import payoff
from .model import (
    DmMode,
    EffortDistribution,
    EquilibriumReport,
    GameConfig,
    GroupParams,
    GroupView,
    correlation_coefficient,
    posterior_variance,
)

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

__all__ = [
    "McEstimate",
    "mc_selection_probability",
    "mc_selection_quality",
    "realizability_problems",
    "effort_grid",
    "grid_argmax_payoff",
    "max_deviation_gain",
]

MIN_SAMPLES = 1_000
# Draws per span of an oracle call: four arrays of them fit in cache.
CHUNK = 1 << 16
# Span workers: one per CPU this process may use.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n: int
    seed: int


def _generator(seed: int, stream: int, offset: int = 0) -> np.random.Generator:
    """The ``(seed, stream)`` generator, positioned so that its next double is
    double number ``offset`` of the stream."""
    import numpy as np

    key = np.array([seed, stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    bits = np.random.Philox(key=key)
    # A Philox counter step yields four 64-bit outputs, one per double.
    bits.advance(offset // 4)
    gen = np.random.Generator(bits)
    if offset % 4:
        gen.random(offset % 4)
    return gen


def _normals(gen: np.random.Generator, n: int) -> np.ndarray:
    import numpy as np
    from scipy.special import ndtri

    # Uniforms k / 2**53 + 2**-54 lie above 0; the top one, k = 2**53 - 1,
    # rounds to 1.0, so it is capped at 1 - 2**-53 and every draw is finite
    # (|x| < 8.3).
    u = gen.random(n)
    u += 2.0**-54
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    return ndtri(u, out=u)


@functools.cache
def _pool(pid: int, workers: int) -> ThreadPoolExecutor:
    # Keyed by process: a forked child has none of its parent's threads.
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(workers, thread_name_prefix="stratselect-mc")


def _over_spans(span: Callable[[int, int], object], n: int) -> list:
    """``span(lo, hi)`` for each span of ``CHUNK`` draws in ``[0, n)``, in
    order.  The pool starts no more threads than there are spans."""
    starts = range(0, n, CHUNK)
    stops = [min(lo + CHUNK, n) for lo in starts]
    if _WORKERS <= 1 or len(starts) == 1:
        return [span(lo, hi) for lo, hi in zip(starts, stops)]
    return list(_pool(os.getpid(), _WORKERS).map(span, starts, stops))


def _check_draws(n: int, seed: int) -> None:
    """Raise ValueError unless an oracle can draw ``n`` samples at ``seed``."""
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def _estimate(values: np.ndarray, seed: int) -> McEstimate:
    n = values.size
    return McEstimate(
        mean=float(values.mean()),
        std_error=float(values.std(ddof=1) / math.sqrt(n)),
        n=n,
        seed=seed,
    )


def mc_selection_probability(
    m: float,
    theta: float,
    group: GroupParams,
    eta_sq: float,
    n: int,
    seed: int,
    dm_mode: DmMode = "bayesian",
    stream: int = 0,
) -> McEstimate:
    """Simulated probability that a candidate at effort ``m`` is selected."""
    _check_draws(n, seed)
    if dm_mode not in ("bayesian", "oblivious"):
        raise ValueError(f"unknown dm_mode {dm_mode!r}")
    import numpy as np

    def hits(lo: int, hi: int) -> int:
        stat = _normals(_generator(seed, stream, lo), hi - lo)
        if group.sigma_tilde is not None:
            stat *= group.sigma_tilde
            stat += m
        else:
            # Latent quality, then the noisy estimate, then the posterior mean.
            eta = group.eta_sq if group.eta_sq is not None else eta_sq
            stat *= math.sqrt(eta)
            stat += m
            noise = _normals(_generator(seed, stream, n + lo), hi - lo)
            noise *= math.sqrt(group.noise_var)
            stat += noise
            del noise
            if dm_mode == "bayesian":
                rho_sq = correlation_coefficient(group, eta_sq) ** 2
                stat *= rho_sq
                stat += (1.0 - rho_sq) * m
        return int(np.count_nonzero(stat >= theta))

    p = sum(_over_spans(hits, n)) / n
    std_error = math.sqrt(p * (1.0 - p) / (n - 1))
    return McEstimate(mean=p, std_error=std_error, n=n, seed=seed)


def _variances(params: GroupParams, config: GameConfig) -> tuple[float, float, float]:
    """A group's latent quality variance, statistic variance and variance of
    quality given the statistic, negative when no joint law has them."""
    eta = params.eta_sq if params.eta_sq is not None else config.eta_sq
    stat_var = posterior_variance(params, config.eta_sq, config.dm_mode)
    if config.dm_mode == "bayesian":
        return eta, stat_var, eta - stat_var
    return eta, stat_var, eta - eta * eta / stat_var


def realizability_problems(config: GameConfig) -> list[str]:
    """One message per group whose statistic :func:`mc_selection_quality`
    cannot draw jointly with latent quality: ``sigma_tilde**2`` above the
    group's ``eta_sq`` in bayesian mode or below it in oblivious mode."""
    relation = "exceeds" if config.dm_mode == "bayesian" else "is below"
    problems = []
    for params in config.groups:
        eta, stat_var, resid_var = _variances(params, config)
        if resid_var < -1e-12:
            problems.append(
                f"group {params.label!r}: statistic variance {stat_var!r} {relation} the "
                f"latent quality variance {eta!r}; not realizable in {config.dm_mode} mode"
            )
    return problems


def mc_selection_quality(
    strategies: Sequence[EffortDistribution],
    thresholds: Sequence[float] | float,
    config: GameConfig,
    n: int,
    seed: int,
    stream: int = 0,
) -> McEstimate:
    """Simulated expected latent quality of the selected cohort.

    Draws a group, an effort from its strategy, the decision statistic and
    the latent quality, then averages quality times the selection indicator.
    """
    _check_draws(n, seed)
    groups = config.groups
    if len(strategies) != len(groups):
        raise ValueError("need one strategy per group")
    if isinstance(thresholds, (int, float)):
        thresholds = [float(thresholds)] * len(groups)
    if len(thresholds) != len(groups):
        raise ValueError("need one threshold per group")
    problems = realizability_problems(config)
    if problems:
        raise ValueError("; ".join(problems))

    import numpy as np

    edges = np.cumsum([params.share for params in groups])
    # The effort uniforms are drawn only when some strategy reads them; their
    # span is positioned in the stream, so skipping it moves no other draw.
    mixed = any(len(strategy.support) > 1 for strategy in strategies)
    value = np.zeros(n)

    def fill(lo: int, hi: int) -> None:
        size = hi - lo
        u_group = _generator(seed, stream, lo).random(size)
        z_stat = _normals(_generator(seed, stream, n + lo), size)
        z_resid = _normals(_generator(seed, stream, 2 * n + lo), size)
        u_effort = _generator(seed, stream, 3 * n + lo).random(size) if mixed else None
        out = value[lo:hi]
        lower = 0.0
        for params, strategy, theta, edge in zip(groups, strategies, thresholds, edges):
            eta, stat_var, resid_var = _variances(params, config)
            resid_sd = math.sqrt(max(resid_var, 0.0))
            # Index gathers beat boolean masks; the in-place steps below keep
            # the peak memory no higher than the masks'.
            idx = np.flatnonzero((u_group >= lower) & (u_group < edge))
            lower = edge
            if not idx.size:
                continue
            if len(strategy.support) == 1:
                efforts = strategy.support[0][0]
            else:
                efforts = _sample_efforts(strategy, u_effort.take(idx))
            stat = z_stat.take(idx)
            stat *= math.sqrt(stat_var)
            stat += efforts
            if config.dm_mode == "bayesian":
                # The statistic is the posterior mean, so quality = stat + resid
                # with resid independent of the statistic.
                quality = z_resid.take(idx)
                quality *= resid_sd
                quality += stat
            else:
                # Oblivious statistic is quality plus noise: Cov(W, stat) = eta,
                # so W | stat is N(m + beta (stat - m), eta - eta^2 / stat_var).
                beta = eta / stat_var
                quality = efforts + beta * (stat - efforts) + resid_sd * z_resid.take(idx)
            quality *= stat >= theta
            out[idx] = quality

    _over_spans(fill, n)
    return _estimate(value, seed)


def _sample_efforts(strategy: EffortDistribution, u: np.ndarray) -> np.ndarray:
    import numpy as np

    efforts = np.array([m for m, _ in strategy.support])
    weights = np.array([w for _, w in strategy.support])
    cuts = np.cumsum(weights)
    cuts[-1] = 1.0  # guard the top edge against rounding
    idx = np.searchsorted(cuts, u, side="right")
    return efforts[np.clip(idx, 0, len(efforts) - 1, out=idx)]


def effort_grid(group: GroupView, reward: float, grid_points: int = 10_000) -> np.ndarray:
    """The uniform effort grid of the grid oracles: ``grid_points`` points on
    ``[0, sqrt(2 reward / cost) + 6 sigma]``, which contains every best
    response."""
    import numpy as np

    hi = math.sqrt(2.0 * reward / group.cost) + 6.0 * group.sigma
    return np.linspace(0.0, hi, max(int(grid_points), 1))


def _grid_payoffs(
    theta: float, group: GroupView, reward: float, grid_points: int = 10_000
) -> tuple[np.ndarray, np.ndarray]:
    from scipy.special import ndtr

    grid = effort_grid(group, reward, grid_points)
    return grid, reward * ndtr((grid - theta) / group.sigma) - 0.5 * group.cost * grid**2


def grid_argmax_payoff(
    theta: float,
    group: GroupView,
    reward: float,
    grid_points: int = 10_000,
) -> float:
    """Brute-force best response on :func:`effort_grid`; ties resolve to the
    smallest effort."""
    grid, values = _grid_payoffs(theta, group, reward, grid_points)
    return float(grid[int(values.argmax())])


def max_deviation_gain(
    report: EquilibriumReport, views: tuple[GroupView, ...], reward: float
) -> dict[str, float]:
    """Best payoff improvement any candidate of the groups ``views`` could
    find on its group's :func:`effort_grid` at ``reward``.

    At a Nash equilibrium this is nonpositive up to solver residuals.
    """
    by_label = {v.label: v for v in views}
    gains = {}
    for outcome in report.outcomes:
        view = by_label[outcome.label]
        theta = outcome.threshold
        _, values = _grid_payoffs(theta, view, reward)
        current = sum(w * payoff(m, theta, view, reward) for m, w in outcome.strategy.support)
        gains[outcome.label] = float(values.max() - current)
    return gains
