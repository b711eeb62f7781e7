"""Monte Carlo and brute-force oracles for the analytic formulas.

Sampling is counter-based (Philox keyed by ``(seed, stream)``) so estimates
are bit-reproducible and independent streams can run in parallel.  Normal
draws go through the inverse CDF of the audited kernel quantile rather than
a separate sampler.

The selection-probability oracle simulates the actual observation chain
(latent quality, noisy estimate, posterior mean) whenever a group is
parameterized by its noise variance; groups with a direct spread override
are sampled from the decision statistic's law instead.  The quality oracle
draws the statistic first and reconstructs the latent quality from the
residual variance, which reproduces the exact joint law in both cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernel import normal_cdf, normal_quantile
from .model import (
    DmMode,
    EffortDistribution,
    GameConfig,
    GroupParams,
    GroupView,
    correlation_coefficient,
    effective_groups,
    posterior_variance,
)

__all__ = [
    "McEstimate",
    "mc_selection_probability",
    "mc_selection_quality",
    "effort_grid",
    "grid_argmax_payoff",
]

MIN_SAMPLES = 1_000

_TWO53 = float(1 << 53)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n: int
    seed: int


def _generator(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _normals(gen: np.random.Generator, n: int) -> np.ndarray:
    # Uniforms strictly inside (0, 1) so the quantile never sees an endpoint.
    u = (gen.integers(0, 1 << 53, size=n, dtype=np.uint64) + 0.5) / _TWO53
    return normal_quantile(u)


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
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    gen = _generator(seed, stream)
    eta = group.eta_sq if group.eta_sq is not None else eta_sq
    if group.sigma_tilde is not None:
        stat = m + group.sigma_tilde * _normals(gen, n)
    else:
        quality = m + math.sqrt(eta) * _normals(gen, n)
        estimate = quality + math.sqrt(group.noise_var) * _normals(gen, n)
        if dm_mode == "bayesian":
            rho_sq = correlation_coefficient(group, eta_sq) ** 2
            stat = estimate * rho_sq + (1.0 - rho_sq) * m
        else:
            stat = estimate
    hits = (stat >= theta).astype(float)
    return _estimate(hits, seed)


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
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    views = effective_groups(config)
    if len(strategies) != len(views):
        raise ValueError("need one strategy per group")
    if isinstance(thresholds, (int, float)):
        thresholds = [float(thresholds)] * len(views)
    if len(thresholds) != len(views):
        raise ValueError("need one threshold per group")

    gen = _generator(seed, stream)
    u_group = gen.random(n)
    z_stat = _normals(gen, n)
    z_resid = _normals(gen, n)
    u_effort = gen.random(n)

    value = np.zeros(n)
    edges = np.cumsum([v.share for v in views])
    lower = 0.0
    for view, params, strategy, theta, edge in zip(
        views, config.groups, strategies, thresholds, edges
    ):
        eta = params.eta_sq if params.eta_sq is not None else config.eta_sq
        stat_var = posterior_variance(params, config.eta_sq, config.dm_mode)
        mask = (u_group >= lower) & (u_group < edge)
        lower = edge
        if not mask.any():
            continue
        efforts = _sample_efforts(strategy, u_effort[mask])
        stat = efforts + math.sqrt(stat_var) * z_stat[mask]
        if config.dm_mode == "bayesian":
            # The statistic is the posterior mean, so quality = stat + resid
            # with resid independent of the statistic.
            resid_var = eta - stat_var
            if resid_var < -1e-12:
                raise ValueError(
                    f"group {view.label!r}: statistic spread exceeds the "
                    "latent quality spread; not realizable in bayesian mode"
                )
            quality = stat + math.sqrt(max(resid_var, 0.0)) * z_resid[mask]
        else:
            # Oblivious statistic is quality plus noise: Cov(W, stat) = eta,
            # so W | stat is N(m + beta (stat - m), eta - eta^2 / stat_var).
            beta = eta / stat_var
            cond_var = eta - eta * eta / stat_var
            if cond_var < -1e-12:
                raise ValueError(
                    f"group {view.label!r}: statistic spread below the latent "
                    "quality spread; not realizable in oblivious mode"
                )
            quality = (
                efforts
                + beta * (stat - efforts)
                + math.sqrt(max(cond_var, 0.0)) * z_resid[mask]
            )
        value[mask] = quality * (stat >= theta)
    return _estimate(value, seed)


def _sample_efforts(strategy: EffortDistribution, u: np.ndarray) -> np.ndarray:
    efforts = np.array([m for m, _ in strategy.support])
    weights = np.array([w for _, w in strategy.support])
    cuts = np.cumsum(weights)
    cuts[-1] = 1.0  # guard the top edge against rounding
    idx = np.searchsorted(cuts, u, side="right")
    return efforts[np.clip(idx, 0, len(efforts) - 1)]


def effort_grid(group: GroupView, reward: float, grid_points: int = 10_000) -> np.ndarray:
    """The uniform effort grid of the grid oracles: ``grid_points`` points on
    ``[0, sqrt(2 reward / cost) + 6 sigma]``, which contains every best
    response."""
    hi = math.sqrt(2.0 * reward / group.cost) + 6.0 * group.sigma
    return np.linspace(0.0, hi, max(int(grid_points), 1))


def grid_argmax_payoff(
    theta: float,
    group: GroupView,
    reward: float,
    grid_points: int = 10_000,
) -> float:
    """Brute-force best response on :func:`effort_grid`; ties resolve to the
    smallest effort."""
    grid = effort_grid(group, reward, grid_points)
    values = reward * normal_cdf((grid - theta) / group.sigma) - 0.5 * group.cost * grid**2
    return float(grid[int(np.argmax(values))])
