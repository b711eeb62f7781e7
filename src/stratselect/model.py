"""Game instance description and the variance algebra behind it.

A game is a reward ``S``, a selection size ``alpha``, a latent-quality
variance ``eta_sq`` and two or more demographic groups, each with a
population share, a quadratic cost coefficient and an estimate-noise
variance.  Candidates choose an effort ``m`` at cost ``cost * m**2 / 2``;
their latent quality is ``N(m, eta_sq)``, the decision-maker sees it through
additive noise of variance ``noise_var`` and ranks candidates by a decision
statistic whose spread per group is what every solver actually consumes:

* ``bayesian`` mode ranks by the posterior mean of quality, which is normal
  with variance ``eta_sq**2 / (noise_var + eta_sq)``;
* ``oblivious`` mode ranks by the raw noisy estimate, variance
  ``eta_sq + noise_var``.

``sigma_tilde`` on a group overrides the derived spread (as a standard
deviation) for scenarios that parameterize it directly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Literal, Sequence

__all__ = [
    "DmMode",
    "GroupParams",
    "GameConfig",
    "GroupView",
    "EffortDistribution",
    "GroupOutcome",
    "EquilibriumReport",
    "posterior_variance",
    "correlation_coefficient",
    "effective_groups",
    "MAX_REWARD_RATIO",
    "in_supported_range",
    "validate",
    "config_from_dict",
    "config_to_dict",
    "config_hash",
]

DmMode = Literal["bayesian", "oblivious"]

SHARE_TOL = 1e-12
WEIGHT_TOL = 1e-12

# The largest reward, as a multiple of a group's cost * sigma**2, at which
# every group of a fuzz of the candidate problem was solved (README,
# "Supported range").
MAX_REWARD_RATIO = 1e20


@dataclass(frozen=True)
class GroupParams:
    """One demographic group of candidates.

    ``eta_sq`` optionally overrides the global quality variance for this
    group; ``sigma_tilde`` bypasses the variance derivation entirely and
    fixes the decision-statistic standard deviation.
    """

    label: str
    share: float
    cost: float
    noise_var: float = 0.0
    eta_sq: float | None = None
    sigma_tilde: float | None = None


@dataclass(frozen=True)
class GameConfig:
    """A full game instance."""

    reward: float
    alpha: float
    eta_sq: float
    groups: tuple[GroupParams, ...]
    dm_mode: DmMode = "bayesian"

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))


def posterior_variance(
    group: GroupParams, eta_sq: float, dm_mode: DmMode = "bayesian"
) -> float:
    """Variance of the decision statistic for ``group``.

    With an explicit ``sigma_tilde`` override the derivation is skipped and
    the override wins in both modes.
    """
    if group.sigma_tilde is not None:
        return group.sigma_tilde**2
    eta = group.eta_sq if group.eta_sq is not None else eta_sq
    if dm_mode == "bayesian":
        return eta * eta / (group.noise_var + eta)
    if dm_mode == "oblivious":
        return eta + group.noise_var
    raise ValueError(f"unknown dm_mode {dm_mode!r}")


def correlation_coefficient(group: GroupParams, eta_sq: float) -> float:
    """Correlation between latent quality and its noisy estimate."""
    eta = group.eta_sq if group.eta_sq is not None else eta_sq
    return math.sqrt(eta / (eta + group.noise_var))


@dataclass(frozen=True)
class GroupView:
    """Per-group parameters resolved for the solvers: share, cost and the
    standard deviation ``sigma`` of the decision statistic.

    ``quality_cov`` is the covariance between latent quality and the
    statistic, which the cohort-quality formula needs; it equals
    ``sigma**2`` when the statistic is the posterior mean (the default) and
    the latent variance when the statistic is the raw noisy estimate.
    """

    label: str
    share: float
    cost: float
    sigma: float
    quality_cov: float | None = None

    @property
    def latent_stat_cov(self) -> float:
        return self.sigma**2 if self.quality_cov is None else self.quality_cov


def effective_groups(config: GameConfig) -> tuple[GroupView, ...]:
    """Resolve every group of ``config`` into a :class:`GroupView`."""
    views = []
    for g in config.groups:
        var = posterior_variance(g, config.eta_sq, config.dm_mode)
        if config.dm_mode == "bayesian":
            cov = var
        else:
            cov = g.eta_sq if g.eta_sq is not None else config.eta_sq
        views.append(GroupView(g.label, g.share, g.cost, math.sqrt(var), cov))
    return tuple(views)


@dataclass(frozen=True)
class EffortDistribution:
    """Finite-support distribution of efforts: ``((effort, weight), ...)``.

    Weights must be nonnegative and sum to one; efforts must be nonnegative.
    Equilibrium strategies use at most two support points; dynamics may start
    from anything finite.
    """

    support: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        support = tuple((float(m), float(w)) for m, w in self.support)
        object.__setattr__(self, "support", support)
        if not support:
            raise ValueError("effort distribution needs at least one point")
        total = 0.0
        for m, w in support:
            if m < 0.0:
                raise ValueError(f"negative effort {m!r} in support")
            if w < -WEIGHT_TOL or w > 1.0 + WEIGHT_TOL:
                raise ValueError(f"weight {w!r} outside [0, 1]")
            total += w
        if abs(total - 1.0) > max(WEIGHT_TOL, 8.0 * len(support) * 2.2e-16):
            raise ValueError(f"weights sum to {total!r}, expected 1")

    @classmethod
    def point(cls, effort: float) -> "EffortDistribution":
        return cls(((effort, 1.0),))

    @classmethod
    def mixture(
        cls, pairs: Sequence[tuple[float, float]]
    ) -> "EffortDistribution":
        return cls(tuple(pairs))

    def mean(self) -> float:
        return sum(m * w for m, w in self.support)


@dataclass(frozen=True)
class GroupOutcome:
    """Equilibrium result for one group.

    ``threshold`` is the selection threshold this group faces (the global one
    in the unconstrained game, the group's own under demographic parity);
    ``tau`` is the weight on the high effort when the group mixes.
    """

    label: str
    threshold: float
    strategy: EffortDistribution
    avg_effort: float
    selection_rate: float
    tau: float | None = None


@dataclass(frozen=True)
class EquilibriumReport:
    """Solved game: per-group outcomes plus the selection quality."""

    mode: Literal["unconstrained", "demographic_parity"]
    regime: str
    threshold: float | None
    outcomes: tuple[GroupOutcome, ...]
    quality: float

    @property
    def mixing_group(self) -> str | None:
        for outcome in self.outcomes:
            if outcome.tau is not None:
                return outcome.label
        return None

    def outcome(self, label: str) -> GroupOutcome:
        for o in self.outcomes:
            if o.label == label:
                return o
        raise KeyError(label)

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "regime": self.regime,
            "threshold": self.threshold,
            "quality": self.quality,
            "mixing_group": self.mixing_group,
            "groups": [
                {
                    "label": o.label,
                    "threshold": o.threshold,
                    "tau": o.tau,
                    "avg_effort": o.avg_effort,
                    "selection_rate": o.selection_rate,
                    "strategy": [[m, w] for m, w in o.strategy.support],
                }
                for o in self.outcomes
            ],
        }


def _reward_ratio(reward: float, cost: float, sigma_sq: float) -> float:
    """``reward / (cost * sigma_sq)``, infinite when the product underflows."""
    scale = cost * sigma_sq
    return reward / scale if scale > 0.0 else math.inf


def in_supported_range(reward: float, cost: float, sigma_sq: float) -> bool:
    """Whether ``reward / (cost * sigma_sq)`` is at most :data:`MAX_REWARD_RATIO`."""
    return _reward_ratio(reward, cost, sigma_sq) <= MAX_REWARD_RATIO


def _violations(config: GameConfig, min_groups: int, share_hi: float) -> list[str]:
    problems: list[str] = []
    if not 0.0 < config.reward < math.inf:
        problems.append(f"reward must be positive and finite, got {config.reward!r}")
    if not 0.0 < config.alpha < 1.0:
        problems.append(f"alpha must lie in (0, 1), got {config.alpha!r}")
    if not 0.0 < config.eta_sq < math.inf:
        problems.append(f"eta_sq must be positive and finite, got {config.eta_sq!r}")
    if config.dm_mode not in ("bayesian", "oblivious"):
        problems.append(f"dm_mode must be bayesian or oblivious, got {config.dm_mode!r}")
    if len(config.groups) < min_groups:
        problems.append(
            f"need at least {min_groups} groups, got {len(config.groups)}"
        )
    labels = [g.label for g in config.groups]
    if len(set(labels)) != len(labels):
        problems.append(f"group labels must be unique, got {labels}")
    total = 0.0
    for g in config.groups:
        prefix = f"groups[{g.label!r}]"
        if not 0.0 < g.share <= share_hi:
            bound = "(0, 1)" if share_hi < 1.0 else "(0, 1]"
            problems.append(f"{prefix}.share must lie in {bound}, got {g.share!r}")
        if not 0.0 < g.cost < math.inf:
            problems.append(f"{prefix}.cost must be positive and finite, got {g.cost!r}")
        if not 0.0 <= g.noise_var < math.inf:
            problems.append(
                f"{prefix}.noise_var must be nonnegative and finite, got {g.noise_var!r}"
            )
        if g.eta_sq is not None and not 0.0 < g.eta_sq < math.inf:
            problems.append(
                f"{prefix}.eta_sq must be positive and finite, got {g.eta_sq!r}"
            )
        if g.sigma_tilde is not None and not 0.0 < g.sigma_tilde < math.inf:
            problems.append(
                f"{prefix}.sigma_tilde must be positive and finite, got {g.sigma_tilde!r}"
            )
        total += g.share
    if config.groups and abs(total - 1.0) > SHARE_TOL:
        problems.append(f"group shares sum to {total:g}, expected 1")
    if problems:
        return problems
    for g in config.groups:
        sigma_sq = posterior_variance(g, config.eta_sq, config.dm_mode)
        if not 0.0 < sigma_sq < math.inf:
            source = "sigma_tilde" if g.sigma_tilde is not None else "eta_sq and noise_var"
            problems.append(
                f"groups[{g.label!r}]: the variance {sigma_sq!r} from {source} "
                f"must be positive and finite"
            )
        elif not in_supported_range(config.reward, g.cost, sigma_sq):
            problems.append(
                f"groups[{g.label!r}]: reward {config.reward!r} is "
                f"{_reward_ratio(config.reward, g.cost, sigma_sq):.4g} times "
                f"cost * sigma**2, above the supported {MAX_REWARD_RATIO:g}"
            )
    return problems


def validate(config: GameConfig) -> list[str]:
    """Every invariant violation in ``config``, with the offending field.

    An empty list means the configuration is a valid game instance.
    """
    return _violations(config, min_groups=2, share_hi=math.nextafter(1.0, 0.0))


def solver_violations(config: GameConfig) -> list[str]:
    """Like :func:`validate` but admitting single-group instances of share
    one, which the demographic-parity decomposition solves internally."""
    return _violations(config, min_groups=1, share_hi=1.0)


def config_from_dict(data: dict) -> GameConfig:
    groups = tuple(
        GroupParams(
            label=str(g["label"]),
            share=float(g["share"]),
            cost=float(g["cost"]),
            noise_var=float(g.get("noise_var", 0.0)),
            eta_sq=None if g.get("eta_sq") is None else float(g["eta_sq"]),
            sigma_tilde=(
                None if g.get("sigma_tilde") is None else float(g["sigma_tilde"])
            ),
        )
        for g in data["groups"]
    )
    return GameConfig(
        reward=float(data["reward"]),
        alpha=float(data["alpha"]),
        eta_sq=float(data["eta_sq"]),
        groups=groups,
        dm_mode=data.get("dm_mode", "bayesian"),
    )


def config_to_dict(config: GameConfig) -> dict:
    groups = []
    for g in config.groups:
        entry: dict = {
            "label": g.label,
            "share": g.share,
            "cost": g.cost,
            "noise_var": g.noise_var,
        }
        if g.eta_sq is not None:
            entry["eta_sq"] = g.eta_sq
        if g.sigma_tilde is not None:
            entry["sigma_tilde"] = g.sigma_tilde
        groups.append(entry)
    return {
        "reward": config.reward,
        "alpha": config.alpha,
        "eta_sq": config.eta_sq,
        "dm_mode": config.dm_mode,
        "groups": groups,
    }


def config_hash(config: GameConfig) -> str:
    """Short hex digest binding outputs to the exact game instance."""
    canonical = json.dumps(
        config_to_dict(config), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
