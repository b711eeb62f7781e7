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
from typing import Literal

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
    "MIN_REWARD_RATIO",
    "MAX_GRID_POINTS",
    "MAX_DYNAMICS_STEPS",
    "validate",
    "reward_violations",
    "config_from_dict",
    "config_to_dict",
    "config_hash",
]

DmMode = Literal["bayesian", "oblivious"]

SHARE_TOL = 1e-12
WEIGHT_TOL = 1e-12

# The largest reward, as a multiple of a group's cost * sigma**2, at which
# every group of a fuzz of the candidate problem was solved, and the smallest
# at which both solvers solved every game of a fuzz (README, "Supported
# range").
MAX_REWARD_RATIO = 1e20
MIN_REWARD_RATIO = 1e-20

# The most grid points (a sweep's or a dropout grid's) and dynamics steps the
# CLI supports.  A command holds its whole CSV, and a dynamics run its whole
# trace, until it succeeds: a two-group game peaked at about 400 bytes per
# dropout row, 600 per sweep row and 1,000 per dynamics state, and more with
# more groups, so either bound keeps a two-group command near 1 GB
# (README, "Supported range").
MAX_GRID_POINTS = 10**6
MAX_DYNAMICS_STEPS = 10**6


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
        try:
            return group.sigma_tilde**2
        except OverflowError:  # a float power raises where it would be inf
            return math.inf
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


@dataclass(frozen=True, slots=True)
class EffortDistribution:
    """Finite-support distribution of efforts: ``((effort, weight), ...)``.

    Weights must be nonnegative and sum to one; efforts must be finite and
    nonnegative.  Equilibrium strategies use at most two support points;
    dynamics may start from anything finite.  The constructor and
    :meth:`point` check every support; the solvers and a dynamics step wrap
    the supports they built from values they had already checked with
    :meth:`_of_solved_support`, which skips the checks.
    """

    support: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        support = tuple([(float(m), float(w)) for m, w in self.support])
        object.__setattr__(self, "support", support)
        if not support:
            raise ValueError("effort distribution needs at least one point")
        total = 0.0  # each check below is a range, which NaN fails
        for m, w in support:
            if not 0.0 <= m < math.inf:
                raise ValueError(f"effort {m!r} in support is not finite and nonnegative")
            if not -WEIGHT_TOL <= w <= 1.0 + WEIGHT_TOL:
                raise ValueError(f"weight {w!r} outside [0, 1]")
            total += w
        if not abs(total - 1.0) <= max(WEIGHT_TOL, 8.0 * len(support) * 2.2e-16):
            raise ValueError(f"weights sum to {total!r}, expected 1")

    @classmethod
    def point(cls, effort: float) -> "EffortDistribution":
        return cls(((effort, 1.0),))

    @classmethod
    def _of_solved_support(
        cls, support: tuple[tuple[float, float], ...]
    ) -> "EffortDistribution":
        """Wrap a support the solvers built, with no ``__post_init__``:
        ``((m, 1.0),)``, a best response's ``((lo, 0.5), (hi, 0.5))`` or a
        mixed equilibrium strategy's ``((lo, 1 - w), (hi, w))``.  The checks
        could not fail on it, and the float conversion would give the same
        tuple.  Every effort is a float ``>= 0``: a root of
        :class:`ResponseCurve`, held inside a bracket that starts at ``mu =
        0`` or at ``z2 + tau > 0`` inside the window, or parity's ``sigma *
        phi(z) / eps > 0``.  Every weight is a float in [0, 1] and they sum
        to within ``WEIGHT_TOL`` of 1: ``0.5 + 0.5`` and ``1.0`` exactly, and
        ``(1 - w) + w`` for the weight ``w`` that the solvers'
        ``_mixing_weight`` clamps to [0, 1]."""
        dist = object.__new__(cls)
        object.__setattr__(dist, "support", support)
        return dist

    def mean(self) -> float:
        # Left to right from 0, the same double as ``sum`` on Python 3.11.
        total = 0
        for m, w in self.support:
            total += m * w
        return total


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


def _violations(config: GameConfig, min_groups: int, share_hi: float) -> list[str]:
    # The reward's own check comes first; its range needs valid groups, so
    # reward_violations checks it once every other field is valid.
    problems: list[str] = []
    if not 0.0 < config.reward < math.inf:
        problems += reward_violations(config, config.reward)
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
        problems.append(f"group shares sum to {total!r}, expected 1")
    if problems:
        return problems
    return reward_violations(config, config.reward)


def reward_violations(config: GameConfig, reward: float) -> list[str]:
    """Every violation in ``config`` at ``reward`` in place of its own reward
    that depends on the reward: it must be positive and finite, and lie in
    the supported range of every group (a group whose variance is not
    positive and finite is named for that instead).  With every other field
    valid, as :func:`validate` leaves them, these are all its violations, so
    a reward grid checks each point with this alone."""
    if not 0.0 < reward < math.inf:
        return [f"reward must be positive and finite, got {reward!r}"]
    problems: list[str] = []
    for g in config.groups:
        sigma_sq = posterior_variance(g, config.eta_sq, config.dm_mode)
        if not 0.0 < sigma_sq < math.inf:
            source = "sigma_tilde" if g.sigma_tilde is not None else "eta_sq and noise_var"
            problems.append(
                f"groups[{g.label!r}]: the variance {sigma_sq!r} from {source} "
                f"must be positive and finite"
            )
            continue
        scale = g.cost * sigma_sq
        ratio = reward / scale if scale > 0.0 else math.inf
        if ratio > MAX_REWARD_RATIO:
            side, bound = "above", MAX_REWARD_RATIO
        elif ratio < MIN_REWARD_RATIO:
            side, bound = "below", MIN_REWARD_RATIO
        else:
            continue
        if 0.0 < ratio < math.inf:
            text = f"{ratio:.4g}"
            if float(text) == bound:  # four digits round onto the bound: show all
                text = repr(ratio)
            size = f"{text} times cost * sigma**2, {side} the supported {bound:g}"
        else:  # the ratio overflows or underflows, or cost * sigma**2 does
            size = f"{side} the supported {bound:g} times cost * sigma**2 = {scale!r}"
        problems.append(f"groups[{g.label!r}]: reward {reward!r} is {size}")
    return problems


def validate(config: GameConfig) -> list[str]:
    """Every invariant violation in ``config``, with the offending field.

    An empty list means the configuration is a valid game instance.
    """
    return _violations(config, min_groups=2, share_hi=math.nextafter(1.0, 0.0))


def solver_violations(config: GameConfig) -> list[str]:
    """Like :func:`validate` but admitting single-group instances of share
    one: a one-group game is a group's parity subgame on its own."""
    return _violations(config, min_groups=1, share_hi=1.0)


def _json_number(value, name: str) -> float:
    """``value``, the JSON field ``name``, as a float.  Raises ValueError
    unless it is a JSON number: ``float`` would also take a string such as
    ``"5"`` and a boolean, and raise OverflowError on a huge integer."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is an integer too large for a float") from None


def config_from_dict(data: dict) -> GameConfig:
    """The game of a JSON object.  Every numeric field must be a JSON number
    (:func:`_json_number`); a group's ``eta_sq`` and ``sigma_tilde`` may also
    be null or absent.  Raises KeyError, TypeError or ValueError when
    malformed."""
    groups = []
    for g in data["groups"]:
        label = str(g["label"])
        prefix = f"groups[{label!r}]"
        groups.append(GroupParams(
            label=label,
            share=_json_number(g["share"], f"{prefix}.share"),
            cost=_json_number(g["cost"], f"{prefix}.cost"),
            noise_var=_json_number(g.get("noise_var", 0.0), f"{prefix}.noise_var"),
            eta_sq=(
                None if g.get("eta_sq") is None
                else _json_number(g["eta_sq"], f"{prefix}.eta_sq")
            ),
            sigma_tilde=(
                None if g.get("sigma_tilde") is None
                else _json_number(g["sigma_tilde"], f"{prefix}.sigma_tilde")
            ),
        ))
    return GameConfig(
        reward=_json_number(data["reward"], "reward"),
        alpha=_json_number(data["alpha"], "alpha"),
        eta_sq=_json_number(data["eta_sq"], "eta_sq"),
        groups=tuple(groups),
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
