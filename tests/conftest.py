import dataclasses
import importlib
import math

import pytest
from hypothesis import strategies as st

from stratselect.best_response import critical_reward
from stratselect.kernel import NoConvergence
from stratselect.metrics import selection_rate
from stratselect.model import (
    EffortDistribution,
    GameConfig,
    GroupParams,
    GroupView,
    effective_groups,
)


@pytest.fixture
def unit_group():
    """Single group with unit cost and unit decision-statistic spread."""
    return GroupView("A", 1.0, 1.0, 1.0)


@pytest.fixture
def failing_tie_search(monkeypatch):
    """Make the dropout tie's root search fail, and no other root search."""
    # The package re-exports the function under the module's name.
    module = importlib.import_module("stratselect.best_response")
    real = module.find_root

    def find_root(f, lo, hi, start):
        if f.__name__ == "tie":
            raise NoConvergence(f"no root in [{lo!r}, {hi!r}] after 200 steps")
        return real(f, lo, hi, start)

    monkeypatch.setattr(module, "find_root", find_root)


@pytest.fixture
def noise_gap_config():
    """Equal costs, spreads 0.1 vs 1.0, S=10, alpha=0.1: the selection is
    pinned on the low-spread group's dropout and that group mixes."""
    return GameConfig(
        reward=10.0,
        alpha=0.1,
        eta_sq=1.0,
        groups=(
            GroupParams("H", 0.5, 1.0, noise_var=99.0, sigma_tilde=0.1),
            GroupParams("L", 0.5, 1.0, noise_var=0.0, sigma_tilde=1.0),
        ),
    )


@pytest.fixture
def cost_gap_config():
    """Same spreads but the low-spread group pays 5x the cost: the selection
    pins on the other group's dropout instead."""
    return GameConfig(
        reward=10.0,
        alpha=0.1,
        eta_sq=1.0,
        groups=(
            GroupParams("H", 0.5, 5.0, noise_var=99.0, sigma_tilde=0.1),
            GroupParams("L", 0.5, 1.0, noise_var=0.0, sigma_tilde=1.0),
        ),
    )


@pytest.fixture
def small_reward_config():
    """Subcritical for both groups: unique best responses everywhere."""
    return GameConfig(
        reward=1.0,
        alpha=0.3,
        eta_sq=1.0,
        groups=(
            GroupParams("H", 0.5, 1.0, noise_var=1.7777777777777777, sigma_tilde=0.6),
            GroupParams("L", 0.5, 1.0, noise_var=0.0, sigma_tilde=1.0),
        ),
    )


@pytest.fixture
def symmetric_config():
    """Identical groups at a subcritical reward: everything must coincide."""
    g = dict(share=0.5, cost=1.0, noise_var=0.5)
    return GameConfig(
        reward=2.0,
        alpha=0.3,
        eta_sq=1.0,
        groups=(GroupParams("A", **g), GroupParams("B", **g)),
    )


def point_rate(m, theta, sigma):
    """The rate at which effort ``m`` clears threshold ``theta`` through a
    decision statistic of spread ``sigma``."""
    return selection_rate(EffortDistribution.point(m), theta, GroupView("A", 1.0, 1.0, sigma))


def two_group_config(
    reward,
    alpha,
    cost_h=1.0,
    cost_l=1.0,
    sigma_h=0.6,
    sigma_l=1.0,
    share_h=0.5,
):
    return GameConfig(
        reward=reward,
        alpha=alpha,
        eta_sq=1.0,
        groups=(
            GroupParams("H", share_h, cost_h, sigma_tilde=sigma_h),
            GroupParams("L", 1.0 - share_h, cost_l, sigma_tilde=sigma_l),
        ),
    )


COSTS = st.floats(math.log10(0.2), math.log10(5.0)).map(lambda e: 10.0**e)
NOISES = st.floats(0.0, 4.0)


@st.composite
def random_games(draw, min_groups=1):
    """Games of ``min_groups`` to 4 groups in either mode, at a reward from a
    tenth to a thousand times the first group's critical reward, so groups
    fall on both sides of theirs."""
    count = draw(st.integers(min_groups, 4))
    weights = [draw(st.floats(0.1, 1.0)) for _ in range(count)]
    groups = tuple(
        GroupParams(f"G{i}", w / sum(weights), draw(COSTS), noise_var=draw(NOISES))
        for i, w in enumerate(weights)
    )
    config = GameConfig(
        reward=1.0, alpha=draw(st.floats(0.02, 0.98)), eta_sq=1.0, groups=groups,
        dm_mode=draw(st.sampled_from(["bayesian", "oblivious"])),
    )
    reward = critical_reward(effective_groups(config)[0]) * 10.0 ** draw(st.floats(-1.0, 3.0))
    return dataclasses.replace(config, reward=reward)
