import hashlib
import math
import multiprocessing
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from stratselect import mc
from stratselect.best_response import ResponseCurve
from stratselect.kernel import normal_quantile
from stratselect.mc import (
    MIN_SAMPLES,
    grid_argmax_payoff,
    mc_selection_probability,
    mc_selection_quality,
)
from stratselect.metrics import quality_from_outcomes
from stratselect.model import (
    EffortDistribution,
    GameConfig,
    GroupOutcome,
    GroupParams,
    GroupView,
    correlation_coefficient,
    effective_groups,
    posterior_variance,
)

from conftest import point_rate

N = 200_000


def test_normal_draws_are_pinned():
    # Every oracle estimate and the verify table rest on these doubles; a
    # change to the sampler's arithmetic moves them.
    draws = mc._normals(mc._generator(0, 0), 100_000)
    assert hashlib.sha256(draws.tobytes()).hexdigest().startswith("d1a280c170519598")


class _FixedUniforms:
    """Stands in for a generator whose ``random(n)`` returns given doubles."""

    def __init__(self, values):
        self.values = values

    def random(self, n):
        return np.resize(np.asarray(self.values, dtype=float), n)


def test_top_uniform_draws_a_finite_normal():
    # k = 2**53 - 1 is the largest uniform; plus 2**-54 it rounds to 1.0,
    # which the sampler caps at 1 - 2**-53.
    draws = mc._normals(_FixedUniforms([(2**53 - 1) / 2**53]), 1)
    assert np.isfinite(draws).all()
    assert draws[0] == ndtri(1.0 - 2.0**-53)


def test_normal_draws_are_accurate_quantiles():
    # Each draw is within 8 DBL_EPS (relative) of the stdlib's quantile of its
    # uniform: over 5,000 seeded draws, and at the bottom uniform, the median
    # and the capped top uniform.
    eps = sys.float_info.epsilon
    seeded = mc._generator(0, 0).random(5_000) + 2.0**-54
    extremes = [2.0**-54, 0.5, 1.0 - 2.0**-53]
    u = np.concatenate([seeded, extremes])
    draws = np.concatenate([
        mc._normals(mc._generator(0, 0), 5_000),
        mc._normals(_FixedUniforms([0.0, 0.5, (2**53 - 1) / 2**53]), 3),
    ])
    for p, x in zip(u, draws):
        exact = normal_quantile(float(p))
        assert abs(x - exact) <= 8 * eps * abs(exact), (p, x, exact)


def reference_statistic(m, group, eta_sq, n, seed, dm_mode="bayesian", stream=0):
    """The decision statistics the selection-probability oracle drew before
    it worked in place, with full-size temporaries."""
    gen = mc._generator(seed, stream)
    eta = group.eta_sq if group.eta_sq is not None else eta_sq
    if group.sigma_tilde is not None:
        stat = m + group.sigma_tilde * mc._normals(gen, n)
    else:
        quality = m + math.sqrt(eta) * mc._normals(gen, n)
        estimate = quality + math.sqrt(group.noise_var) * mc._normals(gen, n)
        if dm_mode == "bayesian":
            rho_sq = correlation_coefficient(group, eta_sq) ** 2
            stat = estimate * rho_sq + (1.0 - rho_sq) * m
        else:
            stat = estimate
    return stat


def reference_selection_probability(
    m, theta, group, eta_sq, n, seed, dm_mode="bayesian", stream=0
):
    """The selection-probability oracle as it was before it counted its hits:
    the mean and sample deviation of a float copy of them.  The reference
    for :func:`mc_selection_probability`."""
    stat = reference_statistic(m, group, eta_sq, n, seed, dm_mode, stream)
    hits = (stat >= theta).astype(float)
    return mc._estimate(hits, seed)


def reference_selection_quality(strategies, thresholds, config, n, seed, stream=0):
    """The selection-quality oracle as it was before it worked in place; the
    reference for :func:`mc_selection_quality`."""
    views = effective_groups(config)
    if isinstance(thresholds, (int, float)):
        thresholds = [float(thresholds)] * len(views)
    gen = mc._generator(seed, stream)
    u_group = gen.random(n)
    z_stat = mc._normals(gen, n)
    z_resid = mc._normals(gen, n)
    u_effort = gen.random(n)

    value = np.zeros(n)
    edges = np.cumsum([v.share for v in views])
    lower = 0.0
    for params, strategy, theta, edge in zip(config.groups, strategies, thresholds, edges):
        eta, stat_var, resid_var = mc._variances(params, config)
        resid_sd = math.sqrt(max(resid_var, 0.0))
        idx = np.flatnonzero((u_group >= lower) & (u_group < edge))
        lower = edge
        if not idx.size:
            continue
        efforts = mc._sample_efforts(strategy, u_effort.take(idx))
        stat = efforts + math.sqrt(stat_var) * z_stat.take(idx)
        if config.dm_mode == "bayesian":
            quality = stat + resid_sd * z_resid.take(idx)
        else:
            beta = eta / stat_var
            quality = efforts + beta * (stat - efforts) + resid_sd * z_resid.take(idx)
        quality *= stat >= theta
        value[idx] = quality
    return mc._estimate(value, seed)


# Sample counts from the floor up, odd ones included; thresholds of +-60 select
# every draw or none (|z| < 8.3).
SAMPLE_COUNTS = st.sampled_from([1_000, 1_001, 4_099, 10_007])
THRESHOLDS = st.one_of(st.floats(-3.0, 6.0), st.sampled_from([-60.0, 60.0]))
DM_MODES = st.sampled_from(["bayesian", "oblivious"])


@st.composite
def oracle_groups(draw, dm_mode, eta_sq):
    """A group with a noise variance (0 included), a quality variance
    override, or a spread override the quality oracle can realize."""
    kind = draw(st.sampled_from(["noise", "noiseless", "eta_override", "sigma_tilde"]))
    share, cost = 1.0, draw(st.floats(0.5, 5.0))
    if kind == "noise":
        return GroupParams("G", share, cost, noise_var=draw(st.floats(0.01, 5.0)))
    if kind == "noiseless":
        return GroupParams("G", share, cost, noise_var=0.0)
    if kind == "eta_override":
        return GroupParams("G", share, cost, noise_var=draw(st.floats(0.0, 5.0)),
                           eta_sq=draw(st.floats(0.2, 3.0)))
    # Bayesian statistics are no wider than quality, oblivious no narrower.
    scale = draw(st.floats(0.1, 1.0) if dm_mode == "bayesian" else st.floats(1.0, 3.0))
    return GroupParams("G", share, cost, noise_var=1.0,
                       sigma_tilde=scale * math.sqrt(eta_sq))


@st.composite
def strategies_for(draw):
    low = draw(st.floats(0.0, 4.0))
    if draw(st.booleans()):
        return EffortDistribution.point(low)
    tau = draw(st.floats(0.05, 0.95))
    return EffortDistribution(((low, 1.0 - tau), (low + draw(st.floats(0.1, 4.0)), tau)))


@given(data=st.data(), dm_mode=DM_MODES, n=SAMPLE_COUNTS, m=st.floats(0.0, 4.0),
       eta_sq=st.floats(0.2, 3.0), seed=st.integers(0, 2**40))
@settings(max_examples=200, deadline=None)
def test_selection_probability_matches_the_reference(data, dm_mode, n, m, eta_sq, seed):
    group = data.draw(oracle_groups(dm_mode, eta_sq))
    # A threshold equal to one of the draws moves the count when that draw
    # moves by one ulp, so those thresholds pin the statistic's arithmetic.
    at_draw = data.draw(st.none() | st.integers(0, n - 1))
    if at_draw is None:
        theta = data.draw(THRESHOLDS)
    else:
        stat = reference_statistic(m, group, eta_sq, n, seed, dm_mode, stream=3)
        theta = float(stat[at_draw])
    args = (m, theta, group, eta_sq, n, seed)
    est = mc_selection_probability(*args, dm_mode=dm_mode, stream=3)
    ref = reference_selection_probability(*args, dm_mode=dm_mode, stream=3)
    assert est.mean == ref.mean and type(est.mean) is float
    assert abs(est.std_error - ref.std_error) <= 1e-12 * ref.std_error
    assert (est.n, est.seed) == (ref.n, ref.seed)
    if abs(theta) == 60.0:
        assert est.mean == (1.0 if theta < 0 else 0.0)
        assert est.std_error == 0.0


@given(data=st.data(), dm_mode=DM_MODES, n=SAMPLE_COUNTS,
       n_groups=st.integers(1, 4), eta_sq=st.floats(0.2, 3.0), seed=st.integers(0, 2**40))
@settings(max_examples=150, deadline=None)
def test_selection_quality_matches_the_reference(data, dm_mode, n, n_groups, eta_sq, seed):
    weights = data.draw(st.lists(st.floats(0.1, 1.0), min_size=n_groups, max_size=n_groups))
    groups = []
    for k, w in enumerate(weights):
        g = data.draw(oracle_groups(dm_mode, eta_sq))
        groups.append(GroupParams(f"G{k}", w / sum(weights), g.cost, g.noise_var,
                                  g.eta_sq, g.sigma_tilde))
    config = GameConfig(reward=1.0, alpha=0.5, eta_sq=eta_sq, dm_mode=dm_mode,
                        groups=tuple(groups))
    strategies = [data.draw(strategies_for()) for _ in groups]
    thresholds = data.draw(st.one_of(
        THRESHOLDS, st.lists(THRESHOLDS, min_size=n_groups, max_size=n_groups)))
    est = mc_selection_quality(strategies, thresholds, config, n, seed, stream=2)
    ref = reference_selection_quality(strategies, thresholds, config, n, seed, stream=2)
    assert est == ref


# Span-crossing sample counts: odd counts start every array after the first
# off a Philox counter step of four doubles.
SPAN_COUNTS = [mc.CHUNK - 1, mc.CHUNK, mc.CHUNK + 1, 3 * mc.CHUNK + 3]


@pytest.mark.parametrize("offset", [*range(10), mc.CHUNK - 1, mc.CHUNK + 1, 3 * mc.CHUNK + 5])
def test_positioned_generator_continues_the_stream(offset):
    positioned = mc._generator(5, 3, offset).random(9)
    assert (positioned == mc._generator(5, 3).random(offset + 9)[offset:]).all()


def _span_quality_game(dm_mode):
    config = GameConfig(
        reward=1.0, alpha=0.5, eta_sq=1.0, dm_mode=dm_mode,
        groups=(
            GroupParams("A", 0.3, 1.0, noise_var=2.0),
            GroupParams("B", 0.5, 1.0, noise_var=0.0),
            GroupParams("C", 0.2, 1.0, noise_var=0.5, eta_sq=1.5),
        ),
    )
    mixed = EffortDistribution(((0.5, 0.7), (2.5, 0.3)))
    return config, [mixed, EffortDistribution.point(1.0), EffortDistribution.point(0.2)]


@pytest.mark.parametrize("n", SPAN_COUNTS)
@pytest.mark.parametrize("dm_mode", ["bayesian", "oblivious"])
@pytest.mark.parametrize("group", [
    GroupParams("A", 1.0, 1.0, noise_var=2.0),
    GroupParams("A", 1.0, 1.0, noise_var=0.5, eta_sq=1.5),
    GroupParams("A", 1.0, 1.0, noise_var=1.0, sigma_tilde=0.7),
])
def test_selection_probability_across_spans_matches_the_reference(n, dm_mode, group):
    args = (1.0, 1.2, group, 1.0, n, 17)
    est = mc_selection_probability(*args, dm_mode=dm_mode, stream=5)
    ref = reference_selection_probability(*args, dm_mode=dm_mode, stream=5)
    assert est.mean == ref.mean
    assert abs(est.std_error - ref.std_error) <= 1e-12 * ref.std_error


@pytest.mark.parametrize("n", SPAN_COUNTS)
@pytest.mark.parametrize("dm_mode", ["bayesian", "oblivious"])
@pytest.mark.parametrize("mixed", [True, False])
def test_selection_quality_across_spans_matches_the_reference(n, dm_mode, mixed):
    config, strategies = _span_quality_game(dm_mode)
    if not mixed:  # no strategy reads the effort uniforms, which are not drawn
        strategies[0] = EffortDistribution.point(0.5)
    thresholds = [1.0, 0.8, 1.4]
    est = mc_selection_quality(strategies, thresholds, config, n, 17, stream=6)
    assert est == reference_selection_quality(strategies, thresholds, config, n, 17, stream=6)


def test_estimates_do_not_depend_on_the_worker_count(monkeypatch):
    n = 3 * mc.CHUNK + 3
    config, strategies = _span_quality_game("bayesian")
    group = config.groups[0]
    estimates = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(mc, "_WORKERS", workers)
        estimates.append((
            mc_selection_probability(1.0, 1.2, group, 1.0, n, 23, stream=1),
            mc_selection_quality(strategies, 1.0, config, n, 23, stream=2),
        ))
    assert estimates[0] == estimates[1] == estimates[2]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_draws_on_a_pool_of_its_own(monkeypatch):
    # A forked child inherits the parent's pool object but none of its
    # threads; spans submitted to it would wait forever.
    monkeypatch.setattr(mc, "_WORKERS", 2)
    group = GroupParams("A", 1.0, 1.0, noise_var=2.0)
    args = (1.0, 0.5, group, 1.0, 2 * mc.CHUNK, 1)
    parent = mc_selection_probability(*args)  # starts the parent's pool

    def child():
        sys.exit(0 if mc_selection_probability(*args) == parent else 1)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(60)
    if proc.is_alive():
        proc.kill()
        proc.join()
    assert proc.exitcode == 0


@pytest.mark.parametrize("dm_mode", ["bayesian", "oblivious"])
def test_selection_quality_peak_memory(monkeypatch, dm_mode):
    # The draws live in spans of CHUNK, so one call holds the value array,
    # the estimate's deviation temporary and a few spans per worker; drawing
    # all four arrays at once took about seven arrays of n doubles.
    monkeypatch.setattr(mc, "_WORKERS", 2)
    n = 750_000
    config, strategies = _span_quality_game(dm_mode)
    mc_selection_quality(strategies, 1.0, config, 2 * mc.CHUNK, seed=1)  # start the pool
    tracemalloc.start()
    try:
        mc_selection_quality(strategies, 1.0, config, n, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * n


def test_selection_probability_peak_memory():
    # The draws are scaled in place and the hits counted, so one call holds
    # about two arrays of n doubles at once; the full-size temporaries of a
    # float hit array and its deviation would take five.
    n = 200_000
    g = GroupParams("A", 1.0, 1.0, noise_var=2.0)
    mc_selection_probability(1.0, 0.5, g, 1.0, n, seed=1)  # load numpy and scipy
    tracemalloc.start()
    try:
        mc_selection_probability(1.0, 0.5, g, 1.0, n, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * n


@pytest.mark.parametrize("word, value", [
    ("seed", -1), ("seed", -5), ("seed", 2**64), ("seed", 2**70),
    # A masked stream -1 drew the samples of stream 2**64 - 1.
    ("stream", -1), ("stream", 2**64),
])
def test_both_oracles_reject_a_key_word_outside_the_philox_key(
    monkeypatch, word, value, small_reward_config
):
    def no_draws(*args):
        raise AssertionError("drew samples")

    monkeypatch.setattr(mc, "_generator", no_draws)
    g = GroupParams("A", 1.0, 1.0, noise_var=1.0)
    key = {"seed": 1, word: value}
    message = re.escape(f"{word} must lie in [0, 2**64), got {value}")
    with pytest.raises(ValueError, match=message):
        mc_selection_probability(1.0, 1.0, g, 1.0, N, **key)
    strategies = [EffortDistribution.point(1.0)] * 2
    with pytest.raises(ValueError, match=message):
        mc_selection_quality(strategies, 0.0, small_reward_config, N, **key)


def test_both_oracles_take_the_top_seed(small_reward_config):
    g = GroupParams("A", 1.0, 1.0, noise_var=1.0)
    seed = 2**64 - 1
    assert mc_selection_probability(1.0, 1.0, g, 1.0, MIN_SAMPLES, seed=seed).seed == seed
    strategies = [EffortDistribution.point(1.0)] * 2
    assert mc_selection_quality(strategies, 0.0, small_reward_config, MIN_SAMPLES, seed).seed == seed


class TestSelectionProbabilityOracle:
    def test_at_threshold(self):
        g = GroupParams("A", 1.0, 1.0, noise_var=2.0)
        est = mc_selection_probability(1.5, 1.5, g, 1.0, N, seed=3)
        assert abs(est.mean - 0.5) <= 3.0 * est.std_error
        assert est.n == N
        assert est.std_error == pytest.approx(0.5 / N**0.5, rel=0.05)

    def test_seeded_reproducibility(self):
        g = GroupParams("A", 1.0, 1.0, noise_var=2.0)
        one = mc_selection_probability(1.0, 0.5, g, 1.0, N, seed=9)
        two = mc_selection_probability(1.0, 0.5, g, 1.0, N, seed=9)
        assert one == two
        other_stream = mc_selection_probability(1.0, 0.5, g, 1.0, N, seed=9, stream=1)
        assert other_stream.mean != one.mean

    def test_noiseless_reduces_to_quality_draw(self):
        g = GroupParams("A", 1.0, 1.0, noise_var=0.0)
        est = mc_selection_probability(1.0, 0.2, g, 1.0, N, seed=5)
        from stratselect.kernel import normal_cdf

        assert abs(est.mean - normal_cdf(0.8)) <= 3.0 * est.std_error

    def test_matches_analytic_formula(self):
        rng = np.random.default_rng(0)
        for k in range(5):
            noise = float(rng.uniform(0.0, 4.0))
            eta = float(rng.uniform(0.5, 2.0))
            m = float(rng.uniform(0.0, 2.0))
            theta = float(rng.uniform(-1.0, 2.0))
            g = GroupParams("A", 1.0, 1.0, noise_var=noise)
            sigma = posterior_variance(g, eta, "bayesian") ** 0.5
            est = mc_selection_probability(m, theta, g, eta, N, seed=100 + k)
            assert abs(est.mean - point_rate(m, theta, sigma)) <= max(
                3.0 * est.std_error, 1e-4
            )

    def test_oblivious_mode(self):
        g = GroupParams("A", 1.0, 1.0, noise_var=3.0)
        est = mc_selection_probability(
            1.0, 0.8, g, 1.0, N, seed=21, dm_mode="oblivious"
        )
        assert abs(est.mean - point_rate(1.0, 0.8, 2.0)) <= 3.0 * est.std_error

    def test_spread_override_sampling(self):
        g = GroupParams("A", 1.0, 1.0, noise_var=99.0, sigma_tilde=0.1)
        est = mc_selection_probability(1.0, 1.05, g, 1.0, N, seed=33)
        assert abs(est.mean - point_rate(1.0, 1.05, 0.1)) <= 3.0 * est.std_error

    def test_sample_floor(self):
        g = GroupParams("A", 1.0, 1.0)
        with pytest.raises(ValueError):
            mc_selection_probability(1.0, 1.0, g, 1.0, 999, seed=0)

    def test_unknown_dm_mode_raises(self):
        g = GroupParams("A", 1.0, 1.0, noise_var=2.0)
        with pytest.raises(ValueError, match="unknown dm_mode 'Bayesian'"):
            mc_selection_probability(1.0, 1.0, g, 1.0, N, seed=0, dm_mode="Bayesian")


class TestSelectionQualityOracle:
    def test_everyone_selected(self, small_reward_config):
        strategies = [EffortDistribution.point(1.0), EffortDistribution.point(2.5)]
        est = mc_selection_quality(strategies, -60.0, small_reward_config, N, seed=2)
        assert abs(est.mean - 1.75) <= 3.0 * est.std_error

    def test_half_normal_single_group(self):
        config = GameConfig(
            reward=1.0, alpha=0.5, eta_sq=1.0,
            groups=(GroupParams("A", 1.0, 1.0, noise_var=0.0),),
        )
        est = mc_selection_quality(
            [EffortDistribution.point(0.0)], 0.0, config, N, seed=4
        )
        assert abs(est.mean - 0.3989422804014327) <= 3.0 * est.std_error

    def test_matches_analytic_with_mixtures(self, noise_gap_config):
        views = effective_groups(noise_gap_config)
        strategies = [
            EffortDistribution(((0.0, 0.6), (4.4, 0.4))),
            EffortDistribution.point(1.0),
        ]
        thresholds = [4.2, 4.2]
        outcomes = tuple(
            GroupOutcome(v.label, t, s, s.mean(), 0.0)
            for v, s, t in zip(views, strategies, thresholds)
        )
        analytic = quality_from_outcomes(views, outcomes)
        est = mc_selection_quality(strategies, thresholds, noise_gap_config, N, seed=6)
        assert abs(est.mean - analytic) <= 3.0 * est.std_error

    @pytest.mark.parametrize("dm_mode, sigma_tilde", [("bayesian", 2.0), ("oblivious", 0.5)])
    def test_unrealizable_spread_raises_before_drawing(self, monkeypatch, dm_mode, sigma_tilde):
        config = GameConfig(
            reward=1.0, alpha=0.5, eta_sq=1.0, dm_mode=dm_mode,
            groups=(
                GroupParams("A", 0.5, 1.0, noise_var=1.0),
                GroupParams("B", 0.5, 1.0, sigma_tilde=sigma_tilde),
            ),
        )
        assert [p.split(":")[0] for p in mc.realizability_problems(config)] == ["group 'B'"]

        def no_draws(*args):
            raise AssertionError("drew samples")

        monkeypatch.setattr(mc, "_generator", no_draws)
        strategies = [EffortDistribution.point(0.0)] * 2
        with pytest.raises(ValueError, match="group 'B'"):
            mc_selection_quality(strategies, 0.0, config, N, seed=0)

    def test_oblivious_quality(self):
        config = GameConfig(
            reward=1.0, alpha=0.5, eta_sq=1.0, dm_mode="oblivious",
            groups=(
                GroupParams("A", 0.5, 1.0, noise_var=1.0),
                GroupParams("B", 0.5, 1.0, noise_var=0.0),
            ),
        )
        views = effective_groups(config)
        strategies = [EffortDistribution.point(1.0), EffortDistribution.point(0.5)]
        outcomes = tuple(
            GroupOutcome(v.label, 0.8, s, s.mean(), 0.0)
            for v, s in zip(views, strategies)
        )
        analytic = quality_from_outcomes(views, outcomes)
        est = mc_selection_quality(strategies, 0.8, config, N, seed=8)
        assert abs(est.mean - analytic) <= 3.0 * est.std_error

    def test_reproducible(self, small_reward_config):
        strategies = [EffortDistribution.point(0.5), EffortDistribution.point(0.3)]
        one = mc_selection_quality(strategies, 0.9, small_reward_config, N, seed=12)
        two = mc_selection_quality(strategies, 0.9, small_reward_config, N, seed=12)
        assert one == two


class TestGridArgmax:
    def test_far_threshold_collapses(self, unit_group):
        assert grid_argmax_payoff(50.0, unit_group, 10.0) == 0.0

    def test_matches_best_response(self, unit_group):
        curve = ResponseCurve(unit_group, 100.0)
        for theta in (-0.5, 0.5, 1.5, 2.5):
            grid_best = grid_argmax_payoff(theta, unit_group, 100.0, 10_000)
            brs = curve.best_response(theta)
            step = ((2.0 * 100.0) ** 0.5 + 6.0) / 9_999
            assert min(abs(grid_best - b) for b in brs) <= step

    def test_half_dropout_threshold(self, unit_group):
        curve = ResponseCurve(unit_group, 100.0)
        theta = 0.5 * curve.info.theta_d
        grid_best = grid_argmax_payoff(theta, unit_group, 100.0, 10_000)
        (br,) = curve.best_response(theta)
        step = ((2.0 * 100.0) ** 0.5 + 6.0) / 9_999
        assert abs(grid_best - br) <= step

    def test_above_dropout_near_zero(self, unit_group):
        info = ResponseCurve(unit_group, 100.0).info
        step = ((2.0 * 100.0) ** 0.5 + 6.0) / 9_999
        assert grid_argmax_payoff(info.theta_d * 1.5, unit_group, 100.0) <= step

    def test_single_point_grid(self, unit_group):
        assert grid_argmax_payoff(0.5, unit_group, 10.0, grid_points=1) == 0.0
