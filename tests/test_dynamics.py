import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stratselect.dynamics as dynamics_module
from stratselect.best_response import ResponseCurve
from stratselect.dynamics import (
    CYCLE_MIN_AMPLITUDE,
    CYCLE_TOL,
    MAX_CYCLE_PERIOD,
    _CycleDetector,
    _step,
    induced_threshold,
    run,
)
from stratselect.equilibrium import Game, solve_unconstrained
from stratselect.model import EffortDistribution, GameConfig, GroupParams

from conftest import random_games


def single_group_config(alpha, sigma=1.0):
    return GameConfig(
        reward=2.0,
        alpha=alpha,
        eta_sq=1.0,
        groups=(GroupParams("A", 1.0, 1.0, sigma_tilde=sigma),),
    )


class TestInducedThreshold:
    def test_median_of_point_mass(self):
        config = single_group_config(alpha=0.5)
        theta = induced_threshold([EffortDistribution.point(1.3)], Game(config))
        assert theta == pytest.approx(1.3, abs=1e-10)

    def test_one_spread_quantile(self):
        # alpha = 1 - Phi(1) puts the threshold one spread above the effort.
        config = single_group_config(alpha=0.15865525393145707)
        theta = induced_threshold([EffortDistribution.point(2.0)], Game(config))
        assert theta == pytest.approx(3.0, abs=1e-9)

    def test_symmetric_mixture_matches_single_group(self, symmetric_config):
        strategy = EffortDistribution.point(0.7)
        theta_two = induced_threshold([strategy, strategy], Game(symmetric_config))
        solo = GameConfig(
            reward=symmetric_config.reward,
            alpha=symmetric_config.alpha,
            eta_sq=symmetric_config.eta_sq,
            groups=(dataclasses.replace(symmetric_config.groups[0], share=1.0),),
        )
        theta_one = induced_threshold([strategy], Game(solo))
        assert theta_two == pytest.approx(theta_one, abs=1e-10)

    def test_strategy_count_mismatch(self, symmetric_config):
        with pytest.raises(ValueError):
            induced_threshold([EffortDistribution.point(0.0)], Game(symmetric_config))


def test_wrong_length_init_fails_before_any_dropout_search(monkeypatch):
    # Both groups are above their critical reward, so each curve searches.
    config = GameConfig(
        reward=10.0,
        alpha=0.1,
        eta_sq=1.0,
        groups=(GroupParams("H", 0.5, 1.0, sigma_tilde=0.1),
                GroupParams("L", 0.5, 1.0, sigma_tilde=1.0)),
    )
    searches = []
    real = ResponseCurve._search_dropout

    def counted(self):
        searches.append(self)
        return real(self)

    monkeypatch.setattr(ResponseCurve, "_search_dropout", counted)
    with pytest.raises(ValueError, match="need one strategy per group"):
        run(Game(config), init=(EffortDistribution.point(0.0),))
    assert searches == []
    run(Game(config), max_steps=1)
    assert len(searches) == 2


class TestSteps:
    """The first step of :func:`run`."""

    def test_equilibrium_is_fixed_point(self, small_reward_config):
        eq = solve_unconstrained(small_reward_config)
        init = tuple(o.strategy for o in eq.outcomes)
        stepped = run(Game(small_reward_config), max_steps=1, init=init).states[1]
        assert stepped.theta == pytest.approx(eq.threshold, abs=1e-8)
        for before, after in zip(init, stepped.strategies):
            assert after.mean() == pytest.approx(before.mean(), abs=1e-8)

    def test_threshold_invariant_after_step(self, small_reward_config):
        stepped = run(Game(small_reward_config), max_steps=1).states[1]
        rebuilt = induced_threshold(stepped.strategies, Game(small_reward_config))
        assert stepped.theta == pytest.approx(rebuilt, abs=1e-10)

    def test_fp_with_unit_history_equals_br(self, small_reward_config):
        init = (EffortDistribution.point(0.2), EffortDistribution.point(0.4))
        via_br = run(Game(small_reward_config), "br", max_steps=1, init=init).states[1]
        via_fp = run(Game(small_reward_config), "fp", max_steps=1, init=init).states[1]
        assert via_fp.theta == pytest.approx(via_br.theta, abs=1e-12)
        for a, b in zip(via_br.strategies, via_fp.strategies):
            assert a.support == b.support

    @pytest.mark.parametrize("mode", ["br", "fp"])
    def test_run_searches_each_dropout_once(self, noise_gap_config, monkeypatch, mode):
        searches = []
        real = ResponseCurve._search_dropout

        def counted(curve):
            searches.append(curve.group.label)
            real(curve)

        monkeypatch.setattr(ResponseCurve, "_search_dropout", counted)
        run(Game(noise_gap_config), mode, max_steps=20)
        assert sorted(searches) == ["H", "L"]

    @pytest.mark.parametrize("mode", ["br", "fp"])
    def test_run_starts_from_the_induced_threshold(self, noise_gap_config, monkeypatch, mode):
        # One call per run, through the module's name, so a traced run counts it.
        calls = []

        def counted(strategies, game):
            calls.append(game)
            return induced_threshold(strategies, game)

        init = (EffortDistribution.point(0.5), EffortDistribution.point(1.5))
        game = Game(noise_gap_config)
        monkeypatch.setattr(dynamics_module, "induced_threshold", counted)
        trace = run(game, mode, max_steps=20, init=init)
        assert calls == [game]
        assert trace.states[0].theta == induced_threshold(init, game)


class TestRun:
    def test_smooth_regime_converges(self, small_reward_config):
        eq = solve_unconstrained(small_reward_config)
        trace = run(Game(small_reward_config), mode="br", max_steps=500, tol=1e-10)
        assert trace.convergence.status == "converged"
        assert trace.convergence.theta == pytest.approx(eq.threshold, abs=1e-8)

    def test_smooth_regime_contracts(self, small_reward_config):
        eq = solve_unconstrained(small_reward_config)
        trace = run(Game(small_reward_config), mode="br", max_steps=60, tol=0.0)
        errors = [abs(s.theta - eq.threshold) for s in trace.states[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))

    def test_pinned_regime_cycles(self, noise_gap_config):
        trace = run(Game(noise_gap_config), mode="br", max_steps=500)
        assert trace.convergence.status == "cycle"
        assert trace.convergence.period >= 2
        assert trace.cycle_avg_effort is not None

    def test_cycle_effort_dominates_equilibrium(self, noise_gap_config):
        eq = solve_unconstrained(noise_gap_config)
        trace = run(Game(noise_gap_config), mode="br", max_steps=500)
        for avg, outcome in zip(trace.cycle_avg_effort, eq.outcomes):
            assert avg >= outcome.avg_effort - 1e-9

    def test_fp_converges_in_smooth_regime(self, small_reward_config):
        eq = solve_unconstrained(small_reward_config)
        trace = run(Game(small_reward_config), mode="fp", max_steps=3000, tol=1e-7)
        assert trace.convergence.status == "converged"
        assert abs(trace.states[-1].belief - eq.threshold) <= 1e-4

    def test_fp_belief_approaches_equilibrium(self, noise_gap_config):
        eq = solve_unconstrained(noise_gap_config)
        trace = run(Game(noise_gap_config), mode="fp", max_steps=3000)
        beliefs = [s.belief for s in trace.states]
        final_err = abs(beliefs[-1] - eq.threshold)
        assert final_err <= 1e-3
        earlier_err = abs(beliefs[1000] - eq.threshold)
        assert final_err < earlier_err

    def test_determinism(self, noise_gap_config):
        one = run(Game(noise_gap_config), mode="br", max_steps=120)
        two = run(Game(noise_gap_config), mode="br", max_steps=120)
        assert [s.theta for s in one.states] == [s.theta for s in two.states]
        assert one.convergence == two.convergence

    def test_twin_groups_share_one_curve(self, monkeypatch):
        # A and B share (cost, spread), so each step solves two best
        # responses, not three.
        taus = []
        real = ResponseCurve._best_response

        def counted(curve, tau):
            taus.append(tau)
            return real(curve, tau)

        monkeypatch.setattr(ResponseCurve, "_best_response", counted)
        config = GameConfig(
            reward=100.0, alpha=0.2, eta_sq=1.0,
            groups=(
                GroupParams("A", 0.2, 1.0, sigma_tilde=0.5),
                GroupParams("B", 0.3, 1.0, sigma_tilde=0.5),
                GroupParams("C", 0.5, 1.5, sigma_tilde=1.0),
            ),
        )
        trace = run(Game(config), mode="fp", max_steps=200)
        assert trace.convergence.status == "max_steps_reached"
        assert len(taus) == 2 * 200

    def test_max_steps_status(self, noise_gap_config):
        trace = run(Game(noise_gap_config), mode="fp", max_steps=5)
        assert trace.convergence.status == "max_steps_reached"
        assert len(trace.states) == 6

    def test_rejects_bad_mode_and_steps(self, noise_gap_config):
        with pytest.raises(ValueError):
            run(Game(noise_gap_config), mode="sgd")
        with pytest.raises(ValueError):
            run(Game(noise_gap_config), max_steps=0)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_rejects_a_tol_that_cannot_fire_or_always_fires(self, noise_gap_config, tol):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            run(Game(noise_gap_config), tol=tol)

    def test_custom_init(self, small_reward_config):
        init = (EffortDistribution.point(0.5), EffortDistribution.point(0.1))
        trace = run(Game(small_reward_config), mode="br", max_steps=300, init=init)
        assert trace.convergence.status == "converged"


def assert_validated_alike(strategy):
    """``strategy``, built by a step with no ``__post_init__``, is what the
    validating constructor makes of its support, down to the float type."""
    assert strategy == EffortDistribution(strategy.support)
    assert all(type(x) is float for point in strategy.support for x in point)


@settings(max_examples=100, deadline=None)
@given(config=random_games(), mode=st.sampled_from(["br", "fp"]))
def test_step_strategies_equal_validated_ones(config, mode):
    for state in run(Game(config), mode, max_steps=30).states:
        for strategy in state.strategies:
            assert_validated_alike(strategy)


@settings(max_examples=100, deadline=None)
@given(config=random_games(), n=st.sampled_from([0, 3]))
def test_step_at_a_dropout_splits_its_tie(config, n):
    """A step at a curve's dropout threshold plays the tied pair 50/50 in
    both modes (``n`` = 0 steps as in br, and 3 as in fp)."""
    game = Game(config)
    views, curves = game.views, game.curves()
    for i, curve in enumerate(curves):
        info = curve.info
        if info is None:
            continue
        state = _step(info.theta_d, 0, views, curves, config.alpha, n)
        assert state.strategies[i].support == ((info.br_min, 0.5), (info.br_max, 0.5))
        for strategy in state.strategies:
            assert_validated_alike(strategy)


def test_an_unchecked_distribution_behaves_like_a_checked_one():
    support = ((0.25, 0.5), (1.5, 0.5))
    checked = EffortDistribution(support)
    unchecked = EffortDistribution._of_solved_support(support)
    assert unchecked == checked
    assert hash(unchecked) == hash(checked)
    assert repr(unchecked) == repr(checked)
    with pytest.raises(dataclasses.FrozenInstanceError):
        unchecked.support = None


def rescanning_detect_cycle(thetas):
    """The cycle check as it was before it kept runs: it rescans the tail
    on every step, and is the reference for :class:`_CycleDetector`."""
    n = len(thetas)
    for p in range(2, MAX_CYCLE_PERIOD + 1):
        if n < 3 * p:
            return None
        if abs(thetas[-1] - thetas[-1 - p]) > CYCLE_TOL:
            continue
        if not any(abs(thetas[-i] - thetas[-i - p]) > CYCLE_TOL for i in range(1, 2 * p + 1)):
            window = thetas[-p:]
            if max(window) - min(window) >= CYCLE_MIN_AMPLITUDE:
                return p
    return None


@st.composite
def theta_sequences(draw):
    """Thresholds that settle into a pattern of period 1 to 60 after a free
    prefix, which may be shorter than three periods, for three to four
    periods and 20 steps.  The pattern swings by about CYCLE_MIN_AMPLITUDE;
    each step adds 0 or a noise just below, at or above CYCLE_TOL or at 2 *
    CYCLE_TOL, and up to two steps break the run.  What the sorted window of
    :class:`_CycleDetector` could get wrong has a draw each: a base of
    magnitude up to 1e12, where an ulp exceeds CYCLE_TOL, or of 0, where the
    noise is the exact difference of some pairs; up to three steps that
    repeat a threshold up to MAX_CYCLE_PERIOD + 2 steps back exactly; and a
    tail longer than MAX_CYCLE_PERIOD + 2 steps, so thresholds leave the
    window."""
    p = draw(st.integers(1, 60))
    base = draw(st.floats(-10.0, 10.0)) * draw(st.sampled_from([0.0, 1.0, 1e4, 1e8, 1e12]))
    swing = CYCLE_MIN_AMPLITUDE * draw(st.sampled_from([0.5, 0.999, 1.0, 1.001, 2.0, 1e3, 1e6]))
    inner = draw(st.lists(st.floats(0.0, 1.0), min_size=max(p - 2, 0), max_size=max(p - 2, 0)))
    pattern = draw(st.permutations([0.0, 1.0, *inner][:p]))
    prefix = draw(st.lists(st.floats(base - 1.0, base + 1.0), max_size=3 * p + 5))
    length = draw(st.integers(3 * p, 4 * p + 20))
    length += draw(st.sampled_from([0, MAX_CYCLE_PERIOD + 3]))
    noise = CYCLE_TOL * draw(st.sampled_from([0.0, 0.5, 0.99, 1.0, 1.01, 2.0]))
    noisy = draw(st.lists(st.booleans(), min_size=length, max_size=length))
    breaks = draw(st.sets(st.integers(0, max(length - 1, 0)), max_size=2))
    tail = [
        base + swing * pattern[i % p] + noise * bump + (1.0 if i in breaks else 0.0)
        for i, bump in enumerate(noisy)
    ]
    thetas = prefix + tail
    repeats = st.tuples(st.integers(0, len(thetas) - 1), st.integers(1, MAX_CYCLE_PERIOD + 2))
    for i, back in draw(st.lists(repeats, max_size=3)):
        if i >= back:
            thetas[i] = thetas[i - back]
    return thetas


@settings(max_examples=300, deadline=None)
@given(thetas=theta_sequences())
# A period-50 cycle, whose only pairs are the oldest thresholds of the window;
# a period-2 cycle at 1e12, where an ulp exceeds CYCLE_TOL and only equal
# thresholds pair; and pairs exactly CYCLE_TOL and 2 * CYCLE_TOL apart.
@example(thetas=[float(i % MAX_CYCLE_PERIOD) for i in range(3 * MAX_CYCLE_PERIOD + 5)])
@example(thetas=[1e12 + (i % 2) * 2.0**-13 for i in range(12)])
@example(thetas=[(i % 2) * CYCLE_MIN_AMPLITUDE + (i % 4 == 0) * CYCLE_TOL for i in range(16)])
@example(thetas=[(i % 2) * CYCLE_MIN_AMPLITUDE + (i % 4 == 0) * 2 * CYCLE_TOL for i in range(16)])
def test_cycle_detector_matches_the_rescan(thetas):
    detector = _CycleDetector(thetas[0])
    for n in range(2, len(thetas) + 1):
        assert detector.push(thetas[n - 1]) == rescanning_detect_cycle(thetas[:n])
