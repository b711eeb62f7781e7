import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import stratselect.equilibrium as equilibrium
from stratselect.best_response import (
    ResponseCurve,
    best_response,
    critical_reward,
    dropout_threshold,
    payoff,
)
from stratselect.equilibrium import (
    excess_mass,
    max_deviation_gain,
    solve_demographic_parity,
    solve_unconstrained,
    solver_bracket,
)
from stratselect.kernel import normal_cdf, normal_pdf
from stratselect.mc import grid_argmax_payoff
from stratselect.metrics import asymptotic_predictions
from stratselect.model import GameConfig, GroupParams, effective_groups, validate

from conftest import two_group_config


def smooth_oracle(config, theta0, damping=0.5, steps=4000):
    """Independent equilibrium search for the no-dropout regime: solve each
    group's first-order condition by bisection, update the threshold from the
    selection budget, and damp the iteration.  Shares no code path with the
    production solver beyond scipy primitives."""
    views = effective_groups(config)
    theta = theta0
    for _ in range(steps):
        efforts = []
        for v in views:
            f = lambda m: (config.reward / v.sigma) * math.exp(
                -0.5 * ((theta - m) / v.sigma) ** 2
            ) / math.sqrt(2 * math.pi) - v.cost * m
            hi = config.reward / (v.cost * v.sigma * math.sqrt(2 * math.pi)) + 1.0
            efforts.append(brentq(f, 0.0, hi, xtol=1e-14))
        def budget(t):
            return sum(
                v.share * (1.0 - normal_cdf((t - m) / v.sigma))
                for v, m in zip(views, efforts)
            ) - config.alpha
        lo, hi = min(efforts) - 10.0, max(efforts) + 10.0
        target = brentq(budget, lo, hi, xtol=1e-14)
        new_theta = (1.0 - damping) * theta + damping * target
        if abs(new_theta - theta) < 1e-13:
            theta = new_theta
            break
        theta = new_theta
    return theta


def grid_oracle(config, points=200_001, steps=50):
    """Independent equilibrium threshold for any regime: take each group's
    best response from the brute-force grid argmax of its payoff, then bisect
    the selected mass against ``alpha``.  The mass falls as the threshold
    rises and jumps down at a dropout, so the bisection lands on a pinned
    dropout as readily as on a smooth crossing.  Returns the threshold and
    each group's grid best response there.  Shares no code path with the
    production solver: the grid argmax is the oracle ``verify`` and the
    acceptance suite already check best responses against."""
    views = effective_groups(config)

    def responses(theta):
        return [grid_argmax_payoff(theta, v, config.reward, points) for v in views]

    def mass(theta):
        return sum(
            v.share * normal_cdf((m - theta) / v.sigma)
            for v, m in zip(views, responses(theta))
        )

    lo = 0.0
    hi = max(math.sqrt(2.0 * config.reward / v.cost) + 10.0 * v.sigma for v in views)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mass(mid) > config.alpha:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return theta, responses(theta)


def noise_split_config(reward, dm_mode="bayesian"):
    """Equal costs; H sees estimate noise 3, L none.  Bayesian spreads are
    0.5 (H) and 1 (L), oblivious spreads 2 (H) and 1 (L)."""
    return GameConfig(
        reward=reward, alpha=0.1, eta_sq=1.0, dm_mode=dm_mode,
        groups=(
            GroupParams("H", 0.5, 1.0, noise_var=3.0),
            GroupParams("L", 0.5, 1.0, noise_var=0.0),
        ),
    )


class TestSolverBracket:
    def test_single_group_lower_end(self):
        config = GameConfig(
            reward=2.0, alpha=0.5, eta_sq=1.0,
            groups=(GroupParams("A", 1.0, 1.0, sigma_tilde=1.0),),
        )
        lo, hi = solver_bracket(config)
        assert lo == pytest.approx(0.0, abs=1e-10)
        assert hi == pytest.approx(2.0, abs=1e-10)  # sqrt(2 S / C)

    def test_ordered_for_any_config(self, noise_gap_config, small_reward_config):
        for config in (noise_gap_config, small_reward_config):
            lo, hi = solver_bracket(config)
            assert lo < hi

    def test_brackets_the_selected_mass(self, noise_gap_config):
        lo, hi = solver_bracket(noise_gap_config)
        assert excess_mass(lo, noise_gap_config).mass_hi >= noise_gap_config.alpha
        assert excess_mass(hi, noise_gap_config).mass_lo <= noise_gap_config.alpha


class TestExcessMass:
    def test_low_threshold_limit(self, noise_gap_config):
        ev = excess_mass(-50.0, noise_gap_config)
        assert ev.mass_lo == pytest.approx(1.0, abs=1e-12)
        assert ev.mass_lo == ev.mass_hi

    def test_far_above_dropouts(self, noise_gap_config):
        views = effective_groups(noise_gap_config)
        top = max(
            dropout_threshold(v, noise_gap_config.reward).theta_d for v in views
        )
        ev = excess_mass(top + 5.0, noise_gap_config)
        assert ev.mass_hi < noise_gap_config.alpha

    def test_straddles_at_single_group_dropout(self):
        config = GameConfig(
            reward=10.0, alpha=0.3, eta_sq=1.0,
            groups=(GroupParams("A", 1.0, 1.0, sigma_tilde=1.0),),
        )
        info = dropout_threshold(effective_groups(config)[0], 10.0)
        ev = excess_mass(info.theta_d, config)
        x_lo = normal_cdf(info.br_min - info.theta_d)
        x_hi = normal_cdf(info.br_max - info.theta_d)
        assert ev.mass_lo == pytest.approx(x_lo, abs=1e-12)
        assert ev.mass_hi == pytest.approx(x_hi, abs=1e-12)
        assert ev.mass_lo < config.alpha < ev.mass_hi

    def test_dropout_hit_only_by_its_own_double(self):
        # The tied pair of the dropout search plays only at the dropout
        # double itself.  Any other threshold, however close, reads the ends
        # of its own best response, which still tie there and so straddle.
        config = GameConfig(
            reward=10.0, alpha=0.3, eta_sq=1.0,
            groups=(GroupParams("A", 1.0, 1.0, sigma_tilde=1.0),),
        )
        view = effective_groups(config)[0]
        d = dropout_threshold(view, 10.0).theta_d
        near = (math.nextafter(d, -math.inf), math.nextafter(d, math.inf),
                d * (1.0 - 1e-12), d * (1.0 + 1e-12))
        for theta in near:
            ev = excess_mass(theta, config)
            brs = best_response(theta, view, 10.0)
            assert ev.mass_lo < ev.mass_hi
            assert (ev.mass_lo, ev.mass_hi) == (
                normal_cdf(brs[0] - theta), normal_cdf(brs[-1] - theta)
            )

    def test_interval_ordering(self, noise_gap_config):
        for theta in np.linspace(-2.0, 6.0, 25):
            ev = excess_mass(float(theta), noise_gap_config)
            assert 0.0 <= ev.mass_lo <= ev.mass_hi <= 1.0


class TestUnconstrained:
    def test_noise_gap_pins_high_noise_dropout(self, noise_gap_config):
        report = solve_unconstrained(noise_gap_config)
        views = effective_groups(noise_gap_config)
        info_h = dropout_threshold(views[0], noise_gap_config.reward)
        assert report.regime == "dropout_pinned"
        assert report.mixing_group == "H"
        assert report.threshold == pytest.approx(info_h.theta_d, abs=1e-9)
        assert report.outcome("L").avg_effort < 0.01
        assert 0.0 < report.outcome("H").tau < 1.0

    def test_cost_gap_pins_low_cost_dropout(self, cost_gap_config):
        report = solve_unconstrained(cost_gap_config)
        views = effective_groups(cost_gap_config)
        info_l = dropout_threshold(views[1], cost_gap_config.reward)
        assert report.mixing_group == "L"
        assert report.threshold == pytest.approx(info_l.theta_d, abs=1e-9)
        assert report.outcome("H").avg_effort < 0.01

    def test_budget_binds(self, noise_gap_config, cost_gap_config, small_reward_config):
        for config in (noise_gap_config, cost_gap_config, small_reward_config):
            report = solve_unconstrained(config)
            views = effective_groups(config)
            total = sum(
                v.share * report.outcome(v.label).selection_rate for v in views
            )
            assert abs(total - config.alpha) <= 1e-8

    def test_no_profitable_deviation(self, noise_gap_config):
        report = solve_unconstrained(noise_gap_config)
        gains = max_deviation_gain(report, noise_gap_config)
        assert all(g <= 1e-7 * noise_gap_config.reward for g in gains.values())

    def test_smooth_regime_matches_independent_oracle(self, small_reward_config):
        report = solve_unconstrained(small_reward_config)
        assert report.regime == "smooth"
        theta = smooth_oracle(small_reward_config, theta0=1.0)
        assert report.threshold == pytest.approx(theta, abs=1e-6)

    def test_oracle_from_many_starts(self, small_reward_config):
        report = solve_unconstrained(small_reward_config)
        rng = np.random.default_rng(5)
        for theta0 in rng.uniform(-1.0, 3.0, size=10):
            assert smooth_oracle(small_reward_config, float(theta0)) == pytest.approx(
                report.threshold, abs=1e-6
            )

    def test_smooth_solve_best_response_calls(self, small_reward_config, monkeypatch):
        calls = []
        real = ResponseCurve._best_response

        def counted(curve, theta):
            calls.append((curve.group.label, theta))
            return real(curve, theta)

        monkeypatch.setattr(ResponseCurve, "_best_response", counted)
        assert solve_unconstrained(small_reward_config).regime == "smooth"
        assert len(calls) <= 30
        # The outcomes at the smooth threshold reuse the last evaluations.
        assert len(set(calls)) == len(calls)

    @pytest.mark.parametrize("alpha, above", [(0.05, True), (0.5, False)])
    def test_smooth_segment_at_a_dropout(self, alpha, above):
        # At S = 5 only H (spread 0.5) has a dropout; L (spread 1.5) is
        # subcritical.  The crossing lies just above H's dropout at alpha
        # 0.05 and just below it at 0.5, so the solve is seeded with the
        # one-sided mass at that dropout.
        config = two_group_config(5.0, alpha, sigma_h=0.5, sigma_l=1.5)
        report = solve_unconstrained(config)
        assert report.regime == "smooth"
        views = effective_groups(config)
        theta_d = dropout_threshold(views[0], config.reward).theta_d
        assert (report.threshold > theta_d) == above
        total = sum(v.share * report.outcome(v.label).selection_rate for v in views)
        assert abs(total - alpha) <= 1e-8
        gains = max_deviation_gain(report, config)
        assert all(g <= 1e-7 * config.reward for g in gains.values()), gains
        # The grid's effort spacing (~5e-5) limits the oracle's accuracy.
        theta, _ = grid_oracle(config, steps=30)
        assert report.threshold == pytest.approx(theta, abs=1e-4)

    @pytest.mark.parametrize("k", [-9e-10, -5e-10, -1e-10, 1e-10, 5e-10, 9e-10])
    @pytest.mark.parametrize("groups", [1, 2])
    def test_smooth_crossing_next_to_a_dropout(self, groups, k):
        # The crossing lies within 1e-9 (relative) of H's dropout, where the
        # walk reads both tied efforts.  Inside the segment H keeps the side
        # of its dropout that the crossing lies on, so the solve must land on
        # the crossing itself and not on the edge of that match band.
        config = two_group_config(5.0, 0.5, sigma_h=0.5, sigma_l=1.5)
        if groups == 1:
            h = dataclasses.replace(config.groups[0], share=1.0)
            config = dataclasses.replace(config, groups=(h,))
        views = effective_groups(config)
        theta_d = dropout_threshold(views[0], config.reward).theta_d
        crossing = theta_d * (1.0 + k)
        side = 0 if k > 0 else -1  # low effort above the dropout, high below
        alpha = sum(
            v.share * normal_cdf(
                (best_response(crossing, v, config.reward)[side] - crossing) / v.sigma
            )
            for v in views
        )
        report = solve_unconstrained(dataclasses.replace(config, alpha=alpha))
        assert report.regime == "smooth"
        assert abs(report.threshold - crossing) <= 1e-13 * abs(crossing)

    def test_unique_across_sub_brackets(self, noise_gap_config):
        report = solve_unconstrained(noise_gap_config)
        lo, hi = solver_bracket(noise_gap_config)
        theta = report.threshold
        rng = np.random.default_rng(17)
        for _ in range(20):
            sub_lo = float(rng.uniform(lo, theta - 1e-6))
            sub_hi = float(rng.uniform(theta + 1e-6, hi))
            again = solve_unconstrained(noise_gap_config, bracket=(sub_lo, sub_hi))
            assert abs(again.threshold - theta) <= 1e-8

    def test_mass_curve_non_increasing(self, noise_gap_config):
        lo, hi = solver_bracket(noise_gap_config)
        grid = np.linspace(lo, hi, 120)
        upper = [excess_mass(float(t), noise_gap_config).mass_hi for t in grid]
        assert all(b <= a + 1e-10 for a, b in zip(upper, upper[1:]))

    def test_three_groups(self):
        config = GameConfig(
            reward=50.0, alpha=0.25, eta_sq=1.0,
            groups=(
                GroupParams("A", 0.3, 1.0, sigma_tilde=0.5),
                GroupParams("B", 0.3, 1.5, sigma_tilde=1.0),
                GroupParams("C", 0.4, 2.0, sigma_tilde=0.8),
            ),
        )
        report = solve_unconstrained(config)
        views = effective_groups(config)
        total = sum(v.share * report.outcome(v.label).selection_rate for v in views)
        assert abs(total - config.alpha) <= 1e-8
        gains = max_deviation_gain(report, config)
        assert all(g <= 1e-7 * config.reward for g in gains.values())

    def test_rejects_invalid_config(self, noise_gap_config):
        bad = dataclasses.replace(noise_gap_config, alpha=1.5)
        with pytest.raises(ValueError):
            solve_unconstrained(bad)

    def test_oblivious_mode_reverses_dominance(self):
        # Ranking by the raw estimate flips the spread ordering, so the
        # high-noise group that dominates in bayesian mode is the dominated
        # one in oblivious mode.  Dominance is the large-reward ordering: it
        # is claimed only above every group's critical reward (H/L: 1.03/4.13
        # bayesian, 16.5/4.13 oblivious).  Below that a subcritical group
        # plays one interior effort and can out-select the pinning group; see
        # test_oblivious_mixed_regime_matches_grid_oracle.
        base = noise_split_config(100.0)
        oblivious = dataclasses.replace(base, dm_mode="oblivious")
        for config in (base, oblivious):
            for view in effective_groups(config):
                assert config.reward > critical_reward(view)
        bay = solve_unconstrained(base)
        obl = solve_unconstrained(oblivious)
        assert bay.mixing_group == "H"
        assert obl.mixing_group == "L"
        assert bay.outcome("H").selection_rate > bay.outcome("L").selection_rate
        assert obl.outcome("L").selection_rate > obl.outcome("H").selection_rate
        for config, report in ((base, bay), (oblivious, obl)):
            top = max(report.outcomes, key=lambda o: o.selection_rate)
            assert top.label == asymptotic_predictions(config).dominant_label

    def test_oblivious_mixed_regime_matches_grid_oracle(self):
        # At S = 10 in oblivious mode H (spread 2, critical reward 16.5) is
        # subcritical and plays one interior effort, while L (spread 1,
        # critical reward 4.13) pins the threshold at its dropout and mixes.
        # The dominance ordering is not yet in force: H out-selects L.
        config = noise_split_config(10.0, dm_mode="oblivious")
        crit = {v.label: critical_reward(v) for v in effective_groups(config)}
        assert crit["L"] < config.reward < crit["H"]
        report = solve_unconstrained(config)
        theta, (effort_h, _) = grid_oracle(config)
        assert report.threshold == pytest.approx(theta, abs=1e-8)
        assert report.mixing_group == "L"
        high = report.outcome("H")
        assert high.tau is None
        assert len(high.strategy.support) == 1
        assert high.avg_effort == pytest.approx(effort_h, abs=1e-4)
        rate_h = normal_cdf((effort_h - theta) / 2.0)
        assert high.selection_rate == pytest.approx(rate_h, abs=1e-5)
        assert high.selection_rate > report.outcome("L").selection_rate

    def test_rate_ratio_reward_trends(self):
        # Equal costs, spread gap: the wide-spread group's relative
        # representation collapses to 0 below the kink and to
        # (alpha - share) / (1 - share) above it as the reward grows.
        def ratio(reward, alpha):
            rep = solve_unconstrained(two_group_config(reward, alpha))
            return rep.outcome("L").selection_rate / rep.outcome("H").selection_rate

        rewards = (10.0, 1e2, 1e3, 1e4)
        below = [ratio(s, 0.3) for s in rewards]
        assert all(b <= a for a, b in zip(below, below[1:]))  # 0 once underflowed
        assert below[0] > below[-1]
        assert below[-1] < 1e-6
        above_gaps = [abs(ratio(s, 0.7) - 0.4) for s in rewards]
        assert all(b < a for a, b in zip(above_gaps, above_gaps[1:]))
        assert above_gaps[-1] < 0.01

    @pytest.mark.parametrize("alpha", [0.1, 0.15, 0.2, 0.25, 0.3])
    def test_coinciding_dropouts_mix_alike(self, alpha):
        # A and B share (cost, spread) and so a dropout, which pins the
        # threshold for every alpha here.  Both mix their tied efforts with
        # one weight, so they play alike; C plays one effort.
        config = GameConfig(
            reward=100.0, alpha=alpha, eta_sq=1.0,
            groups=(
                GroupParams("A", 0.2, 1.0, sigma_tilde=0.5),
                GroupParams("B", 0.3, 1.0, sigma_tilde=0.5),
                GroupParams("C", 0.5, 1.5, sigma_tilde=1.0),
            ),
        )
        report = solve_unconstrained(config)
        assert report.regime == "dropout_pinned"
        a, b, c = report.outcomes
        assert 0.0 < a.tau < 1.0
        assert (a.tau, a.strategy, a.selection_rate) == (b.tau, b.strategy, b.selection_rate)
        assert c.tau is None
        assert report.mixing_group == "A"
        views = effective_groups(config)
        total = sum(v.share * report.outcome(v.label).selection_rate for v in views)
        assert abs(total - alpha) <= 1e-8
        # The tied maxima agree to about an ulp of the payoff, and the grid
        # point m = 0 sits on the low one, so the grid may beat the mixers by
        # that much.
        drop = dropout_threshold(views[0], config.reward)
        ties = [payoff(m, drop.theta_d, views[0], config.reward)
                for m in (drop.br_min, drop.br_max)]
        assert abs(ties[1] - ties[0]) <= 1e-11 * config.reward
        gains = max_deviation_gain(report, config)
        assert all(g <= 1e-12 * config.reward for g in gains.values()), gains

    def test_mixing_weight_accounts_for_budget(self, noise_gap_config):
        report = solve_unconstrained(noise_gap_config)
        outcome = report.outcome("H")
        support = dict(outcome.strategy.support)
        assert len(support) == 2
        weights = sorted(support.values())
        assert weights[0] == pytest.approx(outcome.tau)


class TestDemographicParity:
    def test_rates_equal_alpha(self, noise_gap_config):
        report = solve_demographic_parity(noise_gap_config)
        for outcome in report.outcomes:
            assert outcome.selection_rate == pytest.approx(
                noise_gap_config.alpha, abs=1e-8
            )

    def test_matches_single_group_solves(self, noise_gap_config):
        report = solve_demographic_parity(noise_gap_config)
        for params, outcome in zip(noise_gap_config.groups, report.outcomes):
            solo = GameConfig(
                reward=noise_gap_config.reward,
                alpha=noise_gap_config.alpha,
                eta_sq=noise_gap_config.eta_sq,
                groups=(dataclasses.replace(params, share=1.0),),
            )
            alone = solve_unconstrained(solo)
            assert outcome.threshold == pytest.approx(alone.threshold, abs=1e-10)
            assert outcome.avg_effort == pytest.approx(
                alone.outcomes[0].avg_effort, abs=1e-10
            )

    def test_symmetric_groups_match_unconstrained(self, symmetric_config):
        un = solve_unconstrained(symmetric_config)
        dp = solve_demographic_parity(symmetric_config)
        assert un.regime == "smooth"
        for outcome in dp.outcomes:
            assert outcome.threshold == pytest.approx(un.threshold, abs=1e-8)
            assert outcome.selection_rate == pytest.approx(
                un.outcome(outcome.label).selection_rate, abs=1e-8
            )
        assert dp.quality == pytest.approx(un.quality, abs=1e-8)

    def test_symmetric_coincident_dropouts_match_parity(self):
        # Past the critical reward both identical groups drop out at the same
        # threshold and the budget pins it there.  Both mix alike, each at
        # rate alpha, which is the parity outcome itself.
        g = dict(share=0.5, cost=1.0, noise_var=0.5)
        config = GameConfig(
            reward=6.0,
            alpha=0.3,
            eta_sq=1.0,
            groups=(GroupParams("A", **g), GroupParams("B", **g)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            un = solve_unconstrained(config)
            dp = solve_demographic_parity(config)
        assert un.regime == "dropout_pinned"
        for outcome in dp.outcomes:
            mine = un.outcome(outcome.label)
            assert mine.threshold == outcome.threshold
            assert mine.selection_rate == outcome.selection_rate
            assert mine.avg_effort == outcome.avg_effort
        assert un.quality == dp.quality

    def test_large_reward_mixing_weights_near_alpha(self):
        config = two_group_config(1e4, 0.3, cost_h=1.5)
        report = solve_demographic_parity(config)
        for outcome in report.outcomes:
            assert outcome.tau == pytest.approx(config.alpha, abs=0.05)

    def test_effort_ratio_tends_to_cost_ratio(self):
        config = two_group_config(1e4, 0.3, cost_h=1.5)
        report = solve_demographic_parity(config)
        ratio = report.outcome("H").avg_effort / report.outcome("L").avg_effort
        assert ratio == pytest.approx(math.sqrt(1.0 / 1.5), abs=0.05)


COSTS = st.floats(math.log10(0.2), math.log10(5.0)).map(lambda e: 10.0**e)
NOISES = st.floats(0.0, 4.0)


@st.composite
def twin_games(draw):
    """Games of 2-4 groups, at least one pair of them twins (same cost and
    noise, so the same spread and dropout), at a reward from a tenth to a
    thousand times the twins' critical reward."""
    kinds = [(draw(COSTS), draw(NOISES))]
    kinds.append(kinds[0])
    for _ in range(draw(st.integers(0, 2))):
        kinds.append(draw(st.sampled_from(kinds) | st.tuples(COSTS, NOISES)))
    order = draw(st.permutations(range(len(kinds))))
    weights = [draw(st.floats(0.1, 1.0)) for _ in kinds]
    groups = tuple(
        GroupParams(f"G{i}", w / sum(weights), cost, noise_var=noise)
        for i, (w, (cost, noise)) in enumerate(zip(weights, [kinds[j] for j in order]))
    )
    config = GameConfig(
        reward=1.0, alpha=draw(st.floats(0.02, 0.98)), eta_sq=1.0, groups=groups,
        dm_mode=draw(st.sampled_from(["bayesian", "oblivious"])),
    )
    twin = effective_groups(config)[order.index(0)]
    reward = critical_reward(twin) * 10.0 ** draw(st.floats(-1.0, 3.0))
    return dataclasses.replace(config, reward=reward)


class TestTwinGroups:
    """Groups of the same cost and spread get the same outcome, whichever
    regime the game is in."""

    @settings(max_examples=100, deadline=None)
    @given(config=twin_games())
    def test_twins_play_alike(self, config):
        assert validate(config) == []
        views = effective_groups(config)
        un, dp = solve_unconstrained(config), solve_demographic_parity(config)
        budget = sum(v.share * o.selection_rate for v, o in zip(views, un.outcomes))
        assert abs(budget - config.alpha) <= 1e-8
        assert all(abs(o.selection_rate - config.alpha) <= 1e-8 for o in dp.outcomes)
        for report in (un, dp):
            first = {}
            for view, outcome in zip(views, report.outcomes):
                unlabelled = dataclasses.replace(outcome, label="")
                assert first.setdefault((view.cost, view.sigma), unlabelled) == unlabelled
            gains = max_deviation_gain(report, config)
            assert max(gains.values()) <= 1e-7 * config.reward, gains
