import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import stratselect.cli as cli
import stratselect.equilibrium as equilibrium
from stratselect.best_response import (
    ResponseCurve,
    best_response,
    critical_reward,
    dropout_threshold,
    payoff,
)
from stratselect.equilibrium import (
    Game,
    SolverError,
    _mass,
    _rates,
    mixture_quantile,
    solve_demographic_parity,
    solve_unconstrained,
    solver_bracket,
)
from stratselect.kernel import find_root, normal_cdf, normal_pdf, normal_quantile
from stratselect.mc import grid_argmax_payoff, max_deviation_gain
from stratselect.metrics import asymptotic_predictions
from stratselect.model import (
    MAX_REWARD_RATIO,
    MIN_REWARD_RATIO,
    EffortDistribution,
    GameConfig,
    GroupParams,
    GroupView,
    config_from_dict,
    effective_groups,
    validate,
)

from conftest import COSTS, NOISES, random_games, two_group_config


def mass_interval(theta, config):
    """Selected mass at ``theta`` with every group on the low and on the high
    end of its best response: apart only at a dropout, or within a payoff
    tie of one."""
    game = Game(config)
    views = game.views
    table = _rates(theta, game.curves(), {})
    return _mass(views, table, [0] * len(views)), _mass(views, table, [1] * len(views))


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
        assert mass_interval(lo, noise_gap_config)[1] >= noise_gap_config.alpha
        assert mass_interval(hi, noise_gap_config)[0] <= noise_gap_config.alpha

    def test_runs_no_root_search(self, noise_gap_config, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the bracket ran a root search")

        for name in ("find_root", "mixture_quantile"):
            monkeypatch.setattr(equilibrium, name, forbidden)
        # Spreads 0.1 (H) and 1 (L), unit costs, S = 10 and alpha = 0.1.
        z = -normal_quantile(0.1)
        lo, hi = solver_bracket(noise_gap_config)
        assert lo == pytest.approx(0.1 * z, rel=1e-15)
        assert hi == pytest.approx(math.sqrt(20.0) + z, rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(config=random_games())
    def test_contains_the_induced_thresholds(self, config):
        # The thresholds that zero effort and the payoff-feasibility bound
        # induce, which the bracket once solved for.  mixture_quantile works
        # from 1 - alpha, rounded to 1.1e-16, so its root may stick out of
        # the closed form by an ulp or so (at most 3.2e-16 * (1 + |root|)
        # on 3,000 of these games).
        views = effective_groups(config)
        zero = [((0.0, 1.0),)] * len(views)
        caps = [(((2.0 * config.reward / v.cost) ** 0.5, 1.0),) for v in views]
        lo, hi = solver_bracket(config)
        low = mixture_quantile(zero, views, config.alpha)
        high = mixture_quantile(caps, views, config.alpha)
        assert lo <= low + 1e-14 * (1.0 + abs(low))
        assert high <= hi + 1e-14 * (1.0 + abs(high))


class TestExcessMass:
    def test_low_threshold_limit(self, noise_gap_config):
        mass_lo, mass_hi = mass_interval(-50.0, noise_gap_config)
        assert mass_lo == pytest.approx(1.0, abs=1e-12)
        assert mass_lo == mass_hi

    def test_far_above_dropouts(self, noise_gap_config):
        views = effective_groups(noise_gap_config)
        top = max(
            dropout_threshold(v, noise_gap_config.reward).theta_d for v in views
        )
        assert mass_interval(top + 5.0, noise_gap_config)[1] < noise_gap_config.alpha

    def test_straddles_at_single_group_dropout(self):
        config = GameConfig(
            reward=10.0, alpha=0.3, eta_sq=1.0,
            groups=(GroupParams("A", 1.0, 1.0, sigma_tilde=1.0),),
        )
        info = dropout_threshold(effective_groups(config)[0], 10.0)
        mass_lo, mass_hi = mass_interval(info.theta_d, config)
        x_lo = normal_cdf(info.br_min - info.theta_d)
        x_hi = normal_cdf(info.br_max - info.theta_d)
        assert mass_lo == pytest.approx(x_lo, abs=1e-12)
        assert mass_hi == pytest.approx(x_hi, abs=1e-12)
        assert mass_lo < config.alpha < mass_hi

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
            mass_lo, mass_hi = mass_interval(theta, config)
            brs = best_response(theta, view, 10.0)
            assert mass_lo < mass_hi
            assert (mass_lo, mass_hi) == (
                normal_cdf(brs[0] - theta), normal_cdf(brs[-1] - theta)
            )

    def test_interval_ordering(self, noise_gap_config):
        for theta in np.linspace(-2.0, 6.0, 25):
            mass_lo, mass_hi = mass_interval(float(theta), noise_gap_config)
            assert 0.0 <= mass_lo <= mass_hi <= 1.0


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
        views = effective_groups(noise_gap_config)
        gains = max_deviation_gain(report, views, noise_gap_config.reward)
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
        # 0.05 and just below it at 0.5, so the smooth segment ends at that
        # dropout.
        config = two_group_config(5.0, alpha, sigma_h=0.5, sigma_l=1.5)
        report = solve_unconstrained(config)
        assert report.regime == "smooth"
        views = effective_groups(config)
        theta_d = dropout_threshold(views[0], config.reward).theta_d
        assert (report.threshold > theta_d) == above
        total = sum(v.share * report.outcome(v.label).selection_rate for v in views)
        assert abs(total - alpha) <= 1e-8
        gains = max_deviation_gain(report, views, config.reward)
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
        upper = [mass_interval(float(t), noise_gap_config)[1] for t in grid]
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
        gains = max_deviation_gain(report, views, config.reward)
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
            assert top.label == asymptotic_predictions(effective_groups(config), config.alpha).dominant_label

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
        gains = max_deviation_gain(report, views, config.reward)
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

    @pytest.mark.parametrize("game", ["noise_gap_config", "small_reward_config"])
    def test_reads_each_group_off_its_curve(self, game, request, monkeypatch):
        # noise_gap_config pins both groups on their dropouts,
        # small_reward_config has no dropout: neither runs a search.
        config = request.getfixturevalue(game)
        expected = solve_demographic_parity(config)

        def forbidden(*args, **kwargs):
            raise AssertionError("the parity solve ran a search")

        for name in ("solver_bracket", "find_root", "solve_unconstrained"):
            monkeypatch.setattr(equilibrium, name, forbidden)
        report = solve_demographic_parity(config)
        assert report == expected
        assert all((o.tau is None) == (game == "small_reward_config") for o in report.outcomes)


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
            gains = max_deviation_gain(report, views, config.reward)
            assert max(gains.values()) <= 1e-7 * config.reward, gains


@settings(max_examples=500, deadline=None)
@given(config=random_games())
# Next to the cusp: 2.1e-6 above the critical reward, the three-root window
# is 4.1e-9 wide.  A dropout search that ends on a window edge finds one
# maximum there and raises.
@example(config=GameConfig(
    reward=4.132740098505587, alpha=0.5, eta_sq=1.0,
    groups=(GroupParams("G0", 1.0, 1.0, noise_var=0.0),),
))
def test_parity_outcomes_match_one_group_solves(config):
    """Each group's parity outcome is the unconstrained equilibrium of the
    group alone at share one: the same doubles when pinned on its dropout,
    the same point up to the one-group solve's own error when smooth."""
    report = solve_demographic_parity(config)
    z = normal_quantile(config.alpha)
    for params, view, outcome in zip(config.groups, effective_groups(config), report.outcomes):
        solo = dataclasses.replace(config, groups=(dataclasses.replace(params, share=1.0),))
        alone = solve_unconstrained(solo).outcomes[0]
        assert abs(outcome.selection_rate - config.alpha) <= 1e-14
        assert (outcome.tau is None) == (alone.tau is None)
        if outcome.tau is not None:
            assert (outcome.tau, outcome.threshold) == (alone.tau, alone.threshold)
            continue
        # The one-group solve reads its effort off a root of the first-order
        # condition at its threshold; near the critical reward that root is
        # ill-conditioned, and its budget residual over the density measures
        # how far the effort is off.
        residual = abs(alone.selection_rate - config.alpha)
        effort_error = view.sigma * residual / normal_pdf(z)
        tol = 1e-12 * max(1.0, abs(alone.threshold))
        assert abs(outcome.threshold - alone.threshold) <= tol
        assert abs(outcome.avg_effort - alone.avg_effort) <= tol + 2.0 * effort_error
        assert abs(outcome.selection_rate - alone.selection_rate) <= tol + residual


def game_answers(game, alpha, reward):
    """Both solvers' reports of ``game`` at ``alpha`` and ``reward`` as
    dicts, or the computation error a solve raised, named."""
    try:
        return (game.unconstrained(alpha, reward).as_dict(),
                game.parity(alpha, reward).as_dict())
    except cli._COMPUTE_ERRORS as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=100, deadline=None)
@given(
    config=random_games(),
    alphas=st.lists(st.floats(0.02, 0.98), min_size=3, max_size=3),
    exponent=st.floats(-1.0, 1.0),
)
def test_game_answers_do_not_depend_on_what_it_was_asked_before(config, alphas, exponent):
    """A game keeps one reward's curves and rates.  Asked at three points,
    two at the game's reward and one at another, in order, in reverse and
    interleaved so that the reward changes and comes back, one game gives
    at each point what a fresh game gives there."""
    other = config.reward * 10.0**exponent
    assume(other != config.reward)
    points = [(alphas[0], config.reward), (alphas[1], config.reward), (alphas[2], other)]
    fresh = [game_answers(Game(config), *point) for point in points]
    game = Game(config)
    for order in ([0, 1, 2], [2, 1, 0], [0, 2, 1]):
        for i in order:
            assert game_answers(game, *points[i]) == fresh[i], (order, i)


@settings(max_examples=200, deadline=None)
@given(config=random_games())
def test_outcome_strategies_equal_validated_ones(config):
    """Both solvers wrap their outcome strategies with no ``__post_init__``:
    each is what the validating constructor makes of its support, down to
    the float type, and its ``avg_effort`` is its mean.  The games cover 1
    to 4 groups in both modes, rewards on both sides of the critical ones,
    pinned and smooth equilibria and parity groups that mix; the parity
    solve reads the rows the walk left in the game's memo, as in a sweep."""
    game = Game(config)
    for solve in (game.unconstrained, game.parity):
        for outcome in solve().outcomes:
            strategy = outcome.strategy
            assert strategy == EffortDistribution(strategy.support)
            assert all(type(x) is float for point in strategy.support for x in point)
            assert outcome.avg_effort.hex() == strategy.mean().hex()


@settings(max_examples=300, deadline=None)
@given(config=random_games(), below=st.floats(0.0, 1.0), above=st.floats(0.0, 1.0))
def test_threshold_does_not_depend_on_the_bracket(config, below, above):
    """A bracket widened on either side finds the same equilibrium: the
    same dropout double when pinned, and when smooth the same crossing up to
    the Newton stop, which depends on where the iteration starts."""
    check_bracket_free(config, below, above)


# random_games draws this game: its reward is exactly G0's critical reward
# (the exponent 0.0), where G0's dropout sits at its cusp.
CUSP_GAME = GameConfig(
    reward=2.3304361567746676, alpha=0.4, eta_sq=1.0, dm_mode="bayesian",
    groups=(
        GroupParams("G0", 0.23334754775826064, 1.0, noise_var=0.7733724831330326),
        GroupParams("G1", 0.2970942882151512, 0.768740229553413, noise_var=0.0),
        GroupParams("G2", 0.2413102933329228, 0.768740229553413, noise_var=2.284833317765387),
        GroupParams("G3", 0.22824787069366534, 0.768740229553413,
                    noise_var=0.03391325526333234),
    ),
)


@pytest.mark.xfail(
    raises=SolverError, strict=True,
    reason="ROADMAP item 5, the cusp band: at a critical reward the effort read "
    "off a threshold is off by about the cube root of rounding, and the "
    "selection budget misses by 5.3e-8",
)
def test_threshold_does_not_depend_on_the_bracket_at_a_cusp():
    check_bracket_free(CUSP_GAME, 0.0, 0.0)


def check_bracket_free(config, below, above):
    lo, hi = solver_bracket(config)
    wide = (lo - below * (hi - lo), hi + above * (hi - lo))
    game = Game(config)
    report = game.unconstrained()
    widened = game.unconstrained(bracket=wide)
    assert widened.regime == report.regime
    if report.regime == "dropout_pinned":
        assert widened.threshold == report.threshold
    else:
        tol = 1e-12 * max(1.0, abs(report.threshold))
        assert abs(widened.threshold - report.threshold) <= tol


@settings(max_examples=150, deadline=None)
@given(config=random_games(min_groups=2), axis=st.sampled_from(["alpha", "reward"]))
def test_sweep_row_matches_the_public_solvers(config, axis):
    """A sweep row asks the game its spec built once; the row holds what
    the public solvers give on the same game.  The base config's own value
    on the swept axis must not leak into the row."""
    value = getattr(config, axis)
    base = dataclasses.replace(config, **{axis: 0.5 * value})
    spec = cli.SweepSpec(
        axis=axis, grid=(value,),
        solvers=("unconstrained", "demographic_parity"), game=Game(base),
    )
    row, warning = cli._sweep_row(spec, value)
    try:
        un, dp = solve_unconstrained(config), solve_demographic_parity(config)
    except cli._COMPUTE_ERRORS as exc:
        assert (row, warning) == ({"axis_value": value}, f"{axis}={value!r}: {exc}")
        return
    assert warning is None
    expected = {"theta_un": un.threshold, "quality_un": un.quality, "quality_dp": dp.quality}
    for outcome in un.outcomes:
        expected[f"effort_{outcome.label}_un"] = outcome.avg_effort
        expected[f"rate_{outcome.label}_un"] = outcome.selection_rate
    for outcome in dp.outcomes:
        expected[f"theta_dp_{outcome.label}"] = outcome.threshold
    assert {c: row[c].hex() for c in expected} == {c: v.hex() for c, v in expected.items()}


# Rows of seeded `perfbench/run.py --workload reward_sweep` inputs (seed 5
# input 19, seed 10 input 66, seed 103 input 29, seed 105 input 30), all
# bayesian: alpha, reward and each group's (share, cost, noise_var).  Each
# crossing lies where a group just below its critical reward plays near
# z = -1 and its selection rate is steep; Newton's steps on the mass there
# alternated across the crossing, narrowing the bracket by about 2e-8 each,
# until the iteration budget ran out.
ALTERNATING_NEWTON_ROWS = [
    (0.3017, 1.438242365804762, [(0.592425, 2.9107, 0.7748), (0.407575, 3.7082, 9.2262)]),
    (0.4921, 0.44827132099197203, [
        (0.422644, 3.6934, 51.5795), (0.200032, 4.2932, 38.0658), (0.377324, 1.0919, 4.6065),
    ]),
    (0.4064, 0.32698493848924076, [
        (0.20671, 3.3328, 89.5986), (0.168947, 4.9134, 59.3953),
        (0.302575, 3.316, 0.2314), (0.32176800000000005, 4.8787, 3.2613),
    ]),
    (0.3123, 0.1061892487056917, [
        (0.250467, 1.252, 11.311), (0.388574, 2.4059, 88.7407),
        (0.36095900000000003, 1.3665, 18.8279),
    ]),
]


@pytest.mark.parametrize("alpha, reward, groups", ALTERNATING_NEWTON_ROWS)
def test_smooth_crossing_where_newton_alternates(alpha, reward, groups):
    config = GameConfig(
        reward=reward, alpha=alpha, eta_sq=1.0,
        groups=tuple(
            GroupParams("ABCD"[i], share, cost, noise_var=noise)
            for i, (share, cost, noise) in enumerate(groups)
        ),
    )
    report = solve_unconstrained(config)
    assert report.regime == "smooth"
    views = effective_groups(config)
    budget = sum(v.share * o.selection_rate for v, o in zip(views, report.outcomes))
    assert abs(budget - alpha) <= equilibrium.BUDGET_TOL


@st.composite
def near_critical_games(draw):
    """Games of 2-4 groups in either mode, with the reward ``1 - S/S_c`` from
    1e-4 to 0.5 below group G0's critical reward ``S_c`` and alpha the mass
    at the threshold where G0 plays ``z = -1``, the steepest point of its
    selection rate.  Closer to ``S_c`` lies the cusp band, where the effort
    read off a threshold loses two thirds of its digits."""
    count = draw(st.integers(2, 4))
    weights = [draw(st.floats(0.1, 1.0)) for _ in range(count)]
    groups = tuple(
        GroupParams(f"G{i}", w / sum(weights), draw(COSTS), noise_var=draw(NOISES))
        for i, w in enumerate(weights)
    )
    config = GameConfig(
        reward=1.0, alpha=0.5, eta_sq=1.0, groups=groups,
        dm_mode=draw(st.sampled_from(["bayesian", "oblivious"])),
    )
    view = effective_groups(config)[0]
    gap = 10.0 ** draw(st.floats(-4.0, math.log10(0.5)))
    config = dataclasses.replace(config, reward=critical_reward(view) * (1.0 - gap))
    # On G0's stationary curve tau = phi(z) / eps - z, so z = -1 at this theta.
    eps = view.cost * view.sigma**2 / config.reward
    theta = view.sigma * (normal_pdf(1.0) / eps + 1.0)
    config = dataclasses.replace(config, alpha=mass_interval(theta, config)[0])
    assume(validate(config) == [])
    return config


@settings(max_examples=300, deadline=None)
@given(config=near_critical_games())
def test_solves_where_a_subcritical_group_is_steepest(config):
    views = effective_groups(config)
    report = solve_unconstrained(config)
    budget = sum(v.share * o.selection_rate for v, o in zip(views, report.outcomes))
    assert abs(budget - config.alpha) <= equilibrium.BUDGET_TOL
    parity = solve_demographic_parity(config)
    assert all(abs(o.selection_rate - config.alpha) <= equilibrium.BUDGET_TOL
               for o in parity.outcomes)


@st.composite
def wide_games(draw, alphas):
    """Games of 2-6 groups in either mode, with costs from 0.01 to 100,
    noise from 0 to 100, alpha from ``alphas`` and the reward log-uniform
    from a tenth of the largest ``cost * sigma**2`` up to the supported
    ratio of the smallest."""
    count = draw(st.integers(2, 6))
    weights = [draw(st.floats(0.1, 1.0)) for _ in range(count)]
    groups = tuple(
        GroupParams(f"G{i}", w / sum(weights), 10.0 ** draw(st.floats(-2.0, 2.0)),
                    noise_var=draw(st.floats(0.0, 100.0)))
        for i, w in enumerate(weights)
    )
    config = GameConfig(
        reward=1.0, alpha=draw(alphas), eta_sq=1.0, groups=groups,
        dm_mode=draw(st.sampled_from(["bayesian", "oblivious"])),
    )
    scales = [v.cost * v.sigma**2 for v in effective_groups(config)]
    exponent = draw(st.floats(math.log10(0.1 * max(scales)),
                              math.log10(MAX_REWARD_RATIO * min(scales))))
    config = dataclasses.replace(config, reward=10.0**exponent)
    assume(validate(config) == [])
    return config


@settings(max_examples=300, deadline=None)
@given(config=wide_games(st.floats(-15.0, -1.0).map(lambda e: 10.0**e)))
# Two subcritical groups.  A solver bracket solved from 1 - alpha, which
# rounds alpha to an absolute 1.1e-16, put the crossing's bracket end past
# the root here, and the solve returned that end: the budget was 2.6e-3 off.
@example(config=GameConfig(
    reward=1.0, alpha=1e-14, eta_sq=1.0,
    groups=(GroupParams("A", 0.5, 1.0, sigma_tilde=1.0),
            GroupParams("B", 0.5, 2.0, sigma_tilde=0.5)),
))
def test_small_selection_sizes_keep_their_budget(config):
    """Down to alpha = 1e-15 both solvers reproduce alpha to its own
    precision, relative to alpha."""
    views, alpha = effective_groups(config), config.alpha
    un = solve_unconstrained(config)
    budget = sum(v.share * o.selection_rate for v, o in zip(views, un.outcomes))
    assert abs(budget - alpha) <= 1e-12 * alpha
    for outcome in solve_demographic_parity(config).outcomes:
        assert abs(outcome.selection_rate - alpha) <= 1e-12 * alpha


@settings(max_examples=200, deadline=None)
@given(
    config=wide_games(st.one_of(
        st.floats(-14.0, -2.0).map(lambda e: 10.0**e), st.floats(0.01, 0.99),
    )),
    data=st.data(),
)
def test_threshold_ignores_group_order_and_twin_splits(config, data):
    """Permuting the groups, or splitting one into two twins of half its
    share, is the same game: the threshold moves by at most rounding.
    Alpha stays below 0.99: within 1e-4 of 1 the selected mass is flat in
    the threshold, which is so ill-conditioned there that these changes
    moved it by up to 2.8e-3 (alpha down to 1 - 1e-12), whichever way the
    solver bracket is built."""
    groups = config.groups
    order = data.draw(st.permutations(range(len(groups))))
    k = data.draw(st.integers(0, len(groups) - 1))
    halves = tuple(
        dataclasses.replace(groups[k], label=groups[k].label + twin, share=0.5 * groups[k].share)
        for twin in "ab"
    )
    theta = solve_unconstrained(config).threshold
    for changed in ([groups[i] for i in order], groups[:k] + halves + groups[k + 1:]):
        moved = solve_unconstrained(dataclasses.replace(config, groups=tuple(changed)))
        assert abs(moved.threshold - theta) <= 1e-13 * max(1.0, abs(theta))


@settings(max_examples=200, deadline=None)
@given(config=wide_games(st.one_of(
    st.floats(-14.0, -2.0).map(lambda e: 10.0**e), st.floats(0.01, 0.99),
)))
def test_doubling_the_spreads_and_quadrupling_the_reward_doubles_the_threshold(config):
    """Each group's problem depends on ``eps = C * sigma**2 / S`` alone, in
    units of its spread, so doubling every spread and quadrupling the reward
    doubles the threshold.  A threshold pinned on a dropout, ``sigma *
    tau_d``, doubles exactly.  A smooth crossing agrees up to rounding:
    :func:`find_root` stops within ``4 * epsilon * (|x| + 1)``, whose
    absolute part does not scale with the threshold."""

    def spreads_times(k):
        groups = tuple(
            GroupParams(v.label, v.share, v.cost, sigma_tilde=k * v.sigma)
            for v in effective_groups(config)
        )
        return dataclasses.replace(config, reward=k * k * config.reward, groups=groups)

    report, doubled = (solve_unconstrained(spreads_times(k)) for k in (1.0, 2.0))
    assert doubled.regime == report.regime
    theta, half = report.threshold, 0.5 * doubled.threshold
    if report.regime == "dropout_pinned":
        assert half == theta
    else:
        assert abs(half - theta) <= 1e-15 * max(1.0, abs(theta))


@st.composite
def small_reward_games(draw):
    """Games of 2-4 groups in either mode, with alpha from 0.02 to 0.98 and
    the reward log-uniform from MIN_REWARD_RATIO to 1 times the largest
    ``cost * sigma**2``, so every group's ratio lies at or above the bound."""
    count = draw(st.integers(2, 4))
    weights = [draw(st.floats(0.1, 1.0)) for _ in range(count)]
    groups = tuple(
        GroupParams(f"G{i}", w / sum(weights), draw(COSTS), noise_var=draw(NOISES))
        for i, w in enumerate(weights)
    )
    config = GameConfig(
        reward=1.0, alpha=draw(st.floats(0.02, 0.98)), eta_sq=1.0, groups=groups,
        dm_mode=draw(st.sampled_from(["bayesian", "oblivious"])),
    )
    scale = max(v.cost * v.sigma**2 for v in effective_groups(config))
    ratio = 10.0 ** draw(st.floats(math.log10(MIN_REWARD_RATIO), 0.0))
    config = dataclasses.replace(config, reward=ratio * scale)
    assume(validate(config) == [])
    return config


@settings(max_examples=300, deadline=None)
@given(config=small_reward_games())
# The default verify game at S = 1e-20, ratios 4e-20 (H) and 1.071e-20 (L).
# At S = 1e-40 its smooth crossing read a slope of -6e24 from a mu held only
# to an absolute 4.4e-16, and the budget was 2.8e-3 off.
@example(config=dataclasses.replace(
    config_from_dict(cli._DEFAULT_VERIFY_CONFIG), reward=1e-20,
))
def test_solves_down_to_the_smallest_supported_reward_ratio(config):
    views, alpha = effective_groups(config), config.alpha
    un = solve_unconstrained(config)
    budget = sum(v.share * o.selection_rate for v, o in zip(views, un.outcomes))
    assert abs(budget - alpha) <= equilibrium.BUDGET_TOL * alpha
    for outcome in solve_demographic_parity(config).outcomes:
        assert abs(outcome.selection_rate - alpha) <= equilibrium.BUDGET_TOL * alpha


def nested_loop_quantile(supports, views, alpha):
    """``mixture_quantile`` as it was written before it flattened the
    components into one list: the reference its result must match bit for
    bit, since the flat loop keeps the arithmetic."""
    target = 1.0 - alpha
    z = normal_quantile(target)
    quantiles = [
        m + view.sigma * z for view, support in zip(views, supports) for m, _ in support
    ]
    lo, hi = min(quantiles), max(quantiles)
    if lo == hi:
        return lo

    def excess(theta):
        cdf = pdf = 0.0
        for view, support in zip(views, supports):
            for m, w in support:
                u = (theta - m) / view.sigma
                cdf += view.share * w * normal_cdf(u)
                pdf += view.share * w * normal_pdf(u) / view.sigma
        return target - cdf, -pdf

    return find_root(excess, lo, hi, 0.5 * (lo + hi))


class TestMixtureQuantile:
    def test_one_component_is_its_quantile(self, monkeypatch):
        calls = []
        real = equilibrium.find_root

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(equilibrium, "find_root", counted)
        view = GroupView("A", 1.0, 1.0, 0.7)
        mixture_quantile([((2.5, 1.0),)], [view], 0.2)
        assert calls == []

    @settings(max_examples=200, deadline=None)
    @given(
        groups=st.lists(
            st.tuples(
                st.floats(0.1, 10.0),
                st.lists(st.tuples(st.floats(0.0, 20.0), st.floats(0.01, 1.0)),
                         min_size=1, max_size=3),
            ),
            min_size=1, max_size=4,
        ).filter(lambda groups: sum(len(points) for _, points in groups) >= 2),
        alpha=st.floats(0.02, 0.98),
    )
    # The quantiles span one ulp next to 0, narrower than the stop tolerance,
    # so the converged Newton step lands above the top one unless clamped.
    @example(groups=[(1.0, [(0.0, 0.5), (0.0, 0.75), (2.220446049250313e-16, 0.5)])], alpha=0.5)
    def test_root_lies_between_the_component_quantiles(self, groups, alpha):
        # The CDF bound is a step tolerance of about 1e-14 on theta times
        # the largest density, 1 / (0.1 * sqrt(2 pi)), with a wide margin.
        views = [GroupView(f"G{i}", 1.0 / len(groups), 1.0, s) for i, (s, _) in enumerate(groups)]
        supports = [
            tuple((m, w / sum(w for _, w in points)) for m, w in points) for _, points in groups
        ]
        theta = mixture_quantile(supports, views, alpha)
        z = normal_quantile(1.0 - alpha)
        seeds = [m + v.sigma * z for v, support in zip(views, supports) for m, _ in support]
        assert min(seeds) <= theta <= max(seeds)
        cdf = sum(
            v.share * w * normal_cdf((theta - m) / v.sigma)
            for v, support in zip(views, supports) for m, w in support
        )
        assert abs(cdf - (1.0 - alpha)) <= 1e-11

    @settings(max_examples=300, deadline=None)
    @given(
        groups=st.lists(
            st.tuples(
                st.floats(0.05, 1.0),  # the share before normalising
                st.floats(0.01, 10.0),  # the spread
                st.one_of(
                    st.floats(0.0, 20.0).map(lambda m: ((m, 1.0),)),
                    st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 20.0),
                              st.floats(0.01, 0.99)).map(
                        lambda t: ((t[0], t[2]), (t[1], 1.0 - t[2]))),
                ),
            ),
            min_size=1, max_size=6,
        ),
        alpha=st.one_of(
            st.floats(1e-12, 1e-2),
            st.floats(0.02, 0.98),
            st.floats(1e-12, 1e-2).map(lambda a: 1.0 - a),
        ),
    )
    def test_flat_components_give_the_nested_loop_root(self, groups, alpha):
        total = sum(share for share, _, _ in groups)
        views = [GroupView(f"G{i}", share / total, 1.0, sigma)
                 for i, (share, sigma, _) in enumerate(groups)]
        supports = [support for _, _, support in groups]
        assert (mixture_quantile(supports, views, alpha).hex()
                == nested_loop_quantile(supports, views, alpha).hex())

