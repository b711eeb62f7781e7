import dataclasses
import math

import pytest

from stratselect.equilibrium import solve_demographic_parity, solve_unconstrained
from stratselect.kernel import normal_cdf
from stratselect.mc import mc_selection_quality
from stratselect.metrics import (
    AmbiguousRegime,
    DegenerateVariance,
    SubcriticalityViolated,
    asymptotic_predictions,
    mean_and_selection_rate,
    ordered_pair,
    quality_from_outcomes,
    selection_quality,
    selection_rate,
    small_s_crossings,
)
from stratselect.model import (
    EffortDistribution,
    GameConfig,
    GroupOutcome,
    GroupParams,
    GroupView,
    effective_groups,
)

from conftest import two_group_config


class TestAverages:
    def test_point_mass(self):
        assert EffortDistribution.point(1.7).mean() == 1.7

    def test_mixture(self):
        d = EffortDistribution(((0.0, 0.5), (2.0, 0.5)))
        assert d.mean() == 1.0

    def test_rate_at_own_effort(self):
        view = GroupView("A", 1.0, 1.0, 0.7)
        d = EffortDistribution.point(1.3)
        assert selection_rate(d, 1.3, view) == 0.5

    def test_rate_mixture(self):
        view = GroupView("A", 1.0, 1.0, 1.0)
        d = EffortDistribution(((0.0, 0.5), (2.0, 0.5)))
        expected = 0.5 * selection_rate(EffortDistribution.point(0.0), 1.0, view) + \
            0.5 * selection_rate(EffortDistribution.point(2.0), 1.0, view)
        assert selection_rate(d, 1.0, view) == pytest.approx(expected)

    @pytest.mark.parametrize("support", [
        ((1.3, 1.0),),
        ((0.0, 0.5), (2.0, 0.5)),
        ((1e-3, 0.1), (0.3, 0.2), (7.1, 0.7)),
        ((0.7, 0.3), (0.2, 0.3), (5.5, 0.2), (1e6, 0.2)),
    ])
    def test_mean_and_rate_in_one_pass_are_the_two_sums(self, support):
        # The dynamics CSV writes these bytes: each sum runs left to right
        # from 0, as strategy.mean() and the rate always have.
        view = GroupView("A", 1.0, 1.0, 0.7)
        d = EffortDistribution(support)
        for theta in (-2.0, 0.0, 1.3, 4.25):
            rate = 0
            for m, w in d.support:
                rate += w * normal_cdf((m - theta) / view.sigma)
            assert mean_and_selection_rate(d, theta, view) == (d.mean(), rate)
            assert selection_rate(d, theta, view) == rate


class TestSelectionQuality:
    def test_everyone_selected_limit(self):
        config = two_group_config(10.0, 0.3)
        views = effective_groups(config)
        outcomes = tuple(
            GroupOutcome(v.label, -60.0, EffortDistribution.point(m), m, 1.0)
            for v, m in zip(views, (1.0, 2.5))
        )
        assert quality_from_outcomes(views, outcomes) == pytest.approx(1.75, abs=1e-12)

    def test_half_normal_mean(self):
        view = GroupView("A", 1.0, 1.0, 1.0)
        outcome = GroupOutcome("A", 0.0, EffortDistribution.point(0.0), 0.0, 0.5)
        q = quality_from_outcomes((view,), (outcome,))
        assert q == pytest.approx(0.3989422804014327, abs=1e-12)

    def test_matches_monte_carlo(self, noise_gap_config):
        report = solve_unconstrained(noise_gap_config)
        est = mc_selection_quality(
            [o.strategy for o in report.outcomes],
            [o.threshold for o in report.outcomes],
            noise_gap_config,
            n=200_000,
            seed=11,
        )
        assert abs(report.quality - est.mean) <= 3.0 * est.std_error

    def test_report_wrapper(self, small_reward_config):
        report = solve_unconstrained(small_reward_config)
        views = effective_groups(small_reward_config)
        assert selection_quality(report, views) == pytest.approx(
            report.quality
        )


class TestOrderedPair:
    def test_cost_dominates(self):
        a = GroupView("A", 0.5, 2.0, 0.5)
        b = GroupView("B", 0.5, 1.0, 1.0)
        g1, g2 = ordered_pair((a, b))
        assert g1.label == "B"

    def test_spread_breaks_cost_ties(self):
        a = GroupView("A", 0.5, 1.0, 0.6)
        b = GroupView("B", 0.5, 1.0, 1.0)
        g1, g2 = ordered_pair((a, b))
        assert g1.label == "A"


class TestAsymptoticPredictions:
    def test_equal_cost_rate_ratio(self):
        config = two_group_config(100.0, 0.7)
        pred = asymptotic_predictions(effective_groups(config), config.alpha)
        assert pred.regime == "equal_cost"
        assert pred.dominant_label == "H"
        assert pred.predicted_rate_ratio == pytest.approx((0.7 - 0.5) / 0.5)
        assert pred.predicted_quality_ratio == 1.0
        assert pred.dp_effort_ratio == 1.0

    def test_equal_cost_small_alpha(self):
        config = two_group_config(100.0, 0.3)
        pred = asymptotic_predictions(effective_groups(config), config.alpha)
        assert pred.predicted_rate_ratio == 0.0
        assert pred.comparison_ratios == {"H": pytest.approx(2.0), "L": 0.0}

    def test_cost_gap_quality_ratio(self):
        config = two_group_config(100.0, 0.7, cost_h=1.5)
        pred = asymptotic_predictions(effective_groups(config), config.alpha)
        c = math.sqrt(1.0 / 1.5)
        assert pred.regime == "cost_gap"
        assert pred.dominant_label == "L"
        assert pred.predicted_quality_ratio == pytest.approx(
            c / (c * 0.5 + 0.5), abs=1e-10
        )
        assert pred.predicted_quality_ratio == pytest.approx(0.8990, abs=5e-4)
        assert pred.dp_effort_ratio == pytest.approx(c)

    def test_cost_gap_quality_gain_side(self):
        config = two_group_config(100.0, 0.3, cost_h=1.5)
        pred = asymptotic_predictions(effective_groups(config), config.alpha)
        c = math.sqrt(1.0 / 1.5)
        assert pred.predicted_quality_ratio == pytest.approx(1.0 / (c * 0.5 + 0.5))
        assert pred.predicted_quality_ratio > 1.0

    def test_comparison_ratios_large_alpha(self):
        config = two_group_config(100.0, 0.7, cost_h=1.5)
        pred = asymptotic_predictions(effective_groups(config), config.alpha)
        assert pred.comparison_ratios["L"] == pytest.approx(
            math.sqrt(1.0 / 1.5) / 0.7
        )
        assert pred.comparison_ratios["H"] == pytest.approx(0.2 / (0.7 * 0.5))

    def test_symmetric_is_ambiguous(self):
        config = two_group_config(100.0, 0.3, sigma_h=1.0, sigma_l=1.0)
        with pytest.raises(AmbiguousRegime):
            asymptotic_predictions(effective_groups(config), config.alpha)

    def test_requires_two_groups(self):
        config = GameConfig(
            reward=10.0, alpha=0.3, eta_sq=1.0,
            groups=(
                GroupParams("A", 0.4, 1.0, sigma_tilde=0.5),
                GroupParams("B", 0.3, 1.0, sigma_tilde=0.6),
                GroupParams("C", 0.3, 1.0, sigma_tilde=0.7),
            ),
        )
        with pytest.raises(ValueError):
            asymptotic_predictions(effective_groups(config), config.alpha)


class TestSmallSCrossings:
    def test_values_on_reference_config(self):
        config = two_group_config(1.0, 0.3)
        crossings = small_s_crossings(effective_groups(config), config.reward)
        assert crossings.xi == pytest.approx(1.0 * (1 / 0.6 - 1.0) / 0.4)
        assert crossings.alpha_rate_cross == pytest.approx(0.285570, abs=1e-5)
        assert crossings.k_mu == pytest.approx(0.758076, abs=1e-5)
        lo, hi = crossings.alpha_effort_cross
        assert lo == pytest.approx(0.163707, abs=1e-5)
        assert hi == pytest.approx(0.836293, abs=1e-5)

    def test_balanced_products_collapse_to_half(self):
        # cost_h * sigma_h == cost_l * sigma_l makes both formulas symmetric.
        config = two_group_config(1.0, 0.3, cost_h=1.0 / 0.6)
        crossings = small_s_crossings(effective_groups(config), config.reward)
        assert crossings.xi == pytest.approx(0.0, abs=1e-14)
        assert crossings.alpha_rate_cross == pytest.approx(0.5, abs=1e-12)
        assert crossings.k_mu == pytest.approx(0.0, abs=1e-7)
        lo, hi = crossings.alpha_effort_cross
        assert lo == pytest.approx(0.5, abs=1e-7)
        assert hi == pytest.approx(0.5, abs=1e-7)

    def test_no_effort_crossing_when_product_dominates(self):
        # cost_h * sigma_h > cost_l * sigma_l: no real solution.
        config = two_group_config(1.0, 0.3, cost_h=2.0)
        crossings = small_s_crossings(effective_groups(config), config.reward)
        assert crossings.k_mu is None
        assert crossings.alpha_effort_cross is None
        assert crossings.k_x >= 0.0

    def test_supercritical_rejected(self):
        config = two_group_config(10.0, 0.3)
        with pytest.raises(SubcriticalityViolated):
            small_s_crossings(effective_groups(config), config.reward)

    def test_equal_spreads_rejected(self):
        config = two_group_config(1.0, 0.3, sigma_h=1.0, sigma_l=1.0)
        with pytest.raises(DegenerateVariance):
            small_s_crossings(effective_groups(config), config.reward)

    def test_label_order_invariant(self):
        config = two_group_config(1.0, 0.3)
        flipped = dataclasses.replace(config, groups=tuple(reversed(config.groups)))
        a = small_s_crossings(effective_groups(config), config.reward)
        b = small_s_crossings(effective_groups(flipped), flipped.reward)
        assert a.xi == pytest.approx(b.xi)
        assert a.k_x == pytest.approx(b.k_x)
        assert a.alpha_rate_cross == pytest.approx(b.alpha_rate_cross)
        assert a.alpha_effort_cross == pytest.approx(b.alpha_effort_cross)


class TestSmallRewardSignPatterns:
    def test_dominated_product_orders_efforts_everywhere(self):
        # cost_h * sigma_h > cost_l * sigma_l and both groups subcritical:
        # the low-spread group exerts less effort at every selection size.
        base = two_group_config(1.0, 0.5, cost_h=2.0)
        assert small_s_crossings(effective_groups(base), base.reward).k_mu is None
        for alpha in [float(a) for a in __import__("numpy").linspace(0.02, 0.98, 50)]:
            rep = solve_unconstrained(dataclasses.replace(base, alpha=alpha))
            assert rep.outcome("H").avg_effort < rep.outcome("L").avg_effort

    def test_rate_ordering_flips_at_crossing(self):
        import numpy as np

        base = two_group_config(1.0, 0.5)
        cross = small_s_crossings(effective_groups(base), base.reward).alpha_rate_cross
        grid = np.linspace(0.02, 0.98, 50)
        step = float(grid[1] - grid[0])
        for alpha in grid:
            rep = solve_unconstrained(dataclasses.replace(base, alpha=float(alpha)))
            gap = rep.outcome("H").selection_rate - rep.outcome("L").selection_rate
            if alpha < cross - step:
                assert gap < 0.0
            elif alpha > cross + step:
                assert gap > 0.0


class TestDpEffortTrend:
    def test_ratio_approaches_cost_square_root(self):
        target = math.sqrt(1.0 / 1.5)
        gaps = []
        for reward in (1e2, 1e3, 1e4):
            dp = solve_demographic_parity(two_group_config(reward, 0.3, cost_h=1.5))
            ratio = dp.outcome("H").avg_effort / dp.outcome("L").avg_effort
            gaps.append(abs(ratio - target))
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 0.01
