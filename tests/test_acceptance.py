"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Randomized checks use fixed seeds, so the suite is deterministic.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from stratselect.best_response import ResponseCurve, critical_reward, payoff
from stratselect.dynamics import run as run_dynamics
from stratselect.equilibrium import (
    Game,
    solve_demographic_parity,
    solve_unconstrained,
    solver_bracket,
)
from stratselect.mc import (
    grid_argmax_payoff,
    max_deviation_gain,
    mc_selection_probability,
    mc_selection_quality,
)
from stratselect.metrics import quality_from_outcomes, selection_rate, small_s_crossings
from stratselect.model import (
    EffortDistribution,
    GameConfig,
    GroupOutcome,
    GroupParams,
    GroupView,
    effective_groups,
    posterior_variance,
)

from conftest import two_group_config


def report(name, ok, detail=""):
    suffix = f"  ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def random_config(rng, n_groups=None, allow_oblivious=True):
    k = n_groups or int(rng.integers(2, 4))
    while True:
        shares = rng.dirichlet(np.full(k, 4.0))
        if shares.min() >= 0.1:
            break
    groups = tuple(
        GroupParams(
            label=f"g{i}",
            share=float(shares[i]),
            cost=float(rng.uniform(0.5, 3.0)),
            noise_var=float(rng.uniform(0.0, 4.0)),
        )
        for i in range(k)
    )
    mode = "oblivious" if allow_oblivious and rng.random() < 0.25 else "bayesian"
    return GameConfig(
        reward=float(np.exp(rng.uniform(math.log(0.5), math.log(2000.0)))),
        alpha=float(rng.uniform(0.05, 0.9)),
        eta_sq=float(rng.uniform(0.6, 1.8)),
        groups=groups,
        dm_mode=mode,
    )


class TestCriterion1OracleEquivalence:
    def test_analytic_formulas_match_oracles(self):
        started = time.time()
        rng = np.random.default_rng(2024)
        n = 10**6
        worst = {"prob": 0.0, "quality": 0.0, "br": 0.0}
        for case in range(100):
            config = random_config(rng, n_groups=2)
            views = effective_groups(config)
            idx = int(rng.integers(0, len(views)))
            view, params = views[idx], config.groups[idx]

            theta = float(rng.uniform(-1.0, 3.0))
            m = float(rng.uniform(0.0, 3.0))
            analytic = selection_rate(EffortDistribution.point(m), theta, view)
            est = mc_selection_probability(
                m, theta, params, config.eta_sq, n, seed=10_000 + case,
                dm_mode=config.dm_mode,
            )
            # Binomial SE floor: the empirical SE collapses when every draw
            # lands on one side of the threshold.
            se = max(
                est.std_error,
                math.sqrt(max(analytic * (1.0 - analytic), 0.0) / n),
                1e-9,
            )
            z = abs(analytic - est.mean) / se
            worst["prob"] = max(worst["prob"], z)
            assert z <= 3.0, f"case {case}: selection probability off by {z:.2f} sigma"

            strategies = []
            thresholds = []
            for v in views:
                hi = float(rng.uniform(0.5, 3.0))
                w = float(rng.uniform(0.0, 1.0))
                strategies.append(
                    EffortDistribution(((0.0, 1.0 - w), (hi, w)))
                )
                thresholds.append(float(rng.uniform(0.0, 2.5)))
            outcomes = tuple(
                GroupOutcome(v.label, t, s, s.mean(), 0.0)
                for v, s, t in zip(views, strategies, thresholds)
            )
            analytic_q = quality_from_outcomes(views, outcomes)
            est_q = mc_selection_quality(
                strategies, thresholds, config, n, seed=20_000 + case
            )
            zq = abs(analytic_q - est_q.mean) / max(est_q.std_error, 1e-9)
            worst["quality"] = max(worst["quality"], zq)
            assert zq <= 3.0, f"case {case}: selection quality off by {zq:.2f} sigma"

            theta_br = float(rng.uniform(-0.5, 2.0) * math.sqrt(2.0 * config.reward / view.cost))
            grid_best = grid_argmax_payoff(theta_br, view, config.reward, 10_000)
            brs = ResponseCurve(view, config.reward).best_response(theta_br)
            step = (math.sqrt(2.0 * config.reward / view.cost) + 6.0 * view.sigma) / 9_999
            gap = min(abs(grid_best - b) for b in brs)
            worst["br"] = max(worst["br"], gap / step)
            assert gap <= step + 1e-12, f"case {case}: best response {gap} off grid"
        elapsed = time.time() - started
        report(
            "criterion 1: oracle equivalence on 100 random configs",
            elapsed < 120.0,
            f"worst prob z={worst['prob']:.2f}, quality z={worst['quality']:.2f}, "
            f"br gap={worst['br']:.2f} steps, {elapsed:.0f}s",
        )


class TestCriterion2UniquenessAndBudget:
    def test_unique_budget_and_no_deviation(self):
        started = time.time()
        rng = np.random.default_rng(7)
        worst_budget = worst_spread = worst_gain = 0.0
        for case in range(200):
            config = random_config(rng, n_groups=2 if case % 2 else 3)
            base = solve_unconstrained(config)
            views = effective_groups(config)
            budget = abs(
                sum(v.share * base.outcome(v.label).selection_rate for v in views)
                - config.alpha
            )
            worst_budget = max(worst_budget, budget)
            assert budget <= 1e-8, f"case {case}: budget residual {budget}"

            lo, hi = solver_bracket(config)
            theta = base.threshold
            for _ in range(2):
                sub_lo = float(rng.uniform(lo, theta - 1e-9))
                sub_hi = float(rng.uniform(theta + 1e-9, hi))
                again = solve_unconstrained(config, bracket=(sub_lo, sub_hi))
                spread = abs(again.threshold - theta)
                worst_spread = max(worst_spread, spread)
                assert spread <= 1e-8, f"case {case}: thresholds differ by {spread}"

            gains = max_deviation_gain(base, views, config.reward)
            gain = max(gains.values())
            worst_gain = max(worst_gain, gain / config.reward)
            assert gain <= 1e-7 * config.reward, f"case {case}: deviation gain {gain}"
        elapsed = time.time() - started
        report(
            "criterion 2: uniqueness + budget + no deviation on 200 configs",
            elapsed < 300.0,
            f"worst budget={worst_budget:.1e}, spread={worst_spread:.1e}, "
            f"gain/S={worst_gain:.1e}, {elapsed:.0f}s",
        )


class TestCriterion3DropoutAsymptotics:
    def test_normalized_trend_and_subcritical_bound(self, unit_group):
        seq = []
        for reward in (1e2, 1e3, 1e4, 1e5):
            info = ResponseCurve(unit_group, reward).info
            gap = abs(
                payoff(info.br_max, info.theta_d, unit_group, reward)
                - payoff(info.br_min, info.theta_d, unit_group, reward)
            )
            assert gap <= 1e-9 * reward
            seq.append(info.theta_d * math.sqrt(1.0 / (2.0 * reward)))
        monotone = all(b > a for a, b in zip(seq, seq[1:]))
        approaching = all(
            abs(b - 1.0) < abs(a - 1.0) for a, b in zip(seq, seq[1:])
        )
        bound = critical_reward(unit_group)
        below_has_none = ResponseCurve(unit_group, bound * (1.0 - 1e-12)).info is None
        above_works = ResponseCurve(unit_group, bound * 1.01).info.theta_d > 0
        report(
            "criterion 3: dropout scaling toward sqrt(2S/C), exact bound",
            monotone and approaching and below_has_none and above_works,
            "sequence " + ", ".join(f"{v:.4f}" for v in seq),
        )


class TestCriterion4SmallRewardClosedForms:
    def test_sweep_crossings_match_formulas(self):
        base = two_group_config(1.0, 0.5)
        crossings = small_s_crossings(effective_groups(base), base.reward)
        grid = np.linspace(0.002, 0.998, 400)
        rate_diff, effort_diff = [], []
        for a in grid:
            rep = solve_unconstrained(dataclasses.replace(base, alpha=float(a)))
            rate_diff.append(
                rep.outcome("H").selection_rate - rep.outcome("L").selection_rate
            )
            effort_diff.append(
                rep.outcome("H").avg_effort - rep.outcome("L").avg_effort
            )

        def zero_crossings(vals):
            out = []
            for i in range(len(vals) - 1):
                if np.sign(vals[i]) != np.sign(vals[i + 1]):
                    t = vals[i] / (vals[i] - vals[i + 1])
                    out.append(float(grid[i] + t * (grid[i + 1] - grid[i])))
            return out

        rate_cross = zero_crossings(rate_diff)
        effort_cross = zero_crossings(effort_diff)
        ok = (
            len(rate_cross) == 1
            and abs(rate_cross[0] - crossings.alpha_rate_cross) <= 1e-3
            and len(effort_cross) == 2
            and abs(effort_cross[0] - crossings.alpha_effort_cross[0]) <= 1e-3
            and abs(effort_cross[1] - crossings.alpha_effort_cross[1]) <= 1e-3
        )
        report(
            "criterion 4: small-reward crossings vs 400-point sweep",
            ok,
            f"rate {rate_cross[0]:.5f} vs {crossings.alpha_rate_cross:.5f}; "
            f"efforts {effort_cross[0]:.5f}/{effort_cross[1]:.5f} vs "
            f"{crossings.alpha_effort_cross[0]:.5f}/{crossings.alpha_effort_cross[1]:.5f}",
        )


class TestCriterion5LargeRewardRateRatios:
    def test_rate_ratio_tracks_piecewise_limit(self):
        started = time.time()
        share_h = 0.5
        worst = 0.0
        for a in np.linspace(0.02, 0.98, 50):
            alpha = float(a)
            if abs(alpha - share_h) < 0.05:
                continue
            rep = solve_unconstrained(two_group_config(1000.0, alpha))
            ratio = (
                rep.outcome("L").selection_rate / rep.outcome("H").selection_rate
            )
            limit = 0.0 if alpha < share_h else (alpha - share_h) / (1.0 - share_h)
            worst = max(worst, abs(ratio - limit))
            assert abs(ratio - limit) <= 0.1, f"alpha={alpha}: {ratio} vs {limit}"
        elapsed = time.time() - started
        report(
            "criterion 5: S=1000 rate ratios within 0.1 of limits",
            worst <= 0.1 and elapsed < 180.0,
            f"worst gap {worst:.4f}, {elapsed:.0f}s",
        )


class TestCriterion6QualityRatio:
    def test_cost_gap_quality_ratio(self):
        c = math.sqrt(1.0 / 1.5)
        gain_limit = 1.0 / (c * 0.5 + 0.5)
        loss_limit = c / (c * 0.5 + 0.5)
        worst = 0.0
        for a in np.linspace(0.02, 0.98, 25):
            alpha = float(a)
            if 0.4 < alpha < 0.6:
                continue
            config = two_group_config(1000.0, alpha, cost_h=1.5)
            ratio = (
                solve_unconstrained(config).quality
                / solve_demographic_parity(config).quality
            )
            limit = gain_limit if alpha <= 0.4 else loss_limit
            worst = max(worst, abs(ratio - limit))
            assert abs(ratio - limit) <= 0.1, f"alpha={alpha}: {ratio} vs {limit}"
        report(
            "criterion 6a: cost-gap quality ratio within 0.1 of limits",
            worst <= 0.1,
            f"worst gap {worst:.4f}",
        )

    def test_equal_cost_quality_ratio_near_one(self):
        worst = 0.0
        for a in np.linspace(0.02, 0.98, 25):
            config = two_group_config(1000.0, float(a))
            ratio = (
                solve_unconstrained(config).quality
                / solve_demographic_parity(config).quality
            )
            worst = max(worst, abs(ratio - 1.0))
            assert abs(ratio - 1.0) <= 0.05, f"alpha={a}: ratio {ratio}"
        report(
            "criterion 6b: equal-cost quality ratio within 0.05 of 1",
            worst <= 0.05,
            f"worst gap {worst:.4f}",
        )


class TestCriterion7ParityStructure:
    def test_rates_weights_and_effort_ratio(self):
        config = two_group_config(1e4, 0.3, cost_h=1.5)
        rep = solve_demographic_parity(config)
        rate_err = max(
            abs(o.selection_rate - config.alpha) for o in rep.outcomes
        )
        tau_err = max(abs(o.tau - config.alpha) for o in rep.outcomes)
        ratio = rep.outcome("H").avg_effort / rep.outcome("L").avg_effort
        ratio_err = abs(ratio - math.sqrt(1.0 / 1.5))
        ok = rate_err <= 1e-8 and tau_err <= 0.05 and ratio_err <= 0.05
        report(
            "criterion 7: parity rates exact, weights and efforts at limits",
            ok,
            f"rate err {rate_err:.1e}, tau err {tau_err:.3f}, ratio err {ratio_err:.4f}",
        )


class TestCriterion8Dynamics:
    def test_cycles_and_fictitious_play(self, noise_gap_config):
        eq = solve_unconstrained(noise_gap_config)
        game = Game(noise_gap_config)
        br_trace = run_dynamics(game, mode="br", max_steps=500)
        cycle_ok = br_trace.convergence.status == "cycle" and all(
            avg >= out.avg_effort - 1e-9
            for avg, out in zip(br_trace.cycle_avg_effort, eq.outcomes)
        )
        fp_trace = run_dynamics(game, mode="fp", max_steps=5000)
        fp_err = abs(fp_trace.states[-1].belief - eq.threshold)
        report(
            "criterion 8: cycle effort dominates equilibrium; fp reaches theta",
            cycle_ok and fp_err <= 1e-3,
            f"cycle period {br_trace.convergence.period}, fp err {fp_err:.2e}",
        )


class TestCriterion9Determinism:
    def test_csv_outputs_are_byte_identical(self, tmp_path):
        import json

        from stratselect import cli

        spec = {
            "axis": "alpha",
            "grid": [0.1, 0.3, 0.5],
            "solvers": ["unconstrained", "demographic_parity"],
            "base_config": {
                "reward": 50.0,
                "alpha": 0.5,
                "eta_sq": 1.0,
                "dm_mode": "bayesian",
                "groups": [
                    {"label": "H", "share": 0.5, "cost": 1.0, "noise_var": 3.0},
                    {"label": "L", "share": 0.5, "cost": 1.0, "noise_var": 0.2},
                ],
            },
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        sweep_a, sweep_b = tmp_path / "sa.csv", tmp_path / "sb.csv"
        assert cli.main(["sweep", "--config", str(spec_path), "--out", str(sweep_a)]) == 0
        assert cli.main(["sweep", "--config", str(spec_path), "--out", str(sweep_b)]) == 0

        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(spec["base_config"]), encoding="utf-8")
        dyn_a, dyn_b = tmp_path / "da.csv", tmp_path / "db.csv"
        for out in (dyn_a, dyn_b):
            assert cli.main([
                "dynamics", "--config", str(config_path),
                "--mode", "br", "--steps", "80", "--out", str(out),
            ]) == 0
        ok = (
            sweep_a.read_bytes() == sweep_b.read_bytes()
            and dyn_a.read_bytes() == dyn_b.read_bytes()
        )
        report("criterion 9: repeated CSV runs byte-identical", ok)
