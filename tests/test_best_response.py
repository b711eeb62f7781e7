import collections
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratselect.best_response as best_response_module
from stratselect.best_response import (
    CRITICAL_REWARD_FACTOR,
    PAYOFF_TIE_REL,
    TIE_BAND,
    ResponseCurve,
    critical_reward,
    foc_window,
    payoff,
)
from stratselect.equilibrium import solve_demographic_parity, solve_unconstrained
from stratselect.kernel import NoConvergence, normal_cdf, normal_pdf
from stratselect.mc import effort_grid, grid_argmax_payoff
from stratselect.model import (
    MAX_REWARD_RATIO,
    GameConfig,
    GroupParams,
    GroupView,
    effective_groups,
    validate,
)

from conftest import point_rate


def foc_residual(m, theta, group, reward):
    return abs(
        (reward / group.sigma) * normal_pdf((theta - m) / group.sigma)
        - group.cost * m
    )


class TestSelectionProbability:
    """The rate at which a point effort clears the threshold, as the solvers
    and ``verify`` read it (:func:`metrics.selection_rate`)."""

    def test_at_threshold(self):
        assert point_rate(2.0, 2.0, 1.0) == 0.5

    def test_one_spread_above(self):
        assert point_rate(3.0, 2.0, 1.0) == pytest.approx(
            0.8413447460685429, abs=1e-15
        )

    def test_monotone_in_effort_and_threshold(self):
        probs = [point_rate(m, 1.0, 0.7) for m in np.linspace(0, 4, 50)]
        assert all(b > a for a, b in zip(probs, probs[1:]))
        tail = [point_rate(1.0, t, 0.7) for t in np.linspace(0, 40, 50)]
        assert all(b <= a for a, b in zip(tail, tail[1:]))
        assert tail[-1] == pytest.approx(0.0, abs=1e-300)


class TestPayoff:
    def test_zero_effort(self, unit_group):
        for theta in (-2.0, 0.0, 3.0):
            expected = 10.0 * normal_cdf(-theta)
            assert payoff(0.0, theta, unit_group, 10.0) == pytest.approx(expected)
            assert payoff(0.0, theta, unit_group, 10.0) > 0.0

    def test_point_value(self, unit_group):
        assert payoff(1.0, 0.0, unit_group, 10.0) == pytest.approx(
            7.913447460685429, abs=1e-12
        )

    def test_diverges_with_effort(self, unit_group):
        values = [payoff(m, 0.0, unit_group, 10.0) for m in (10.0, 50.0, 200.0)]
        assert values[0] > values[1] > values[2]
        assert values[2] < -1e4


class TestStationaryPoints:
    def test_subcritical_single_point(self, unit_group):
        # S = 1 < sigma^2 * cost / phi(1) ~ 4.1327
        sp = ResponseCurve(unit_group, 1.0).stationary_points(1.0)
        assert len(sp.points) == 1
        assert sp.points[0][1] == "local_max"

    def test_critical_factor_value(self):
        assert CRITICAL_REWARD_FACTOR == pytest.approx(4.132731354122493, abs=1e-12)

    def test_three_points_inside_window(self, unit_group):
        z1, z2, theta1, theta2 = foc_window(unit_group, 10.0)
        curve = ResponseCurve(unit_group, 10.0)
        sp = curve.stationary_points(0.5 * (theta1 + theta2))
        kinds = [kind for _, kind in sp.points]
        assert kinds == ["local_max", "local_min", "local_max"]
        efforts = [m for m, _ in sp.points]
        assert efforts == sorted(efforts)
        assert curve.window[:2] == (z1, z2)

    def test_single_point_outside_window(self, unit_group):
        _, _, theta1, theta2 = foc_window(unit_group, 10.0)
        curve = ResponseCurve(unit_group, 10.0)
        for theta in (theta1 - 0.5, theta2 + 0.5):
            sp = curve.stationary_points(theta)
            assert len(sp.points) == 1

    def test_foc_residuals(self, unit_group):
        _, _, theta1, theta2 = foc_window(unit_group, 10.0)
        curve = ResponseCurve(unit_group, 10.0)
        for theta in np.linspace(theta1 + 0.05, theta2 - 0.05, 7):
            sp = curve.stationary_points(float(theta))
            for m, _ in sp.points:
                assert foc_residual(m, theta, unit_group, 10.0) <= 1e-9 * max(1.0, m)

    def test_window_matches_turning_points(self, unit_group):
        # z1, z2 solve z * pdf(z) = -cost * sigma^2 / S.
        z1, z2, _, _ = foc_window(unit_group, 10.0)
        for z in (z1, z2):
            assert z * normal_pdf(z) == pytest.approx(-0.1, abs=1e-12)
        assert z1 < -1.0 < z2 < 0.0

    def test_no_window_when_subcritical(self, unit_group):
        assert foc_window(unit_group, 4.0) is None


class TestBestResponse:
    def test_fixed_point_against_grid(self, unit_group):
        # At theta=0, S=C=sigma=1 the response solves m = pdf(m).
        (m,) = ResponseCurve(unit_group, 1.0).best_response(0.0)
        assert m == pytest.approx(0.37223889803561864, abs=1e-10)
        step = effort_grid(unit_group, 1.0)[1]
        assert abs(grid_argmax_payoff(0.0, unit_group, 1.0) - m) <= step

    def test_beats_grid_along_thresholds(self, unit_group):
        reward = 10.0
        curve = ResponseCurve(unit_group, reward)
        for theta in np.linspace(-1.0, 5.5, 14):
            theta = float(theta)
            brs = curve.best_response(theta)
            m_grid = grid_argmax_payoff(theta, unit_group, reward)
            best_grid = payoff(m_grid, theta, unit_group, reward)
            best_ours = max(payoff(m, theta, unit_group, reward) for m in brs)
            assert best_ours >= best_grid - 1e-7 * reward

    def test_collapse_above_dropout(self, unit_group):
        curve = ResponseCurve(unit_group, 1e4)
        (m,) = curve.best_response(curve.info.theta_d / 0.5)
        assert m <= 1e-12

    def test_linear_growth_below_dropout(self, unit_group):
        curve = ResponseCurve(unit_group, 1e4)
        info = curve.info
        (m,) = curve.best_response(0.5 * info.theta_d)
        assert m / info.theta_d == pytest.approx(0.5, abs=0.05)

    def test_two_values_at_dropout(self, unit_group):
        curve = ResponseCurve(unit_group, 10.0)
        info = curve.info
        brs = curve.best_response(info.theta_d)
        assert len(brs) == 2
        assert brs[0] == pytest.approx(info.br_min, abs=1e-9)
        assert brs[1] == pytest.approx(info.br_max, abs=1e-9)


class TestDropoutThreshold:
    def test_inside_window_with_equal_payoffs(self, unit_group):
        info = ResponseCurve(unit_group, 10.0).info
        theta1, theta2 = info.window
        assert theta1 < info.theta_d < theta2
        assert info.br_min < info.br_max
        gap = abs(
            payoff(info.br_max, info.theta_d, unit_group, 10.0)
            - payoff(info.br_min, info.theta_d, unit_group, 10.0)
        )
        assert gap <= 1e-9 * 10.0
        assert info.payoff_at_dropout > 0.0

    def test_normalized_location(self, unit_group):
        info = ResponseCurve(unit_group, 10.0).info
        assert 0.4 < info.theta_d / math.sqrt(2.0 * 10.0) < 1.6

    def test_subcritical_has_none(self, unit_group):
        assert ResponseCurve(unit_group, 1.0).info is None
        assert critical_reward(unit_group) == pytest.approx(4.132731354122493)

    def test_exactly_critical_has_none(self, unit_group):
        assert ResponseCurve(unit_group, critical_reward(unit_group)).info is None

    def test_normalized_sequence_tends_to_one(self, unit_group):
        seq = [
            ResponseCurve(unit_group, s).info.theta_d / math.sqrt(2.0 * s)
            for s in (1e2, 1e3, 1e4, 1e5)
        ]
        gaps = [abs(v - 1.0) for v in seq]
        assert gaps == sorted(gaps, reverse=True)
        assert all(b > a for a, b in zip(seq, seq[1:]))

    def test_decreasing_in_spread(self):
        # Fix cost, push the reward well past critical for both spreads.
        reward = 100.0 * CRITICAL_REWARD_FACTOR
        narrow = GroupView("n", 1.0, 1.0, 1.0)
        wide = GroupView("w", 1.0, 1.0, 1.5)
        assert (
            ResponseCurve(wide, reward).info.theta_d
            < ResponseCurve(narrow, reward).info.theta_d
        )

    def test_equal_cost_noise_ordering(self):
        # Lower spread (higher estimate noise) drops out later.
        high_noise = GroupView("H", 0.5, 1.0, 0.6)
        low_noise = GroupView("L", 0.5, 1.0, 1.0)
        for reward in (100.0, 1000.0):
            assert (
                ResponseCurve(high_noise, reward).info.theta_d
                > ResponseCurve(low_noise, reward).info.theta_d
            )

    def test_limits_of_tied_responses(self, unit_group):
        infos = [ResponseCurve(unit_group, s).info for s in (1e2, 1e3, 1e4)]
        mins = [i.br_min for i in infos]
        ratios = [i.br_max / i.theta_d for i in infos]
        assert all(b <= a for a, b in zip(mins, mins[1:]))
        assert all(abs(b - 1.0) < abs(a - 1.0) for a, b in zip(ratios, ratios[1:]))


class TestDropoutSearch:
    """The dropout search is one Newton iteration on the threshold and both
    maxima: the tie is tight across the supported range, and the maxima are
    solved once."""

    @settings(max_examples=150, deadline=None)
    @given(
        cost=st.floats(0.2, 10.0),
        sigma=st.floats(0.05, 3.0),
        log_ratio=st.floats(math.log10(1.001), 7.0),
    )
    def test_tie_within_window(self, cost, sigma, log_ratio):
        group = GroupView("A", 1.0, cost, sigma)
        reward = critical_reward(group) * 10.0**log_ratio
        info = ResponseCurve(group, reward).info
        theta1, theta2 = info.window
        assert theta1 < info.theta_d < theta2
        assert info.br_min < info.br_max
        tie = payoff(info.br_max, info.theta_d, group, reward) - payoff(
            info.br_min, info.theta_d, group, reward
        )
        assert abs(tie) <= 1e-11 * reward

    @pytest.mark.parametrize("reward", [10.0, 1000.0])
    def test_stationary_point_solves(self, unit_group, reward, monkeypatch):
        calls = []
        real = ResponseCurve._root

        def counted(curve, tau, *bracket):
            calls.append((tau, bracket))
            return real(curve, tau, *bracket)

        monkeypatch.setattr(ResponseCurve, "_root", counted)
        ResponseCurve(unit_group, reward)
        # The tie search solves both maxima once, at its start; it solves
        # them again only at a bisected threshold, which neither reward needs.
        # The low maximum is bracketed in mu, the high one in z.
        (tau, low), (tau_again, high) = calls
        assert tau == tau_again and (low[2], high[2]) == (True, False)


# Log-uniform spreads and costs of the supported-range fuzz.
SPREADS = st.floats(-4.0, math.log10(3.0)).map(lambda e: 10.0**e)
COSTS = st.floats(math.log10(0.2), math.log10(5.0)).map(lambda e: 10.0**e)


class TestScaledUnits:
    """The candidate problem depends on eps = C * sigma**2 / S alone."""

    @settings(max_examples=150, deadline=None)
    @given(cost=COSTS, sigma=SPREADS, log_ratio=st.floats(1.0, 20.0), power=st.integers(-8, 8))
    def test_dropout_is_scale_free(self, cost, sigma, log_ratio, power):
        # (C * k**2, sigma / k, S) has the same eps, to the bit, for k = 2**power.
        reward = 10.0**log_ratio * cost * sigma**2
        k = 2.0**power
        a = ResponseCurve(GroupView("A", 1.0, cost, sigma), reward).info
        b = ResponseCurve(GroupView("A", 1.0, cost * k * k, sigma / k), reward).info
        for name in ("theta_d", "br_min", "br_max"):
            x, y = getattr(a, name), getattr(b, name)
            if 0.0 < min(abs(x), abs(y)) < sys.float_info.min:
                continue  # a subnormal effort has too few bits to scale exactly
            assert x / sigma == y / (sigma / k), name

    @settings(max_examples=200, deadline=None)
    @given(cost=COSTS, sigma=SPREADS, log_ratio=st.floats(1.0, 22.0))
    def test_solved_or_rejected(self, cost, sigma, log_ratio):
        # Twin groups: validate names both, or the dropout ties inside its window.
        reward = 10.0**log_ratio * cost * sigma**2
        twins = tuple(GroupParams(label, 0.5, cost, sigma_tilde=sigma) for label in "AB")
        config = GameConfig(reward=reward, alpha=0.1, eta_sq=1.0, groups=twins)
        problems = validate(config)
        view = effective_groups(config)[0]
        ratio = reward / (view.cost * view.sigma**2)
        if problems:
            assert ratio > MAX_REWARD_RATIO
            assert [p[:12] for p in problems] == ["groups['A']:", "groups['B']:"]
            return
        info = ResponseCurve(view, reward).info
        theta1, theta2 = info.window
        assert theta1 < info.theta_d < theta2
        assert info.br_min < info.br_max
        tie = payoff(info.br_max, info.theta_d, view, reward) - payoff(
            info.br_min, info.theta_d, view, reward
        )
        assert abs(tie) <= PAYOFF_TIE_REL * reward


def three_root_best_response(theta, group, reward):
    """Every stationary point, then the payoff comparison and tie test."""
    maxima = ResponseCurve(group, reward).stationary_points(theta).maxima
    if len(maxima) == 1:
        return maxima
    u_low = payoff(maxima[0], theta, group, reward)
    u_high = payoff(maxima[-1], theta, group, reward)
    if abs(u_high - u_low) <= PAYOFF_TIE_REL * reward:
        return (maxima[0], maxima[-1])
    return (maxima[-1],) if u_high > u_low else (maxima[0],)


def gap_slope(theta, group, reward):
    """Slope of the payoff gap between the two maxima (envelope theorem)."""
    points = ResponseCurve(group, reward).stationary_points(theta).points
    low, _, high = (m for m, _ in points)
    return (reward / group.sigma) * (
        normal_pdf((high - theta) / group.sigma) - normal_pdf((low - theta) / group.sigma)
    )


class TestResponseCurve:
    """Outside the tie band the curve solves only the maximum that wins and
    still returns the three-root best response, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        cost=st.floats(0.2, 10.0),
        sigma=st.floats(0.05, 3.0),
        log_ratio=st.floats(math.log10(1.001), 7.0),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
    )
    def test_matches_three_root_reference(self, cost, sigma, log_ratio, fractions):
        group = GroupView("A", 1.0, cost, sigma)
        reward = critical_reward(group) * 10.0**log_ratio
        curve = ResponseCurve(group, reward)
        info = curve.info
        theta1, theta2 = info.window
        # The curve keeps its band, centred on the dropout, in tau = theta / sigma.
        tau_lo, tau_hi = curve.band
        half = sigma * 0.5 * (tau_hi - tau_lo)
        assert half > 0.0
        assert sigma * 0.5 * (tau_lo + tau_hi) == pytest.approx(info.theta_d, rel=1e-14)
        band_lo, band_hi = info.theta_d - half, info.theta_d + half
        # The band is as wide as the slope of the gap at the dropout says.
        slope_d = gap_slope(info.theta_d, group, reward)
        assert half == pytest.approx(TIE_BAND * PAYOFF_TIE_REL * reward / abs(slope_d))
        # Margin: the slope changes by less than TIE_BAND across the band.
        for edge in (band_lo, band_hi):
            if curve.inner[0] < edge / sigma < curve.inner[1]:
                ratio = gap_slope(edge, group, reward) / slope_d
                assert 1.0 / TIE_BAND < ratio < TIE_BAND

        thresholds = [theta1, theta2]
        for k in (0.5, 1.0, 2.0, 10.0, 1e3):
            thresholds += [info.theta_d - k * half, info.theta_d + k * half]
        thresholds += [theta1 + f * (theta2 - theta1) for f in fractions]
        for theta in thresholds:
            got = curve.best_response(theta)
            want = three_root_best_response(theta, group, reward)
            assert [m.hex() for m in got] == [m.hex() for m in want], theta

    def test_one_root_outside_band(self, unit_group, monkeypatch):
        curve = ResponseCurve(unit_group, 10.0)
        theta_d = curve.info.theta_d
        half = theta_d - curve.band[0]
        lower, upper = curve.inner  # in tau, which is theta at sigma 1
        # A reward this close to critical has turning points, but its window
        # edges merge: the curve has no window, as a subcritical one has none.
        degenerate = ResponseCurve(unit_group, critical_reward(unit_group) * (1.0 + 1e-12))
        assert degenerate.window is None
        assert best_response_module._turning_points(degenerate.eps) is not None
        subcritical = ResponseCurve(unit_group, 1.0)
        assert subcritical.window is None
        roots = []
        real = ResponseCurve._root

        def counted(self, tau, *bracket):
            roots.append(tau)
            return real(self, tau, *bracket)

        monkeypatch.setattr(ResponseCurve, "_root", counted)
        one_root = [
            (curve, theta)
            for theta in (theta_d - 2.0 * half, theta_d + 2.0 * half,
                          lower, lower - 1.0, upper, upper + 1.0)
        ]
        one_root += [(c, theta) for c in (degenerate, subcritical)
                     for theta in (-1.0, 0.0, 2.0, 5.0)]
        for c, theta in one_root:
            before = len(roots)
            assert len(c.best_response(theta)) == 1
            assert len(roots) == before + 1, (c.reward, theta)
        assert len(curve.best_response(theta_d + 0.5 * half)) == 1
        assert len(roots) == len(one_root) + 2  # inside the band: both maxima

    def test_failed_dropout_search_raises_from_the_constructor(
        self, unit_group, failing_tie_search
    ):
        with pytest.raises(
            NoConvergence, match=r"no tie for group 'A': no root in \[.*\] after 200 steps"
        ):
            ResponseCurve(unit_group, 10.0)
        assert ResponseCurve(unit_group, 1.0).info is None  # no window, no search

    @pytest.mark.parametrize("reward", [1.0, 10.0, 1e4])
    def test_queries_leave_the_curve_unchanged(self, unit_group, reward):
        # A curve holds no memo: once built, no query changes an attribute,
        # so any number of solves may share it.  The reprs also see a
        # container changed in place.
        curve = ResponseCurve(unit_group, reward)
        before = {name: repr(value) for name, value in vars(curve).items()}
        top = 2.0 * math.sqrt(2.0 * reward)
        thresholds = [top * (k / 40.0 - 0.25) for k in range(41)]
        if curve.info is not None:
            thresholds += [curve.info.theta_d] * 3 + list(curve.info.window)
        for theta in thresholds + thresholds[::-1]:
            curve.best_response(theta)
            curve.stationary_points(theta)
        assert {name: repr(value) for name, value in vars(curve).items()} == before


class TestOneShotFunctions:
    """The module's ``stationary_points``, ``best_response`` and
    ``dropout_threshold`` remain only for the benchmark's tracer, which wraps
    them by name; each answers exactly as a fresh curve does."""

    @pytest.mark.parametrize("factor", [0.5, 1.0, 1.0 + 1e-12, 1.01, 10.0, 1e4])
    def test_each_returns_what_a_fresh_curve_returns(self, unit_group, factor):
        reward = critical_reward(unit_group) * factor
        curve = ResponseCurve(unit_group, reward)
        info = best_response_module.dropout_threshold(unit_group, reward)
        assert info == curve.info
        if factor <= 1.0:  # at and below the critical reward
            assert info is None
        thresholds = [-1.0, 0.0, 1.0, 2.0, 5.0, 50.0]
        if info is not None:
            thresholds += [info.theta_d, *info.window]
        for theta in thresholds:
            assert best_response_module.best_response(
                theta, unit_group, reward
            ) == curve.best_response(theta)
            assert best_response_module.stationary_points(
                theta, unit_group, reward
            ) == curve.stationary_points(theta)


class TestDerivativeIdentity:
    def test_matches_finite_differences(self, unit_group):
        curve, h = ResponseCurve(unit_group, 10.0), 1e-6
        for theta in (0.5, 1.5, 2.0, 4.5, 6.0):
            m = curve.best_response(theta)[-1]
            m_up = curve.best_response(theta + h)[-1]
            m_dn = curve.best_response(theta - h)[-1]
            fd = (m_up - m_dn) / (2.0 * h)
            analytic = m * (m - theta) / (m * (m - theta) + 1.0)
            assert abs(fd - analytic) <= 1e-4
            assert analytic < 1.0
            if m <= theta:
                assert analytic <= 0.0


def count_evaluations(monkeypatch):
    """Evaluations that ``best_response`` asks of :func:`find_root`, by
    equation: ``foc`` for a stationary point, ``tie`` for the dropout."""
    counts = collections.Counter()
    real = best_response_module.find_root

    def find_root(f, *args):
        def counted(x):
            counts[f.__name__] += 1
            return f(x)

        return real(counted, *args)

    monkeypatch.setattr(best_response_module, "find_root", find_root)
    return counts


class RecordingCurve(ResponseCurve):
    """A curve that records each root with the bracket it was solved on,
    from the dropout search its constructor runs onward."""

    def __init__(self, group, reward):
        self.roots = []
        super().__init__(group, reward)

    def _root(self, tau, lo, hi, in_mu, *rest):
        point = super()._root(tau, lo, hi, in_mu, *rest)
        self.roots.append((lo, hi, point[1] if in_mu else point[0], point))
        return point


def scaled_residual_ok(eps, point):
    """``g = phi(z) - eps * mu`` within a few ulps of its larger term: the
    rounding of ``exp(-z**2 / 2)`` grows with ``z**2``, and a subnormal term
    has few bits."""
    z, mu = point
    pdf = normal_pdf(z)
    bound = 4.0 * sys.float_info.epsilon * (1.0 + z * z) * max(pdf, eps * mu)
    return abs(pdf - eps * mu) <= bound + 8.0 * math.ulp(0.0)


def scaled_threshold(curve, where, u):
    """A threshold ``tau`` inside, at the edges of or outside the window,
    placed by ``u`` in [0, 1]."""
    if curve.window is None:
        return {"below": -60.0 * u, "above": 10.0 ** (6.0 * u)}.get(where, 10.0 * u)
    _, _, tau1, tau2 = curve.window
    return {
        "inside": tau1 + u * (tau2 - tau1),
        "log_inside": tau1 * (tau2 / tau1) ** u,
        "at_edges": tau1 if u < 0.5 else tau2,
        "lower_edge": tau1 * (1.0 + 4e-9 * (u - 0.5)),
        "upper_edge": tau2 * (1.0 + 4e-9 * (u - 0.5)),
        "below": tau1 - 60.0 * u,
        "above": tau2 * 10.0 ** (3.0 * u),
    }[where]


class TestNewtonRoots:
    """Every stationary point is a safeguarded Newton iteration on the
    first-order condition, started at a fixed point of its bracket."""

    @settings(max_examples=400, deadline=None)
    @given(
        log_eps=st.floats(-20.0, 1.0),  # the supported range, and past phi(1) ~ 0.242
        where=st.sampled_from(
            ["inside", "log_inside", "at_edges", "lower_edge", "upper_edge", "below", "above"]
        ),
        u=st.floats(0.0, 1.0),
        other=st.floats(0.0, 1.0),
    )
    def test_roots_in_bracket_at_machine_residual(self, log_eps, where, u, other):
        eps = 10.0**log_eps
        group = GroupView("A", 1.0, eps, 1.0)  # at reward 1 the cost is eps
        curve = RecordingCurve(group, 1.0)
        searched = len(curve.roots)
        tau = scaled_threshold(curve, where, u)
        points = curve.stationary_points(tau)
        assert len(curve.roots) - searched == len(points.points)
        for lo, hi, x, point in curve.roots:  # the dropout search's roots too
            assert lo <= x <= hi
            assert scaled_residual_ok(eps, point), (point, lo, hi)
        # A root depends on (eps, tau, bracket) alone, not on earlier calls.
        used = ResponseCurve(group, 1.0)
        used.best_response(scaled_threshold(used, "log_inside", other))
        assert used.stationary_points(tau) == points
        assert used.best_response(tau) == ResponseCurve(group, 1.0).best_response(tau)

    def test_low_maximum_at_zero_effort(self):
        # phi(-1507) underflows: the low maximum is mu = 0 to double
        # precision, and its first evaluation, at mu = 0, finds it.
        curve = RecordingCurve(GroupView("A", 1.0, 2.6e-4, 1.0), 1.0)
        assert curve.window[2] < 1507.0 < curve.window[3]
        low, minimum, high = curve.stationary_points(1507.0).points
        assert low == (0.0, "local_max")
        assert curve.best_response(1507.0) == (0.0,)
        for lo, hi, x, point in curve.roots:
            assert lo <= x <= hi
            assert scaled_residual_ok(2.6e-4, point)

    def test_minimum_between_turning_points(self, unit_group):
        # g rises on [z1, z2], with a slope of about 0 at either end: the
        # minimum's bracket follows the sign of g, never its local slope.
        curve = ResponseCurve(unit_group, 10.0)
        z1, z2, _, _ = curve.window
        lo, hi = curve.inner
        thresholds = [math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf)]
        thresholds += [lo + f * (hi - lo) for f in (1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-6)]
        for tau in thresholds:
            _, minimum, _ = curve._stationary_points(tau)
            assert z1 <= minimum[0] <= z2
            assert scaled_residual_ok(curve.eps, minimum)

    @pytest.mark.parametrize("dm_mode", ["bayesian", "oblivious"])
    def test_one_group_with_adjacent_double_roots(self, dm_mode):
        # An iteration here ended on a bracket of two adjacent doubles,
        # whose ends a Newton step would swap for ever.
        config = GameConfig(
            reward=18.7278, alpha=0.5, eta_sq=1.0, dm_mode=dm_mode,
            groups=(GroupParams("A", 1.0, math.sqrt(10.0), noise_var=0.0),),
        )
        for solve in (solve_unconstrained, solve_demographic_parity):
            (outcome,) = solve(config).outcomes
            assert outcome.selection_rate == pytest.approx(0.5, abs=1e-9)

    def test_dropout_search_evaluations(self, unit_group, monkeypatch):
        # Measured: both maxima at the start (10 evaluations of the
        # first-order condition), then 4 evaluations of the tie.
        counts = count_evaluations(monkeypatch)
        ResponseCurve(unit_group, 10.0)
        assert counts["foc"] <= 15 and counts["tie"] <= 5

    def test_dropout_search_work_over_the_supported_range(self, unit_group, monkeypatch):
        # A fixed log grid of 200 reward ratios over the supported range.
        # Measured per curve: 11.5 evaluations of the first-order condition
        # (both maxima at the start) and 3.27 of the tie.
        counts = count_evaluations(monkeypatch)
        ratios = np.geomspace(1.001, MAX_REWARD_RATIO, 200)
        for ratio in ratios:
            ResponseCurve(unit_group, critical_reward(unit_group) * float(ratio))
        assert counts["foc"] / len(ratios) <= 15.0
        assert counts["tie"] / len(ratios) <= 5.0
