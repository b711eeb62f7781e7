import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw, ndtr, ndtri

import stratselect
from stratselect import kernel
from stratselect.kernel import (
    DomainError,
    NoBracket,
    NoConvergence,
    find_root,
    lambert_w,
    normal_cdf,
    normal_pdf,
    normal_quantile,
)


class TestNormalPdf:
    def test_at_zero(self):
        assert normal_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-16)

    def test_at_one(self):
        assert normal_pdf(1.0) == pytest.approx(0.24197072451914337, abs=1e-16)

    @given(st.floats(min_value=-20, max_value=20))
    def test_symmetry_and_positivity(self, z):
        assert normal_pdf(z) == normal_pdf(-z)
        assert normal_pdf(z) > 0.0

    def test_is_derivative_of_cdf(self):
        h = 1e-5
        for z in np.linspace(-6, 6, 121):
            fd = (normal_cdf(z + h) - normal_cdf(z - h)) / (2 * h)
            assert abs(fd - normal_pdf(z)) <= 1e-6

    def test_z_pdf_extrema_at_unit_z(self):
        # z * pdf(z) peaks at z = 1 and bottoms at z = -1.
        grid = [-6.0 + 0.003 * i for i in range(4001)]
        vals = [z * normal_pdf(z) for z in grid]
        assert grid[vals.index(max(vals))] == pytest.approx(1.0, abs=5e-3)
        assert grid[vals.index(min(vals))] == pytest.approx(-1.0, abs=5e-3)
        assert max(vals) == pytest.approx(normal_pdf(1.0), abs=1e-6)
        assert min(vals) == pytest.approx(-normal_pdf(1.0), abs=1e-6)


class TestNormalCdf:
    def test_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_at_one(self):
        assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-15)

    def test_strictly_increasing(self):
        vals = [normal_cdf(z) for z in np.linspace(-8, 8, 200)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v < 1.0 for v in vals)

    def test_array_matches_scalar(self):
        # The array CDF is scipy's, which mc uses; the kernel is scalar-only.
        grid = np.linspace(-5, 5, 11)
        for z, v in zip(grid, ndtr(grid)):
            assert v == pytest.approx(normal_cdf(float(z)), abs=1e-16)


class TestNormalQuantile:
    @pytest.mark.parametrize("z", [-3.0, -1.0, 0.0, 1.0, 3.0])
    def test_inverse_pair(self, z):
        assert normal_quantile(normal_cdf(z)) == pytest.approx(z, abs=1e-10)

    def test_median(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(DomainError):
            normal_quantile(p)

    @given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
    def test_roundtrip_from_probability(self, p):
        assert normal_cdf(normal_quantile(p)) == pytest.approx(p, rel=1e-9, abs=1e-13)

    @settings(max_examples=500)
    @given(
        st.one_of(
            st.floats(min_value=1e-300, max_value=1.0 - 1e-16),
            st.floats(min_value=-300.0, max_value=-1.0).map(lambda e: 10.0**e),
        )
    )
    def test_matches_scipy(self, p):
        assert normal_quantile(p) == pytest.approx(float(ndtri(p)), rel=2e-15, abs=0.0)


class TestLambertW:
    def test_principal_at_zero(self):
        assert lambert_w("principal", 0.0) == 0.0

    def test_principal_at_e(self):
        assert lambert_w("principal", math.e) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("branch", ["principal", "minus_one"])
    def test_branch_point(self, branch):
        assert lambert_w(branch, -math.exp(-1.0)) == -1.0

    def test_minus_one_branch_example(self):
        w = lambert_w("minus_one", -0.1)
        assert w < -1.0
        assert abs(w * math.exp(w) + 0.1) <= 1e-12
        assert w == pytest.approx(-3.5771520639572972, abs=1e-12)

    def test_principal_branch_range(self):
        assert lambert_w("principal", -0.1) == pytest.approx(
            -0.11183255915896296, abs=1e-14
        )

    @pytest.mark.parametrize(
        "branch, x",
        [("principal", -0.5), ("minus_one", -0.5), ("minus_one", 0.1), ("minus_one", 0.0)],
    )
    def test_domain_errors(self, branch, x):
        with pytest.raises(DomainError):
            lambert_w(branch, x)

    def test_unknown_branch(self):
        with pytest.raises(ValueError):
            lambert_w("zero", 1.0)

    @given(st.floats(min_value=-0.3678, max_value=100.0))
    def test_principal_residual(self, x):
        w = lambert_w("principal", x)
        assert w >= -1.0 - 1e-12
        assert abs(w * math.exp(w) - x) <= 1e-10 * max(1.0, abs(x))

    @given(st.floats(min_value=-0.3678, max_value=-1e-12))
    def test_minus_one_residual(self, x):
        w = lambert_w("minus_one", x)
        assert w <= -1.0 + 1e-12
        assert abs(w * math.exp(w) - x) <= 1e-10 * max(1.0, abs(x))

    @settings(max_examples=500)
    @given(
        st.one_of(
            st.floats(min_value=-0.3, max_value=1e300),
            st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e),
        )
    )
    def test_principal_matches_scipy(self, x):
        expected = float(lambertw(x, 0).real)
        assert lambert_w("principal", x) == pytest.approx(expected, rel=1e-15, abs=0.0)

    @settings(max_examples=500)
    @given(
        st.one_of(
            st.floats(min_value=-0.3, max_value=-1e-300),
            st.floats(min_value=-300.0, max_value=-0.53).map(lambda e: -(10.0**e)),
        )
    )
    def test_minus_one_matches_scipy(self, x):
        expected = float(lambertw(x, -1).real)
        assert lambert_w("minus_one", x) == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("branch, x", [("principal", 1.7e308), ("minus_one", -5e-324)])
    def test_finite_at_the_ends_of_the_doubles(self, branch, x):
        assert math.isfinite(lambert_w(branch, x))

    def test_near_branch_point_both_branches(self):
        # This singular neighbourhood is exactly where the three-root window
        # degenerates, so the residual must stay tight.
        for eps in (1e-13, 1e-10, 1e-7, 1e-4):
            x = -math.exp(-1.0) + eps
            for branch in ("principal", "minus_one"):
                w = lambert_w(branch, x)
                assert abs(w * math.exp(w) - x) <= 1e-10


def falling(g, slope):
    """``find_root``'s ``f`` for the root of ``-g``, which rises, given the
    derivative of ``g``."""
    return lambda x: (-g(x), -slope(x))


def recorded(f):
    """``f`` that appends each argument it is called with to ``f.calls``."""

    def wrapper(x):
        wrapper.calls.append(x)
        return f(x)

    wrapper.calls = []
    return wrapper


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: (2.0 - x, -1.0), 0.0, 5.0, 0.0) == 2.0

    def test_cosine(self):
        root = find_root(lambda x: (math.cos(x), -math.sin(x)), 1.0, 2.0, 1.0)
        assert root == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            find_root(lambda x: (1.0 - x, -1.0), 1.0, 1.0, 1.0)

    def test_no_convergence(self, monkeypatch):
        monkeypatch.setattr(kernel, "MAX_ITER", 2)
        with pytest.raises(NoConvergence, match="after 2 steps"):
            find_root(lambda x: (math.cos(x), -math.sin(x)), 1.0, 2.0, 1.0)

    def test_endpoint_root(self):
        f = recorded(lambda x: (-x, -1.0))
        assert find_root(f, 0.0, 1.0, 0.0) == 0.0
        assert f.calls == [0.0]

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            find_root(lambda x: (-x, -1.0), 2.0, 1.0, 1.5)

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_shifted_cubic(self, c):
        # A triple root: the slope vanishes with the value, and Newton
        # converges linearly.
        f = falling(lambda x: (x - c) ** 3, lambda x: 3.0 * (x - c) ** 2)
        root = find_root(f, c - 10.0, c + 11.0, c - 10.0)
        assert root == pytest.approx(c, abs=1e-4)

    def test_deterministic(self):
        f = falling(lambda x: math.expm1(x) - 0.5, math.exp)
        assert find_root(f, -1.0, 1.0, 0.3) == find_root(f, -1.0, 1.0, 0.3)

    def test_nan_at_lower_end(self):
        with pytest.raises(NoConvergence, match="NaN"):
            find_root(lambda x: (math.nan if x == 0.0 else 0.5 - x, -1.0), 0.0, 1.0, 0.0)

    def test_nan_at_upper_end(self):
        with pytest.raises(NoConvergence, match="NaN"):
            find_root(lambda x: (math.nan if x == 1.0 else 0.5 - x, -1.0), 0.0, 1.0, 1.0)

    def test_nan_at_iterate(self):
        with pytest.raises(NoConvergence, match="NaN"):
            find_root(lambda x: (0.5 - x if x == 0.0 else math.nan, -1.0), 0.0, 1.0, 0.0)

    def test_sign_narrows_the_bracket(self):
        # Newton's steps on arctan overshoot from far out; every evaluation
        # must stay inside the bracket the earlier signs left.
        f = recorded(lambda x: (-math.atan(x - 0.3), -1.0 / (1.0 + (x - 0.3) ** 2)))
        root = find_root(f, -40.0, 50.0, 45.0)
        assert root == pytest.approx(0.3, abs=1e-15)
        lo, hi = -40.0, 50.0
        for x in f.calls:
            assert lo <= x <= hi
            if x > 0.3:
                hi = x
            else:
                lo = x
        assert len(f.calls) < 20

    def test_step_leaving_the_bracket_bisects(self):
        # The slope is a thousand times too flat, so the first Newton step
        # lands far above the bracket and the midpoint, the root, replaces it.
        f = recorded(lambda x: (0.5 - x, -1e-3))
        assert find_root(f, 0.0, 1.0, 0.0) == 0.5
        assert f.calls == [0.0, 0.5]

    @pytest.mark.parametrize("slope", [1.0, 0.0])
    def test_useless_slope_bisects(self, slope):
        # A slope of the wrong sign steps away from the root, out of the
        # bracket, and a zero one steps to infinity: each time the next
        # evaluation is the midpoint of what the signs have left.
        f = recorded(lambda x: (0.5 - x, slope))
        root = find_root(f, 0.0, 1.0, 0.75)
        # The stop leaves the root within a step tolerance of the last
        # evaluation, and that within one of the root.
        assert abs(root - 0.5) <= 2.0 * kernel._MIN_RTOL * 1.5
        lo, hi = 0.0, 1.0
        for x, following in zip(f.calls, f.calls[1:]):
            lo, hi = (x, hi) if x < 0.5 else (lo, x)
            assert following == 0.5 * (lo + hi)

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.floats(-3.0, 3.0),
        a=st.floats(0.1, 50.0),
        start=st.floats(0.0, 1.0),
    )
    def test_root_depends_on_its_inputs_alone(self, p, a, start):
        # A tanh step: Newton diverges from most starts, so the bracket
        # does the work.  The same inputs give the same double, and the
        # root is within the stop tolerance of the true one.
        f = falling(lambda x: math.tanh(a * (x - p)), lambda x: a * (1.0 - math.tanh(a * (x - p)) ** 2))
        lo, hi = -5.0, 5.0
        x0 = lo + start * (hi - lo)
        root = find_root(f, lo, hi, x0)
        assert root == find_root(f, lo, hi, x0)
        assert lo <= root <= hi
        assert abs(root - p) <= 1e-14 * (abs(p) + 1.0)

    def test_newton_two_cycle_bisects(self, monkeypatch):
        # From x0 with atan(x0) = 2 x0 / (1 + x0**2), Newton on arctan steps
        # to -x0 and back, and rounding drifts the cycle only by ulps; each
        # step lands inside the bracket and barely narrows it.  The third
        # step would be as long as the first, not half as long, so the
        # bracket is bisected onto the root instead.
        monkeypatch.setattr(kernel, "MAX_ITER", 20)
        f = recorded(lambda x: (-math.atan(x), -1.0 / (1.0 + x * x)))
        assert find_root(f, -2.0, 2.0, 1.3917452002707347) == 0.0
        assert len(f.calls) == 4

    def test_converged_step_is_clamped_into_the_bracket(self):
        # A slope of the wrong sign steps from the lower end 0 to -1e-17:
        # within the stop tolerance of the root 1e-17, but below the bracket.
        assert find_root(lambda x: (1e-17 - x, 1.0), 0.0, 1.0, 0.0) == 0.0


def test_solvers_import_neither_numpy_nor_scipy():
    src = os.path.dirname(os.path.dirname(stratselect.__file__))
    code = (
        "import sys, stratselect, stratselect.dynamics, stratselect.metrics; "
        "sys.exit(sorted({'numpy', 'scipy'} & set(sys.modules)) or None)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_cli_import_loads_neither_numpy_nor_scipy():
    # numpy and scipy load on the first Monte Carlo draw or log grid; mc
    # itself is loaded, because the benchmark's tracer looks it up in
    # sys.modules after importing only the CLI.
    src = os.path.dirname(os.path.dirname(stratselect.__file__))
    code = (
        "import sys, stratselect.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'})); "
        "print('stratselect.mc' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["[]", "True"]

