import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stratselect.model import (
    EffortDistribution,
    GameConfig,
    GroupParams,
    config_from_dict,
    config_hash,
    config_to_dict,
    correlation_coefficient,
    effective_groups,
    posterior_variance,
    validate,
)


def make_config(**overrides):
    base = dict(
        reward=10.0,
        alpha=0.1,
        eta_sq=1.0,
        groups=(
            GroupParams("H", 0.5, 1.0, noise_var=3.0),
            GroupParams("L", 0.5, 1.0, noise_var=0.0),
        ),
    )
    base.update(overrides)
    return GameConfig(**base)


class TestPosteriorVariance:
    def test_noiseless_estimate(self):
        g = GroupParams("A", 0.5, 1.0, noise_var=0.0)
        assert posterior_variance(g, 1.0, "bayesian") == pytest.approx(1.0)

    def test_bayesian_shrinks(self):
        g = GroupParams("A", 0.5, 1.0, noise_var=3.0)
        assert posterior_variance(g, 1.0, "bayesian") == pytest.approx(0.25)

    def test_oblivious_sums(self):
        g = GroupParams("A", 0.5, 1.0, noise_var=3.0)
        assert posterior_variance(g, 1.0, "oblivious") == pytest.approx(4.0)

    def test_override_wins(self):
        g = GroupParams("A", 0.5, 1.0, noise_var=3.0, sigma_tilde=0.6)
        assert posterior_variance(g, 1.0, "bayesian") == pytest.approx(0.36)
        assert posterior_variance(g, 1.0, "oblivious") == pytest.approx(0.36)

    def test_per_group_eta_override(self):
        g = GroupParams("A", 0.5, 1.0, noise_var=0.0, eta_sq=2.0)
        assert posterior_variance(g, 1.0, "bayesian") == pytest.approx(2.0)

    @given(st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.1, max_value=10.0))
    def test_bayesian_below_oblivious(self, noise, eta):
        g = GroupParams("A", 0.5, 1.0, noise_var=noise)
        bay = posterior_variance(g, eta, "bayesian")
        obl = posterior_variance(g, eta, "oblivious")
        assert 0.0 < bay <= eta * (1.0 + 1e-15) <= obl * (1.0 + 1e-15)

    def test_monotonicity_in_noise(self):
        # More estimate noise concentrates the posterior but widens the raw
        # estimate: the two modes move in opposite directions.
        noises = np.linspace(0.0, 5.0, 21)
        bay = [posterior_variance(GroupParams("A", 0.5, 1.0, noise_var=float(v)), 1.0, "bayesian") for v in noises]
        obl = [posterior_variance(GroupParams("A", 0.5, 1.0, noise_var=float(v)), 1.0, "oblivious") for v in noises]
        assert np.all(np.diff(bay) < 0)
        assert np.all(np.diff(obl) > 0)

    def test_equal_eta_noise_ordering(self):
        hi = GroupParams("H", 0.5, 1.0, noise_var=2.0)
        lo = GroupParams("L", 0.5, 1.0, noise_var=0.5)
        assert posterior_variance(hi, 1.0) < posterior_variance(lo, 1.0)


class TestCorrelation:
    def test_noiseless(self):
        g = GroupParams("A", 0.5, 1.0, noise_var=0.0)
        assert correlation_coefficient(g, 1.0) == pytest.approx(1.0)

    def test_noisy(self):
        g = GroupParams("A", 0.5, 1.0, noise_var=3.0)
        assert correlation_coefficient(g, 1.0) == pytest.approx(0.5)

    @given(
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.1, max_value=5.0),
    )
    def test_identity_with_posterior_variance(self, noise, eta):
        g = GroupParams("A", 0.5, 1.0, noise_var=noise)
        rho = correlation_coefficient(g, eta)
        assert 0.0 < rho <= 1.0
        assert rho * rho * eta == pytest.approx(
            posterior_variance(g, eta, "bayesian"), rel=1e-12
        )


class TestValidate:
    def test_ok(self):
        assert validate(make_config()) == []

    def test_bad_shares(self):
        bad = make_config(
            groups=(
                GroupParams("H", 0.6, 1.0),
                GroupParams("L", 0.6, 1.0),
            )
        )
        problems = validate(bad)
        assert any("shares sum to 1.2" in p for p in problems)

    def test_bad_alpha(self):
        problems = validate(make_config(alpha=1.0))
        assert any("alpha must lie in (0, 1)" in p for p in problems)

    def test_single_group_rejected(self):
        problems = validate(make_config(groups=(GroupParams("A", 1.0, 1.0),)))
        assert any("at least 2 groups" in p for p in problems)

    def test_duplicate_labels(self):
        bad = make_config(
            groups=(GroupParams("A", 0.5, 1.0), GroupParams("A", 0.5, 1.0))
        )
        assert any("unique" in p for p in validate(bad))

    @pytest.mark.parametrize(
        "field, value, fragment",
        [
            ("reward", -1.0, "reward"),
            ("eta_sq", 0.0, "eta_sq"),
            ("dm_mode", "other", "dm_mode"),
        ],
    )
    def test_field_names_in_messages(self, field, value, fragment):
        problems = validate(make_config(**{field: value}))
        assert any(fragment in p for p in problems)

    def test_bad_group_fields(self):
        bad = make_config(
            groups=(
                GroupParams("H", 0.5, -1.0, noise_var=-2.0),
                GroupParams("L", 0.5, 1.0, sigma_tilde=0.0),
            )
        )
        problems = validate(bad)
        assert any("cost" in p for p in problems)
        assert any("noise_var" in p for p in problems)
        assert any("sigma_tilde" in p for p in problems)


class TestEffortDistribution:
    def test_point(self):
        d = EffortDistribution.point(2.0)
        assert d.mean() == 2.0

    def test_mixture_mean(self):
        d = EffortDistribution(((0.0, 0.5), (2.0, 0.5)))
        assert d.mean() == 1.0

    def test_rejects_negative_effort(self):
        with pytest.raises(ValueError):
            EffortDistribution(((-0.1, 1.0),))

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            EffortDistribution(((0.0, 0.4), (1.0, 0.4)))
        with pytest.raises(ValueError):
            EffortDistribution(((0.0, 1.5),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EffortDistribution(())

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_two_point_weights(self, tau):
        d = EffortDistribution(((0.0, 1.0 - tau), (3.0, tau)))
        assert d.mean() == pytest.approx(3.0 * tau)


class TestEffectiveGroups:
    def test_spread_is_sqrt_of_variance(self):
        config = make_config()
        views = effective_groups(config)
        assert views[0].sigma == pytest.approx(0.5)
        assert views[1].sigma == pytest.approx(1.0)

    def test_oblivious_reverses_ordering(self):
        config = make_config(dm_mode="oblivious")
        views = effective_groups(config)
        assert views[0].sigma == pytest.approx(2.0)
        assert views[0].sigma > views[1].sigma


class TestSerialization:
    def test_roundtrip(self):
        config = make_config(
            groups=(
                GroupParams("H", 0.5, 1.5, noise_var=2.0, sigma_tilde=0.6),
                GroupParams("L", 0.5, 1.0, noise_var=0.0, eta_sq=2.0),
            )
        )
        again = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
        assert again == config

    def test_hash_stable_and_sensitive(self):
        config = make_config()
        assert config_hash(config) == config_hash(make_config())
        assert config_hash(config) != config_hash(
            dataclasses.replace(config, alpha=0.2)
        )
        assert len(config_hash(config)) == 16

    @pytest.mark.parametrize("field", [
        "reward", "alpha", "eta_sq", "share", "cost", "noise_var", "group eta_sq", "sigma_tilde",
    ])
    @pytest.mark.parametrize("value, problem", [
        ("10", "must be a number, got '10'"),
        (True, "must be a number, got True"),
        (10**400, "is an integer too large for a float"),
    ])
    def test_every_numeric_field_must_be_a_json_number(self, field, value, problem):
        # float() took the string and the boolean, and raised OverflowError
        # on the integer, in every field.
        data = config_to_dict(make_config())
        if field in ("reward", "alpha", "eta_sq"):
            data[field], name = value, field
        else:
            key = field.removeprefix("group ")
            data["groups"][0][key], name = value, f"groups['H'].{key}"
        with pytest.raises(ValueError, match=re.escape(f"{name} {problem}")):
            config_from_dict(data)

    def test_integer_fields_are_numbers(self):
        data = config_to_dict(make_config())
        data["reward"], data["groups"][0]["cost"] = 10, 2
        config = config_from_dict(data)
        assert (config.reward, config.groups[0].cost) == (10.0, 2.0)
        assert type(config.reward) is float and type(config.groups[0].cost) is float
