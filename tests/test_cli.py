import collections
import csv
import dataclasses
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stratselect.model as model
from stratselect import cli, metrics
from stratselect.best_response import ResponseCurve
from stratselect.dynamics import _step
from stratselect.dynamics import run as run_dynamics
from stratselect.equilibrium import (
    Game,
    SolverError,
    solve_demographic_parity,
    solve_unconstrained,
)
from stratselect.kernel import DomainError, normal_cdf
from stratselect.mc import MIN_SAMPLES
from stratselect.model import (
    EffortDistribution,
    config_from_dict,
    config_to_dict,
    effective_groups,
)

from conftest import random_games

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# The package re-exports the function under the module's name.
best_response_module = importlib.import_module("stratselect.best_response")


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def base_config_dict(**overrides):
    payload = {
        "reward": 10.0,
        "alpha": 0.1,
        "eta_sq": 1.0,
        "dm_mode": "bayesian",
        "groups": [
            {"label": "H", "share": 0.5, "cost": 1.0, "noise_var": 99.0, "sigma_tilde": 0.1},
            {"label": "L", "share": 0.5, "cost": 1.0, "noise_var": 0.0, "sigma_tilde": 1.0},
        ],
    }
    payload.update(overrides)
    return payload


class TestSolve:
    def test_mixing_group_on_benchmark(self, capsys):
        rc = cli.main(["solve", "--config", str(SCENARIOS / "noise_gap_s10.json")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["unconstrained"]["mixing_group"] == "H"
        assert payload["demographic_parity"] is not None
        assert payload["asymptotic_predictions"]["dominant_label"] == "H"
        assert payload["small_s_crossings"] is None  # supercritical reward

    def test_small_reward_scenario_reports_crossings(self, capsys):
        rc = cli.main(
            ["solve", "--config", str(SCENARIOS / "noise_gap_small_reward.json")]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["small_s_crossings"]["alpha_rate_cross"] == pytest.approx(
            0.285570, abs=1e-5
        )

    def test_closed_form_failure_is_a_computation_error(self, monkeypatch, capsys):
        def broken(branch, x):
            raise DomainError(f"lambert_w {branch} failed at {x!r}")

        monkeypatch.setattr(metrics, "lambert_w", broken)
        rc = cli.main(
            ["solve", "--config", str(SCENARIOS / "noise_gap_small_reward.json")]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("computation failed: lambert_w principal")

    def test_invalid_alpha_names_field(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", base_config_dict(alpha=1.5))
        rc = cli.main(["solve", "--config", path])
        assert rc == 1
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("top, group, message", [
        # Its square underflows to 0.0.
        ({}, {"sigma_tilde": 1e-200},
         "groups['H']: the variance 0.0 from sigma_tilde must be positive and finite"),
        # Its square overflows: a float power raises instead of giving inf.
        ({}, {"sigma_tilde": 1e200},
         "groups['H']: the variance inf from sigma_tilde must be positive and finite"),
        ({}, {"noise_var": math.inf},
         "groups['H'].noise_var must be nonnegative and finite, got inf"),
        ({}, {"cost": math.inf}, "groups['H'].cost must be positive and finite, got inf"),
        ({"eta_sq": math.inf}, {}, "eta_sq must be positive and finite, got inf"),
        # cost * sigma**2 underflows to 0.0.
        ({}, {"cost": 1e-200, "sigma_tilde": 1e-160},
         "groups['H']: reward 10.0 is above the supported 1e+20 times "
         "cost * sigma**2 = 0.0"),
        # cost * sigma**2 overflows to inf, so the ratio underflows to 0.0.
        ({}, {"cost": 1e200, "sigma_tilde": 1e100},
         "groups['H']: reward 10.0 is below the supported 1e-20 times "
         "cost * sigma**2 = inf"),
    ], ids=["sigma_tilde", "sigma_tilde_square_overflows", "noise_var", "cost", "eta_sq",
            "cost_times_variance", "cost_times_variance_overflows"])
    def test_non_finite_or_vanishing_field_is_named(self, tmp_path, capsys, top, group, message):
        # json writes and reads inf as Infinity.
        groups = [
            {"label": "H", "share": 0.5, "cost": 1.0, "noise_var": 1.0, **group},
            {"label": "L", "share": 0.5, "cost": 1.0},
        ]
        path = write_json(tmp_path / "bad.json", base_config_dict(groups=groups, **top))
        assert cli.main(["solve", "--config", path]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_missing_file(self, capsys):
        rc = cli.main(["solve", "--config", "/nonexistent/x.json"])
        assert rc == 1

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json", encoding="utf-8")
        assert cli.main(["solve", "--config", str(bad)]) == 1

    def test_symmetric_reports_agree(self, tmp_path, capsys):
        group = {"label": "A", "share": 0.5, "cost": 1.0, "noise_var": 0.5}
        payload = base_config_dict(
            reward=2.0,
            alpha=0.3,
            groups=[group, {**group, "label": "B"}],
        )
        path = write_json(tmp_path / "sym.json", payload)
        assert cli.main(["solve", "--config", path]) == 0
        out = json.loads(capsys.readouterr().out)
        un, dp = out["unconstrained"], out["demographic_parity"]
        for g_un, g_dp in zip(un["groups"], dp["groups"]):
            assert g_dp["threshold"] == pytest.approx(un["threshold"], abs=1e-8)
            assert g_dp["avg_effort"] == pytest.approx(g_un["avg_effort"], abs=1e-8)
        assert dp["quality"] == pytest.approx(un["quality"], abs=1e-8)

    def test_no_dp_flag(self, capsys):
        rc = cli.main(
            ["solve", "--config", str(SCENARIOS / "noise_gap_s10.json"), "--no-dp"]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["demographic_parity"] is None


def sweep_spec_dict(grid, **config_overrides):
    return {
        "axis": "alpha",
        "grid": grid,
        "solvers": ["unconstrained", "demographic_parity"],
        "base_config": base_config_dict(**config_overrides),
    }


class TestSweep:
    def test_two_point_grid(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", sweep_spec_dict([0.1, 0.2]))
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--config", spec, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1].split(",")[:2] == ["axis_value", "theta_un"]
        assert len(lines) == 4  # comment + header + 2 rows

    def test_byte_identical_reruns(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", sweep_spec_dict([0.1, 0.3, 0.5]))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["sweep", "--config", spec, "--out", str(a)]) == 0
        assert cli.main(["sweep", "--config", spec, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_grid_validation(self, tmp_path, capsys):
        spec, out = tmp_path / "spec.json", tmp_path / "o.csv"
        for grid, message in [
            ([0.1, 1.5], "alpha grid value 1.5 outside (0, 1)"),
            ([0.1], "sweep grid needs at least 2 points"),
            # An unknown scale must not fall back to a linear grid.
            ({"lo": 0.1, "hi": 0.4, "count": 3, "scale": "logarithmic"},
             "malformed sweep grid: unknown grid scale 'logarithmic'"),
            # A missing end is an input error, not a KeyError traceback.
            ({"lo": 0.1, "count": 3}, "sweep grid has no 'hi' entry"),
            # Rejected before any grid point is computed.
            ({"lo": 0.1, "hi": math.inf, "count": 3},
             "malformed sweep grid: grid ends must be finite, got 0.1 and inf"),
            # numpy's log10 of the upper end warned, and the grid held a nan.
            ({"lo": 1, "hi": -1, "count": 3, "scale": "log"},
             "malformed sweep grid: log grid requires positive endpoints, got 1.0 and -1.0"),
        ]:
            write_json(spec, sweep_spec_dict(grid))
            assert cli.main(["sweep", "--config", str(spec), "--out", str(out)]) == 1
            assert not out.exists()
            assert capsys.readouterr().err == f"error: {spec}: {message}\n"

    @pytest.mark.parametrize("axis, grid", [("reward", "59"), ("alpha", 5), ("alpha", None)])
    def test_grid_is_a_list_or_an_object(self, tmp_path, capsys, axis, grid):
        # A string grid was read one character at a time: "59" swept the
        # rewards 5.0 and 9.0.
        spec = write_json(
            tmp_path / "spec.json", {**sweep_spec_dict([0.1, 0.2]), "axis": axis, "grid": grid}
        )
        out = tmp_path / "o.csv"
        assert cli.main(["sweep", "--config", spec, "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: {spec}: sweep grid must be a list or a {{lo, hi, count}} object, "
            f"got {grid!r}\n"
        )

    @pytest.mark.parametrize("axis, grid, message", [
        # float() took both: ["5", true] swept the rewards 5.0 and 1.0.
        ("reward", ["5", True], "grid value must be a number, got '5'"),
        ("alpha", [0.1, False], "grid value must be a number, got False"),
        ("alpha", [0.1, None], "grid value must be a number, got None"),
        ("reward", [10.0, 10**400], "grid value is an integer too large for a float"),
        ("alpha", {"lo": "0.1", "hi": 0.4, "count": 3}, "lo must be a number, got '0.1'"),
        ("alpha", {"lo": 0.1, "hi": True, "count": 3}, "hi must be a number, got True"),
        ("alpha", {"lo": 0.1, "hi": 0.4, "count": True},
         "grid count must be an integer of at least 1, got True"),
        ("alpha", {"lo": 0.1, "hi": 0.4, "count": "3"},
         "grid count must be an integer of at least 1, got '3'"),
        ("alpha", {"lo": 0.1, "hi": 0.4, "count": 3.0},
         "grid count must be an integer of at least 1, got 3.0"),
        # The steps divided by it and raised OverflowError.
        ("alpha", {"lo": 0.1, "hi": 0.4, "count": 10**400},
         "grid count is an integer too large for a float"),
        ("reward", {"lo": 1.0, "hi": 10.0, "count": 10**400, "scale": "log"},
         "grid count is an integer too large for a float"),
    ])
    def test_grid_entries_are_json_numbers(self, tmp_path, capsys, axis, grid, message):
        spec = write_json(
            tmp_path / "spec.json", {**sweep_spec_dict([0.1, 0.2]), "axis": axis, "grid": grid}
        )
        out = tmp_path / "o.csv"
        assert cli.main(["sweep", "--config", spec, "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {spec}: malformed sweep grid: {message}\n"

    @pytest.mark.parametrize("grid", [[10, 20], {"lo": 10, "hi": 20, "count": 2}])
    def test_integer_grid_entries_are_numbers(self, tmp_path, grid):
        spec = write_json(
            tmp_path / "spec.json", {**sweep_spec_dict(grid), "axis": "reward"}
        )
        out = tmp_path / "o.csv"
        assert cli.main(["sweep", "--config", spec, "--out", str(out)]) == 0
        assert [row["axis_value"] for row in read_sweep(out)] == ["10.0", "20.0"]

    @pytest.mark.parametrize("solvers, message", [
        (5, "solvers must be a nonempty list, got 5"),
        (None, "solvers must be a nonempty list, got None"),
        # An empty list wrote a CSV whose cells were all blank.
        ([], "solvers must be a nonempty list, got []"),
        ("unconstrained", "solvers must be a nonempty list, got 'unconstrained'"),
        ({"unconstrained": 1}, "solvers must be a nonempty list, got {'unconstrained': 1}"),
        (["unconstrained", "bogus"], "unknown solver 'bogus' in solvers"),
    ])
    def test_solvers_validation(self, tmp_path, capsys, solvers, message):
        spec = write_json(
            tmp_path / "spec.json", {**sweep_spec_dict([0.1, 0.2]), "solvers": solvers}
        )
        out = tmp_path / "o.csv"
        assert cli.main(["sweep", "--config", spec, "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {spec}: {message}\n"

    def test_point_failure_leaves_empty_cells(self, tmp_path, monkeypatch, capsys):
        real = Game.unconstrained

        def flaky(game, alpha, *args, **kwargs):
            if abs(alpha - 0.2) < 1e-12:
                raise SolverError("synthetic failure")
            return real(game, alpha, *args, **kwargs)

        monkeypatch.setattr(Game, "unconstrained", flaky)
        spec = write_json(tmp_path / "spec.json", sweep_spec_dict([0.1, 0.2, 0.3]))
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--config", spec, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        failed_row = lines[3].split(",")
        assert failed_row[0] == "0.2"
        assert set(failed_row[1:]) == {""}
        assert "synthetic failure" in capsys.readouterr().err

    def test_memory_error_leaves_one_row_blank(self, tmp_path, monkeypatch, capsys):
        # A row that runs out of memory fails alone, like any computation
        # error, instead of aborting the sweep with exit 2.
        real = Game.unconstrained

        def starved(game, alpha, *args, **kwargs):
            if alpha == 0.2:
                raise MemoryError("synthetic allocation failure")
            return real(game, alpha, *args, **kwargs)

        monkeypatch.setattr(Game, "unconstrained", starved)
        spec = write_json(tmp_path / "spec.json", sweep_spec_dict([0.1, 0.2, 0.3]))
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--config", spec, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert [row[0] for row in rows] == ["0.1", "0.2", "0.3"]
        assert set(rows[1][1:]) == {""}
        assert rows[0][1] and rows[2][1]  # theta_un
        assert capsys.readouterr().err == "warning: alpha=0.2: synthetic allocation failure\n"

    def test_dict_grid_with_log_scale(self, tmp_path):
        spec_payload = sweep_spec_dict(
            {"lo": 0.1, "hi": 0.4, "count": 3, "scale": "log"}
        )
        spec = write_json(tmp_path / "spec.json", spec_payload)
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--config", spec, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[2:]
        values = [float(r.split(",")[0]) for r in rows]
        assert values[0] == pytest.approx(0.1)
        assert values[-1] == pytest.approx(0.4)
        assert values[1] == pytest.approx(0.2, abs=1e-12)


MAX_FLOAT = 1.7976931348623157e308


@given(
    lo=st.floats(allow_nan=False, allow_infinity=False),
    hi=st.floats(allow_nan=False, allow_infinity=False),
    count=st.integers(1, 3000),
    equal=st.booleans(),
)
@example(lo=-MAX_FLOAT, hi=MAX_FLOAT, count=3, equal=False)  # hi - lo overflows
@example(lo=5e-324, hi=1e-323, count=5, equal=False)  # the step underflows to 0
@example(lo=-0.0, hi=0.0, count=1, equal=False)
@example(lo=1.0, hi=-1.0, count=3000, equal=False)
def test_linear_grid_is_linspace_bit_for_bit(lo, hi, count, equal):
    hi = lo if equal else hi
    if not math.isfinite(hi - lo):
        # np.linspace would give nan or inf points; the grid names its ends.
        with pytest.raises(ValueError) as info:
            cli._grid(lo, hi, count)
        assert str(info.value) == (
            f"grid ends {lo!r} and {hi!r} are too far apart: hi - lo overflows"
        )
        return
    with np.errstate(all="ignore"):
        expected = [float(v).hex() for v in np.linspace(lo, hi, count)]
    assert [v.hex() for v in cli._grid(lo, hi, count)] == expected


@given(
    lo=st.floats(1e-300, 1e300),
    hi=st.floats(1e-300, 1e300),
    count=st.integers(1, 3000),
)
def test_log_grid_is_geomspace(lo, hi, count):
    expected = [float(v).hex() for v in np.geomspace(lo, hi, count)]
    assert [v.hex() for v in cli._grid(lo, hi, count, "log")] == expected


@pytest.mark.parametrize("scale", ["linear", "log"])
@pytest.mark.parametrize("lo, hi", [
    (math.nan, 1.0), (1.0, math.inf), (-math.inf, 1.0), (math.inf, math.nan),
])
def test_non_finite_grid_ends_are_rejected(lo, hi, scale):
    with pytest.raises(ValueError) as info:
        cli._grid(lo, hi, 3, scale)
    assert str(info.value) == f"grid ends must be finite, got {lo!r} and {hi!r}"


def tiny_spread_config_dict(reward=1e12):
    """One group at spread 1e-4: at S = 1e12 its reward is 1e20 times
    cost * sigma**2, the top of the supported range."""
    return base_config_dict(
        reward=reward,
        groups=[
            {"label": "H", "share": 0.5, "cost": 1.0, "noise_var": 0.0, "sigma_tilde": 1e-4},
            {"label": "L", "share": 0.5, "cost": 1.0, "noise_var": 0.0, "sigma_tilde": 1.0},
        ],
    )


# What the CLI prints for the tiny-spread game at S = 1e13.
OUT_OF_RANGE = (
    "groups['H']: reward 10000000000000.0 is 1e+21 times cost * sigma**2, "
    "above the supported 1e+20"
)


class TestSupportedRange:
    def test_solve_at_the_top_of_the_range(self, tmp_path, capsys):
        # The absolute-unit solver handed its root finder an empty bracket here.
        path = write_json(tmp_path / "tiny.json", tiny_spread_config_dict())
        assert cli.main(["solve", "--config", path]) == 0
        report = json.loads(capsys.readouterr().out)["unconstrained"]
        budget = sum(0.5 * g["selection_rate"] for g in report["groups"])
        assert budget == pytest.approx(0.1, abs=1e-8)

    def test_solve_rejects_the_group(self, tmp_path, capsys):
        path = write_json(tmp_path / "tiny.json", tiny_spread_config_dict(reward=1e13))
        assert cli.main(["solve", "--config", path]) == 1
        assert capsys.readouterr().err == f"error: {path}: {OUT_OF_RANGE}\n"

    def test_sweep_rejects_the_grid_point(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {
            "axis": "reward",
            "grid": [10.0, 1e13],
            "base_config": tiny_spread_config_dict(reward=10.0),
        })
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--config", spec, "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == f"error: {spec}: reward grid value 10000000000000.0: {OUT_OF_RANGE}\n"

    def test_dropout_rejects_the_grid_point(self, tmp_path, capsys):
        path = write_json(tmp_path / "tiny.json", tiny_spread_config_dict(reward=10.0))
        out = tmp_path / "out.csv"
        argv = ["dropout", "--config", path, "--grid", "1e12:1e13:2:log", "--out", str(out)]
        assert cli.main(argv) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == f"error: {path}: reward grid value 10000000000000.0: {OUT_OF_RANGE}\n"


    def test_overflowing_ratio_names_the_product(self, tmp_path, capsys):
        # 5e+307 / (1.0 * 0.1**2) overflows, so the message gives the
        # product and the supported ratio, not an infinite ratio.
        game = str(SCENARIOS / "noise_gap_s10.json")
        out = tmp_path / "out.csv"
        argv = ["dropout", "--config", game, "--grid=1:1e308:3", "--out", str(out)]
        assert cli.main(argv) == 1
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: {game}: reward grid value 5e+307: "
            "groups['H']: reward 5e+307 is above the supported 1e+20 times "
            "cost * sigma**2 = 0.010000000000000002; "
            "groups['L']: reward 5e+307 is 5e+307 times cost * sigma**2, "
            "above the supported 1e+20\n"
        )

    def test_solve_rejects_a_reward_below_the_range(self, tmp_path, capsys):
        # The default verify game at S = 1e-40.  The smooth crossing's slope
        # loses its digits at such a ratio, and the solve failed its budget
        # check with exit 2.
        path = write_json(tmp_path / "tiny_reward.json",
                          {**cli._DEFAULT_VERIFY_CONFIG, "reward": 1e-40})
        assert cli.main(["solve", "--config", path]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: "
            "groups['H']: reward 1e-40 is 4e-40 times cost * sigma**2, "
            "below the supported 1e-20; "
            "groups['L']: reward 1e-40 is 1.071e-40 times cost * sigma**2, "
            "below the supported 1e-20\n"
        )


def group_dict(label, share, sigma, cost=1.0):
    return {
        "label": label, "share": share, "cost": cost,
        "noise_var": 0.0, "sigma_tilde": sigma,
    }


# Supercritical for every group at S = 100: critical rewards 1.03, 4.13 and
# 16.5.  A shares its spread with B and its cost with C, so a memo key that
# dropped either would hand one group another's dropout.
THREE_GROUPS = [
    group_dict("A", 0.3, 0.5), group_dict("B", 0.3, 0.5, cost=4.0), group_dict("C", 0.4, 2.0),
]

MEMO_GAMES = {
    "three_groups": base_config_dict(reward=100.0, groups=THREE_GROUPS),
    # Same games as test_equilibrium.noise_split_config: at S = 10 the
    # oblivious H is subcritical, so its memo entry is None.
    "noise_split_bayesian": base_config_dict(groups=[
        {"label": "H", "share": 0.5, "cost": 1.0, "noise_var": 3.0},
        {"label": "L", "share": 0.5, "cost": 1.0, "noise_var": 0.0},
    ]),
    "noise_split_oblivious_mixed": base_config_dict(dm_mode="oblivious", groups=[
        {"label": "H", "share": 0.5, "cost": 1.0, "noise_var": 3.0},
        {"label": "L", "share": 0.5, "cost": 1.0, "noise_var": 0.0},
    ]),
    # A and B share (cost, sigma) and so one memo entry; at small alpha
    # their common dropout pins the threshold.
    "twin_groups": base_config_dict(reward=100.0, groups=[
        group_dict("A", 0.2, 0.5), group_dict("B", 0.3, 0.5), group_dict("C", 0.5, 1.0, cost=1.5),
    ]),
    # Four curves, each with three foreign dropouts for the walk to read; at
    # S = 1000 every alpha of the grids below pins on a dropout.
    "four_groups": base_config_dict(reward=1000.0, groups=[
        group_dict("A", 0.2, 0.5), group_dict("B", 0.3, 0.7, cost=2.0),
        group_dict("C", 0.25, 1.0, cost=1.5), group_dict("D", 0.25, 0.3, cost=3.0),
    ]),
}

MEMO_GRID = [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9]

# (game, axis, grid); the reward sweep crosses the three critical rewards.
MEMO_SWEEPS = {
    **{game: (game, "alpha", MEMO_GRID) for game in MEMO_GAMES},
    "three_groups_reward": ("three_groups", "reward", [2.0, 10.0, 20.0, 100.0]),
}


@pytest.fixture
def dropout_calls(monkeypatch):
    """Count the dropout searches the response curves run."""
    calls = []
    real = ResponseCurve._search_dropout

    def counted(curve):
        calls.append((curve.group.label, curve.reward))
        real(curve)

    monkeypatch.setattr(ResponseCurve, "_search_dropout", counted)
    return calls


def read_sweep(path):
    lines = path.read_text().splitlines()[1:]
    return list(csv.DictReader(lines))


class TestDropoutMemo:
    def test_sweep_searches_each_group_once(self, tmp_path, dropout_calls):
        spec = write_json(
            tmp_path / "spec.json",
            {**sweep_spec_dict(MEMO_GRID), "base_config": MEMO_GAMES["three_groups"]},
        )
        for name in ("a.csv", "b.csv"):
            dropout_calls.clear()
            assert cli.main(["sweep", "--config", spec, "--out", str(tmp_path / name)]) == 0
            # No memo outlives a command: the rerun searches again.
            assert sorted(dropout_calls) == [("A", 100.0), ("B", 100.0), ("C", 100.0)]

    def test_dropout_searches_twin_groups_once(self, tmp_path, dropout_calls):
        # A and B share (cost, spread) and so one curve: one search per reward.
        path = write_json(tmp_path / "game.json", MEMO_GAMES["twin_groups"])
        out = tmp_path / "dropout.csv"
        argv = ["dropout", "--config", path, "--grid", "100:1000:2:log", "--out", str(out)]
        assert cli.main(argv) == 0
        assert sorted(dropout_calls) == [("A", 100.0), ("A", 1000.0), ("C", 100.0), ("C", 1000.0)]
        for row in read_sweep(out):
            for column in ("theta_d", "br_min", "br_max", "scaled"):
                assert row[f"{column}_A"] == row[f"{column}_B"] != ""

    def test_solve_searches_each_group_once(self, tmp_path, capsys, dropout_calls):
        path = write_json(tmp_path / "game.json", MEMO_GAMES["three_groups"])
        assert cli.main(["solve", "--config", path]) == 0
        assert sorted(dropout_calls) == [("A", 100.0), ("B", 100.0), ("C", 100.0)]

    @pytest.mark.parametrize("grid, rows", [
        (MEMO_GRID, 7), ({"lo": 0.03, "hi": 0.97, "count": 28}, 28),
    ])
    def test_alpha_sweep_solves_each_dropout_once(self, tmp_path, monkeypatch, grid, rows):
        # A dropout's rates do not depend on alpha, so the command's memo
        # keeps what the walk read: each curve is solved once at each of the
        # other three dropouts (its own is its tied pair), n * (n - 1) best
        # responses in all, however many rows the sweep has.
        taus = []
        real = ResponseCurve._best_response

        def counted(curve, tau):
            taus.append(tau)
            return real(curve, tau)

        monkeypatch.setattr(ResponseCurve, "_best_response", counted)
        spec = write_json(tmp_path / "spec.json", {
            **sweep_spec_dict(grid), "solvers": ["unconstrained"],
            "base_config": MEMO_GAMES["four_groups"],
        })
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--config", spec, "--out", str(out)]) == 0
        assert len(read_sweep(out)) == rows
        assert len(taus) == 4 * 3

    @pytest.mark.parametrize("grid, rows", [
        (MEMO_GRID, 7), ({"lo": 0.03, "hi": 0.97, "count": 28}, 28),
    ])
    def test_both_solver_alpha_sweep_reuses_checked_values(
        self, tmp_path, monkeypatch, grid, rows
    ):
        # The parity solve reads each group's rates at its dropout through
        # the command's memo, where the walk keeps them, so the curves answer
        # the walk's 4 * 4 best responses however many rows the sweep has;
        # and the outcomes wrap strategies built from checked values, with no
        # EffortDistribution validation.
        calls = collections.Counter()
        real_br = ResponseCurve.best_response

        def counted_br(curve, theta):
            calls["best_response"] += 1
            return real_br(curve, theta)

        def counted_check(dist):
            calls["__post_init__"] += 1

        monkeypatch.setattr(ResponseCurve, "best_response", counted_br)
        monkeypatch.setattr(EffortDistribution, "__post_init__", counted_check)
        spec = write_json(tmp_path / "spec.json", {
            **sweep_spec_dict(grid), "base_config": MEMO_GAMES["four_groups"],
        })
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--config", spec, "--out", str(out)]) == 0
        assert len(read_sweep(out)) == rows
        assert calls == {"best_response": 4 * 4}

    @pytest.mark.parametrize("sweep", sorted(MEMO_SWEEPS))
    def test_memoised_sweep_matches_fresh_solves(self, tmp_path, sweep):
        game, axis, grid = MEMO_SWEEPS[sweep]
        base = MEMO_GAMES[game]
        spec = write_json(
            tmp_path / "spec.json",
            {**sweep_spec_dict(grid), "axis": axis, "base_config": base},
        )
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--config", spec, "--out", str(out)]) == 0
        rows = read_sweep(out)
        assert len(rows) == len(grid)
        for value, row in zip(grid, rows):
            config = config_from_dict({**base, axis: value})
            un = solve_unconstrained(config)
            dp = solve_demographic_parity(config)
            expected = {
                "axis_value": value,
                "theta_un": un.threshold,
                "quality_un": un.quality,
                "quality_dp": dp.quality,
                "quality_ratio": un.quality / dp.quality,
            }
            for outcome in un.outcomes:
                expected[f"effort_{outcome.label}_un"] = outcome.avg_effort
                expected[f"rate_{outcome.label}_un"] = outcome.selection_rate
            for outcome in dp.outcomes:
                expected[f"theta_dp_{outcome.label}"] = outcome.threshold
            for column, expected_value in expected.items():
                assert row[column] == repr(expected_value), (value, column)


def test_twin_sweep_reruns_alike_in_one_process(tmp_path):
    # Python prints a warning once per call site and process, so a solver
    # that warned would write stderr on the first run only.  The default
    # warning filters hold in a fresh interpreter.
    spec = write_json(
        tmp_path / "spec.json",
        {**sweep_spec_dict(MEMO_GRID), "base_config": MEMO_GAMES["twin_groups"]},
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code = (
        "import sys; from stratselect import cli; "
        "sys.exit(max(cli.main(['sweep', '--config', sys.argv[1], '--out', out]) "
        "for out in sys.argv[2:]))"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run(
        [sys.executable, "-c", code, spec, str(a), str(b)],
        env=env, capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert a.read_bytes() == b.read_bytes()


def scenario_commands(out):
    """Every bundled scenario through the subcommands ``run_scenarios.py``
    uses, with short dynamics: sweeps for sweep specs, and solve, dropout
    and both dynamics for games."""
    commands = []
    for path in sorted(SCENARIOS.glob("*.json")):
        config, name = str(path), path.stem
        if "base_config" in json.loads(path.read_text(encoding="utf-8")):
            commands.append(["sweep", "--config", config, "--out", str(out / f"{name}.csv")])
            continue
        commands.append(["solve", "--config", config])
        commands.append(["dropout", "--config", config, "--grid", "100:100000:4:log",
                         "--out", str(out / f"{name}.dropout.csv")])
        for mode in ("br", "fp"):
            commands.append(["dynamics", "--config", config, "--mode", mode, "--steps", "30",
                             "--out", str(out / f"{name}.{mode}.csv")])
    return commands


def load_run_scenarios():
    path = SCENARIOS.parent / "scripts" / "run_scenarios.py"
    spec = importlib.util.spec_from_file_location("run_scenarios", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# sha256 of each file scripts/run_scenarios.py writes; verify.txt rests on
# the Monte Carlo draws and TestVerify.test_table_is_pinned pins its table.
BUNDLED_OUTPUTS = {
    "cost_gap_s10.solve.json": "66a9ec64ede832fa4edacbfce642b788bf90ac9c18f076de1a5926dfff9b3a6f",
    "noise_gap_dropout.csv": "e3ccc285e35f2f8f72d675f3b0b5d8a7df01ef04fb2b8969a87abec8356fdf88",
    "noise_gap_dynamics_br.csv": "b71ac50b469b879f78caa9e79900b0c89640a6eac3f9ce3959a41483fb59a157",
    "noise_gap_dynamics_fp.csv": "6d477e2910151986bc6f290b31b2fb38dcb22d7bc0d949ce00da65338f2b38ab",
    "noise_gap_s10.solve.json": "201d89052addafef14c93264cc8847cf6cc467a9cac04672d9e8d177abac37cd",
    "noise_gap_small_reward.solve.json": "8e8f1f199534563c5027e499f617676b47a187ef87e010d273ac11a6bfe8bf32",
    "sweep_cost_gap_s1000.csv": "479ea7147e6ba5587a46d33218253e8b8f62b960b020bde90260a918aec0d414",
    "sweep_equal_cost_s1000.csv": "5e54a8de2348b52f68a7c405ef8eeb1881065d6a195d118413f0b32195b15984",
    "sweep_small_reward.csv": "de95f131709c70c411e5f863cbea307ed90644cddd52f813d0ebe84141e76cca",
}


def test_bundled_outputs_are_pinned(tmp_path):
    run_scenarios = load_run_scenarios()
    for argv, capture_to in run_scenarios.commands(tmp_path):
        if argv[0] != "verify":
            run_scenarios.run(argv, capture_to)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert digests == BUNDLED_OUTPUTS


def test_every_scenario_reruns_alike_in_one_process(tmp_path, capsys):
    # Pass A, pass B in the reverse order, then pass A again: nothing a
    # command leaves behind in the process may change what a later one writes.
    commands = scenario_commands(tmp_path)
    passes = []
    for order in (commands, commands[::-1], commands):
        outputs = {}
        for argv in order:
            assert cli.main(argv) == 0, argv
            captured = capsys.readouterr()
            written = Path(argv[-1]).read_bytes() if "--out" in argv else None
            outputs[tuple(argv)] = (captured.out, captured.err, written)
        passes.append(outputs)
    assert passes[0] == passes[1] == passes[2]


def test_parser_is_built_once_and_reused(tmp_path, monkeypatch, capsys):
    # One process: usage errors, help, then every subcommand, through the
    # parser main keeps; each call must print and write what it does on a
    # parser built afresh for it.
    game = str(SCENARIOS / "noise_gap_s10.json")
    out = str(tmp_path / "out.csv")
    commands = [
        [],
        ["solve"],
        ["dynamics", "--config", game, "--mode", "xx", "--out", out],
        ["--help"],
        ["dynamics", "--help"],
        ["solve", "--config", game],
        ["sweep", "--config", str(SCENARIOS / "sweep_small_reward.json"), "--out", out],
        ["dropout", "--config", game, "--grid", "100:1000:3", "--out", out],
        ["dynamics", "--config", game, "--mode", "fp", "--steps", "30", "--out", out],
        ["verify", "--config", game, "--samples", "1000"],
    ]

    def call(argv):
        if os.path.exists(out):
            os.unlink(out)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = Path(out).read_bytes() if os.path.exists(out) else None
        return code, captured.out, captured.err, written

    builds = []
    real = cli.build_parser

    def counted():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    reused = [call(argv) for argv in commands]
    assert len(builds) == 1
    fresh = []
    for argv in commands:
        cli._parser.cache_clear()
        fresh.append(call(argv))
    assert len(builds) == 1 + len(commands)
    assert reused == fresh
    codes = [code for code, *_ in reused]
    assert codes == [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
    assert all(err.startswith("usage: stratselect") for _, _, err, _ in reused[:3])
    assert reused[3][1].startswith("usage: stratselect")


@pytest.mark.parametrize("argv", [
    [],
    ["solve"],
    ["dynamics", "--config", "{game}", "--steps", "1.5", "--out", "{out}"],
    ["dynamics", "--config", "{game}", "--mode", "xx", "--out", "{out}"],
])
def test_a_bad_argument_is_an_input_error(tmp_path, capsys, argv):
    # argparse's own exit code, 2, is the code of a computation error.
    out = tmp_path / "out.csv"
    argv = [arg.format(game=SCENARIOS / "noise_gap_s10.json", out=out) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: stratselect")
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith("stratselect")
    assert captured.err.endswith(errors[0] + "\n")
    assert not out.exists()


# Runs each argv of sys.argv[1] in turn through cli.main and prints, after
# each, its exit code and which of numpy and scipy are loaded.
NUMPY_PROBE = """\
import contextlib, io, json, sys
from stratselect import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    print(json.dumps([rc, sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})]))
"""


def loaded_after_each(commands):
    env = {**os.environ, "PYTHONPATH": str(SCENARIOS.parent / "src")}
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, json.dumps(commands)],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0 and "Traceback" not in result.stderr, result.stderr
    return [json.loads(line) for line in result.stdout.splitlines()]


def test_numpy_loads_only_for_log_grids_and_verify(tmp_path):
    game = str(SCENARIOS / "noise_gap_s10.json")
    solvers_only = [
        ["solve", "--config", game],
        ["sweep", "--config", str(SCENARIOS / "sweep_equal_cost_s1000.json"),
         "--out", str(tmp_path / "sweep.csv")],
        ["dropout", "--config", game, "--grid", "100:100000:4",
         "--out", str(tmp_path / "linear.csv")],
        ["dynamics", "--config", game, "--steps", "30", "--out", str(tmp_path / "br.csv")],
        ["dropout", "--config", game, "--grid", "100:100000:4:log",
         "--out", str(tmp_path / "log.csv")],
    ]
    assert loaded_after_each(solvers_only) == [[0, []]] * 4 + [[0, ["numpy"]]]
    # verify calls every mc function that imports numpy or scipy itself.
    verify = [["verify", "--config", game, "--samples", "1000"]]
    assert loaded_after_each(verify) == [[0, ["numpy", "scipy"]]]


@pytest.mark.parametrize("command", ["solve", "dynamics"])
def test_failed_dropout_search_is_a_computation_error(
    tmp_path, failing_tie_search, capsys, command
):
    # A curve searches its dropout when it is made, so the failure reaches
    # the CLI from the first curve inside a window.
    extra = {"solve": [], "dynamics": ["--steps", "5", "--out", str(tmp_path / "out.csv")]}
    argv = [command, "--config", str(SCENARIOS / "noise_gap_s10.json"), *extra[command]]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"computation failed: no tie for group '\w+': no root in \[.*\] after 200 steps\n", err
    )


class TestDropout:
    def test_trend_and_columns(self, tmp_path):
        out = tmp_path / "drop.csv"
        rc = cli.main([
            "dropout",
            "--config", str(SCENARIOS / "noise_gap_s10.json"),
            "--grid", "100:10000:3:log",
            "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        header = lines[1].split(",")
        assert header[0] == "S"
        assert "theta_d_H" in header and "scaled_L" in header
        scaled_h = [float(r.split(",")[header.index("scaled_H")]) for r in lines[2:]]
        assert all(b > a for a, b in zip(scaled_h, scaled_h[1:]))
        assert all(abs(v - 1.0) < abs(scaled_h[0] - 1.0) for v in scaled_h[1:])
        # equal costs, lower spread drops out later
        th = [float(r.split(",")[header.index("theta_d_H")]) for r in lines[2:]]
        tl = [float(r.split(",")[header.index("theta_d_L")]) for r in lines[2:]]
        assert all(h > l for h, l in zip(th, tl))

    @pytest.mark.parametrize("grid", ["1:inf:3:log", "nan:10:3"])
    def test_non_finite_grid_end_is_an_input_error(self, tmp_path, capsys, grid):
        out = tmp_path / "drop.csv"
        argv = ["dropout", "--config", str(SCENARIOS / "noise_gap_s10.json"),
                "--grid", grid, "--out", str(out)]
        assert cli.main(argv) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad grid {grid!r}: grid ends must be finite")

    @pytest.mark.parametrize("grid", ["1:-1:3:log", "1:0:3:log", "0:1:3:log"])
    def test_non_positive_log_grid_end_is_an_input_error(self, tmp_path, capsys, grid):
        # An upper end of -1 made numpy warn and the grid report a point nan.
        out = tmp_path / "drop.csv"
        argv = ["dropout", "--config", str(SCENARIOS / "noise_gap_s10.json"),
                "--grid", grid, "--out", str(out)]
        assert cli.main(argv) == 1
        assert not out.exists()
        lo, hi = (float(end) for end in grid.split(":")[:2])
        assert capsys.readouterr().err == (
            f"error: bad grid {grid!r}: log grid requires positive endpoints, "
            f"got {lo!r} and {hi!r}\n"
        )

    def test_overflowing_grid_width_is_an_input_error(self, tmp_path, capsys):
        # The points of this grid were -1e308, nan and 1e308.
        out = tmp_path / "drop.csv"
        argv = ["dropout", "--config", str(SCENARIOS / "noise_gap_s10.json"),
                "--grid=-1e308:1e308:3", "--out", str(out)]
        assert cli.main(argv) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == ("error: bad grid '-1e308:1e308:3': grid ends -1e+308 and 1e+308 "
                       "are too far apart: hi - lo overflows\n")
        assert "nan" not in err

    def test_grid_count_too_large_for_a_float_is_an_input_error(self, tmp_path, capsys):
        # The step divided by it and raised OverflowError.
        out = tmp_path / "drop.csv"
        grid = f"100:1000:{10**400}"
        argv = ["dropout", "--config", str(SCENARIOS / "noise_gap_s10.json"),
                "--grid", grid, "--out", str(out)]
        assert cli.main(argv) == 1
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: bad grid {grid!r}: grid count is an integer too large for a float\n"
        )

    def test_subcritical_rows_are_blank(self, tmp_path, capsys):
        out = tmp_path / "drop.csv"
        rc = cli.main([
            "dropout",
            "--config", str(SCENARIOS / "noise_gap_s10.json"),
            "--grid", "1:1:1",
            "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        row = lines[2].split(",")
        assert row[0] == "1.0"
        # S=1 is subcritical for the wide-spread group only.
        assert "subcritical" in capsys.readouterr().err
        header = lines[1].split(",")
        assert row[header.index("theta_d_L")] == ""
        assert row[header.index("theta_d_H")] != ""


class TestDynamics:
    def test_br_trace_shape(self, tmp_path):
        out = tmp_path / "dyn.csv"
        rc = cli.main([
            "dynamics",
            "--config", str(SCENARIOS / "noise_gap_s10.json"),
            "--mode", "br", "--steps", "60",
            "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1].startswith("# convergence=cycle")
        header = lines[2].split(",")
        assert header[:3] == ["t", "theta", "theta_belief"]
        first = lines[3].split(",")
        assert first[0] == "0"
        assert first[2] == ""  # no belief column content in br mode

    def test_fp_last_theta_near_equilibrium(self, tmp_path, capsys):
        out = tmp_path / "dyn.csv"
        rc = cli.main([
            "dynamics",
            "--config", str(SCENARIOS / "noise_gap_s10.json"),
            "--mode", "fp", "--steps", "3000",
            "--out", str(out),
        ])
        assert rc == 0
        assert cli.main(["solve", "--config", str(SCENARIOS / "noise_gap_s10.json"), "--no-dp"]) == 0
        theta_un = json.loads(capsys.readouterr().out)["unconstrained"]["threshold"]
        last = out.read_text().splitlines()[-1].split(",")
        assert float(last[2]) == pytest.approx(theta_un, abs=1e-3)

    @pytest.mark.parametrize("mode", ["br", "fp"])
    def test_one_window_per_group(self, tmp_path, monkeypatch, mode):
        # A curve builds its window from eps = cost * sigma**2 / reward alone.
        calls = []
        real = best_response_module._turning_points
        labels = {0.1 * 0.1 / 10.0: "H", 1.0 / 10.0: "L"}

        def counted(eps):
            calls.append(labels[eps])
            return real(eps)

        monkeypatch.setattr(best_response_module, "_turning_points", counted)
        assert cli.main([
            "dynamics",
            "--config", str(SCENARIOS / "noise_gap_s10.json"),
            "--mode", mode, "--steps", "200",
            "--out", str(tmp_path / "dyn.csv"),
        ]) == 0
        assert sorted(calls) == ["H", "L"]

    def test_zero_steps_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "dyn.csv"
        assert cli.main([
            "dynamics",
            "--config", str(SCENARIOS / "noise_gap_s10.json"),
            "--steps", "0",
            "--out", str(out),
        ]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == "error: --steps must be at least 1, got 0\n"

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert cli.main([
                "dynamics",
                "--config", str(SCENARIOS / "noise_gap_s10.json"),
                "--mode", "br", "--steps", "40",
                "--out", str(path),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_tol_must_be_finite_and_nonnegative(self, tmp_path, capsys, tol):
        # --tol inf would report a cycling run as converged.
        out = tmp_path / "dyn.csv"
        assert cli.main([
            "dynamics",
            "--config", str(SCENARIOS / "noise_gap_s10.json"),
            "--tol", tol,
            "--out", str(out),
        ]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == f"error: --tol must be finite and nonnegative, got {float(tol)}\n"


def reference_fmt(x):
    return "" if x is None else repr(float(x))


def reference_dynamics_rows(trace, views):
    """The ``dynamics`` data rows as the writer built them before it wrote
    floats with ``repr``: every cell through ``reference_fmt``, and the mean
    and the rate as generator sums."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    for state in trace.states:
        theta = state.theta
        row = [str(state.t), reference_fmt(theta), reference_fmt(state.belief)]
        for view, strategy in zip(views, state.strategies):
            mean = sum(m * w for m, w in strategy.support)
            rate = sum(w * normal_cdf((m - theta) / view.sigma) for m, w in strategy.support)
            row += [reference_fmt(mean), reference_fmt(rate)]
        writer.writerow(row)
    return out.getvalue()


def check_dynamics_rows(config, mode, steps, run=run_dynamics):
    """``dynamics`` on ``config``, with ``run`` as its trace source, writes
    the reference rows byte for byte."""
    traces = []

    def recorded(*args, **kwargs):
        traces.append(run(*args, **kwargs))
        return traces[-1]

    with tempfile.TemporaryDirectory() as tmp:
        game = write_json(Path(tmp) / "game.json", config_to_dict(config))
        out = Path(tmp) / "dyn.csv"
        with mock.patch.object(cli, "run_dynamics", recorded):
            rc = cli.main(["dynamics", "--config", game, "--mode", mode,
                           "--steps", str(steps), "--out", str(out)])
        assert rc == 0
        text = out.read_bytes().decode("utf-8")
    # The comment lines end in "\n"; the header, first of the csv lines, in "\r\n".
    rows = text.split("\r\n", 1)[1]
    assert rows == reference_dynamics_rows(traces[0], effective_groups(config))


@settings(max_examples=40, deadline=None)
@given(config=random_games(min_groups=2), mode=st.sampled_from(["br", "fp"]))
def test_dynamics_rows_match_the_reference_writer(config, mode):
    check_dynamics_rows(config, mode, 40)


@pytest.mark.parametrize("mode", ["br", "fp"])
def test_dynamics_rows_with_two_point_states_match_the_reference_writer(mode):
    """A run from a two- and a three-point state with uneven weights, in
    which the order of the sums shows, followed by a step at each curve's
    dropout, whose tie is a 50/50 pair."""
    config = config_from_dict(json.loads((SCENARIOS / "noise_gap_s10.json").read_text()))

    def two_point_run(game, mode, max_steps, tol):
        init = (EffortDistribution(((0.3, 0.25), (1.7, 0.75))),
                EffortDistribution(((0.7, 0.2), (0.9, 0.3), (2.5, 0.5))))
        trace = run_dynamics(game, mode, max_steps, init=init, tol=tol)
        views, curves, alpha = game.views, game.curves(), game.config.alpha
        ties = tuple(
            _step(curve.info.theta_d, len(trace.states) + i, views, curves, alpha,
                  n=len(trace.states) if mode == "fp" else 0)
            for i, curve in enumerate(curves)
        )
        assert any(len(s.support) == 2 for state in ties for s in state.strategies)
        return dataclasses.replace(trace, states=trace.states + ties)

    check_dynamics_rows(config, mode, 30, run=two_point_run)


@pytest.mark.parametrize("command", ["sweep", "dropout", "dynamics"])
def test_unwritable_out_is_an_input_error(tmp_path, monkeypatch, capsys, command):
    # The path is checked before any work: none of it may run.
    def no_work(*args, **kwargs):
        raise RuntimeError("work started before --out was opened")

    for name in ("unconstrained", "parity", "curves"):
        monkeypatch.setattr(Game, name, no_work)
    monkeypatch.setattr(cli, "run_dynamics", no_work)
    game = str(SCENARIOS / "noise_gap_s10.json")
    argv = {
        "sweep": ["--config", write_json(tmp_path / "spec.json", sweep_spec_dict([0.1, 0.2]))],
        "dropout": ["--config", game, "--grid", "100:1000:2:log"],
        "dynamics": ["--config", game, "--steps", "5"],
    }[command]
    out = tmp_path / "missing" / "out.csv"
    assert cli.main([command, *argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err


def _huge_sigma_tilde():
    groups = base_config_dict()["groups"]
    return {"groups": [{**groups[0], "sigma_tilde": 10**400}, groups[1]]}


def _bool_cost():
    groups = base_config_dict()["groups"]
    return {"groups": [{**groups[0], "cost": True}, groups[1]]}


@pytest.mark.parametrize("command", ["solve", "sweep", "dropout", "dynamics", "verify"])
@pytest.mark.parametrize("contents, message", [
    # Each crashed with a traceback: UnicodeDecodeError and RecursionError
    # from the read, OverflowError from float(), and float() took "10" and
    # true as numbers.
    (b'{"reward": "\xff"}', " is not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
    ("[" * 100_000 + "]" * 100_000, ": JSON nested too deeply to read"),
    ({"reward": 10**400}, "reward is an integer too large for a float"),
    (_huge_sigma_tilde(), "groups['H'].sigma_tilde is an integer too large for a float"),
    ({"reward": "10"}, "reward must be a number, got '10'"),
    (_bool_cost(), "groups['H'].cost must be a number, got True"),
], ids=["not_utf8", "too_deep", "huge_reward", "huge_sigma_tilde", "string_reward",
        "bool_cost"])
def test_unreadable_file_or_non_number_field_is_an_input_error(
    tmp_path, capsys, command, contents, message
):
    """Exit 1 with one line naming the file, whichever subcommand reads it,
    and nothing written to ``--out``.  A config field goes through the rule
    a sweep grid entry follows, in a sweep's ``base_config`` too."""
    path = tmp_path / "input.json"
    if isinstance(contents, bytes):
        path.write_bytes(contents)
    elif isinstance(contents, str):
        path.write_text(contents, encoding="utf-8")
    elif command == "sweep":
        write_json(path, sweep_spec_dict([0.1, 0.2], **contents))
        message = f": malformed sweep spec: {message}"
    else:
        write_json(path, base_config_dict(**contents))
        message = f": malformed config: {message}"
    out = tmp_path / "out.csv"
    argv = {
        "solve": [],
        "sweep": ["--out", str(out)],
        "dropout": ["--grid", "100:1000:2", "--out", str(out)],
        "dynamics": ["--out", str(out)],
        "verify": ["--samples", "1000"],
    }[command]
    assert cli.main([command, "--config", str(path), *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}{message}")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_failed_dynamics_keeps_the_existing_out(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise SolverError("synthetic failure")

    out, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
    out.write_bytes(b"earlier output\r\n")
    out.chmod(0o640)
    inode = out.stat().st_ino
    argv = ["dynamics", "--config", str(SCENARIOS / "noise_gap_s10.json"), "--steps", "3"]
    monkeypatch.setattr(cli, "run_dynamics", fail)
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "computation failed: synthetic failure\n"
    assert out.read_bytes() == b"earlier output\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    # A run that succeeds writes into the file, which keeps its inode and
    # mode; a new file gets 0o666 less the umask.
    monkeypatch.undo()
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert cli.main([*argv, "--out", str(fresh)]) == 0
    assert out.read_bytes() == fresh.read_bytes()
    assert out.stat().st_ino == inode
    assert out.stat().st_mode & 0o777 == 0o640
    umask = os.umask(0)
    os.umask(umask)
    assert fresh.stat().st_mode & 0o777 == 0o666 & ~umask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.csv", "out.csv"]


def test_overwritten_out_holds_only_the_new_bytes(tmp_path):
    # The new bytes are written over the old ones and the file is cut where
    # they end: nothing of a longer earlier output is left.
    out, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
    argv = ["dropout", "--config", str(SCENARIOS / "noise_gap_s10.json"),
            "--grid", "100:1000:2:log", "--out"]
    assert cli.main([*argv, str(fresh)]) == 0
    out.write_bytes(b"earlier output\n" * fresh.stat().st_size)
    inode = out.stat().st_ino
    assert cli.main([*argv, str(out)]) == 0
    assert out.read_bytes() == fresh.read_bytes()
    assert out.stat().st_ino == inode


@pytest.mark.parametrize("command", ["sweep", "dropout"])
def test_reward_grid_points_are_checked_for_the_reward_alone(
    tmp_path, monkeypatch, command
):
    # The game is validated once; each of the 4 grid points runs only the
    # checks that depend on the reward.
    calls = collections.Counter()
    real_violations, real_reward = model._violations, cli.reward_violations

    def counted_violations(*args, **kwargs):
        calls["_violations"] += 1
        return real_violations(*args, **kwargs)

    def counted_reward(*args):
        calls["reward_violations"] += 1
        return real_reward(*args)

    monkeypatch.setattr(model, "_violations", counted_violations)
    monkeypatch.setattr(cli, "reward_violations", counted_reward)
    game = MEMO_GAMES["three_groups"]
    if command == "sweep":
        spec = {**sweep_spec_dict([2.0, 10.0, 20.0, 100.0]), "axis": "reward",
                "base_config": game}
        argv = ["sweep", "--config", write_json(tmp_path / "spec.json", spec)]
    else:
        argv = ["dropout", "--config", write_json(tmp_path / "game.json", game),
                "--grid", "2:100:4:log"]
    assert cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    assert calls == {"_violations": 1, "reward_violations": 4}


@pytest.mark.parametrize("command", ["solve", "sweep", "dropout", "dynamics", "verify"])
def test_every_subcommand_checks_and_resolves_its_game_once(
    tmp_path, monkeypatch, capsys, command
):
    # A dynamics run plays the command's game, and the closed forms and the
    # oracle checks take the game's groups: none checks the game again or
    # resolves its groups again.
    calls = collections.Counter()
    real_violations, real_groups = model._violations, model.effective_groups

    def counted_violations(*args, **kwargs):
        calls["_violations"] += 1
        return real_violations(*args, **kwargs)

    def counted_groups(*args, **kwargs):
        calls["effective_groups"] += 1
        return real_groups(*args, **kwargs)

    monkeypatch.setattr(model, "_violations", counted_violations)
    # Each module that imported the function calls it under its own name.
    for name, module in list(sys.modules.items()):
        if (name.startswith("stratselect")
                and getattr(module, "effective_groups", None) is real_groups):
            monkeypatch.setattr(module, "effective_groups", counted_groups)
    game, out = str(SCENARIOS / "noise_gap_s10.json"), str(tmp_path / "out.csv")
    spec = write_json(tmp_path / "spec.json", sweep_spec_dict([0.1, 0.2]))
    argv = {
        "solve": ["--config", game],
        "sweep": ["--config", spec, "--out", out],
        "dropout": ["--config", game, "--grid", "100:1000:2:log", "--out", out],
        "dynamics": ["--config", game, "--steps", "5", "--out", out],
        "verify": ["--config", game, "--samples", str(MIN_SAMPLES)],
    }[command]
    assert cli.main([command, *argv]) == 0
    capsys.readouterr()
    assert calls["_violations"] == 1
    assert calls["effective_groups"] == 1


# Runs ``cli.main`` on its arguments under an address-space limit, so that a
# command which builds a huge grid fails with MemoryError instead of taking
# the machine's memory.
LIMITED_MAIN = (
    "import resource, sys; "
    "resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]),) * 2); "
    "from stratselect import cli; sys.exit(cli.main(sys.argv[2:]))"
)


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS")
@pytest.mark.parametrize("command", ["dropout", "sweep", "dynamics"])
def test_a_count_above_the_bound_is_an_input_error(tmp_path, command):
    """A grid count or step count of 1e11 exits 1 with one line before
    anything is built, and writes nothing at ``--out``."""
    game, out = str(SCENARIOS / "noise_gap_s10.json"), tmp_path / "out.csv"
    count = 10**11
    spec = write_json(tmp_path / "spec.json",
                      sweep_spec_dict({"lo": 0.1, "hi": 0.2, "count": count}))
    argv, message = {
        "dropout": (["--config", game, "--grid", f"1:10:{count}"],
                    f"bad grid '1:10:{count}': "),
        "sweep": (["--config", spec], f"{spec}: malformed sweep grid: "),
        "dynamics": (["--config", game, "--steps", str(count)],
                     f"--steps {count} is above the supported {model.MAX_DYNAMICS_STEPS}"),
    }[command]
    if command != "dynamics":
        message += f"grid count {count} is above the supported {model.MAX_GRID_POINTS}"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    done = subprocess.run(
        [sys.executable, "-c", LIMITED_MAIN, str(1_500_000_000), command, *argv,
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {message}\n")
    assert not out.exists()


def test_counts_at_and_above_the_bounds(tmp_path, monkeypatch, capsys):
    assert len(cli._grid(0.0, 1.0, model.MAX_GRID_POINTS)) == model.MAX_GRID_POINTS
    with pytest.raises(ValueError, match="grid count 1000001 is above the supported 1000000"):
        cli._grid(0.0, 1.0, model.MAX_GRID_POINTS + 1)
    out = tmp_path / "out.csv"
    game = str(SCENARIOS / "noise_gap_s10.json")
    steps = model.MAX_DYNAMICS_STEPS + 1
    assert cli.main(["dynamics", "--config", game, "--steps", str(steps),
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: --steps {steps} is above the supported {model.MAX_DYNAMICS_STEPS}\n"
    )
    # A sweep grid given as a list keeps the same bound.
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 3)
    spec = write_json(tmp_path / "spec.json", sweep_spec_dict([0.1, 0.2, 0.3, 0.4]))
    assert cli.main(["sweep", "--config", spec, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {spec}: malformed sweep grid: 4 grid values are above the supported 3\n"
    )
    assert not out.exists()


def test_a_memory_error_with_no_message_reads_out_of_memory(tmp_path, monkeypatch, capsys):
    # The interpreter raises MemoryError() with no message of its own.
    def starved(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "run_dynamics", starved)
    out = tmp_path / "out.csv"
    argv = ["dynamics", "--config", str(SCENARIOS / "noise_gap_s10.json"), "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "computation failed: out of memory\n"
    assert not out.exists()


def test_read_only_out_is_not_replaced(tmp_path, capsys):
    out = tmp_path / "out.csv"
    out.write_bytes(b"earlier output\n")
    out.chmod(0o444)
    inode = out.stat().st_ino
    argv = ["dropout", "--config", str(SCENARIOS / "noise_gap_s10.json"),
            "--grid", "100:1000:2:log", "--out", str(out)]
    writable = os.access(out, os.W_OK)  # a superuser may write it anyway
    assert cli.main(argv) == (0 if writable else 1)
    if not writable:
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
        assert out.read_bytes() == b"earlier output\n"
    assert out.stat().st_ino == inode
    assert out.stat().st_mode & 0o777 == 0o444
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_out_may_be_a_fifo(tmp_path):
    # A FIFO, like a device, is written as it is, never replaced by a file.
    fifo, plain = tmp_path / "fifo", tmp_path / "plain.csv"
    os.mkfifo(fifo)
    argv = ["dropout", "--config", str(SCENARIOS / "noise_gap_s10.json"),
            "--grid", "100:1000:2:log", "--out"]
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert cli.main([*argv, str(fifo)]) == 0
        written = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert cli.main([*argv, str(plain)]) == 0
    assert written == plain.read_bytes()
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "plain.csv"]


@pytest.mark.parametrize("command", ["sweep", "dropout", "dynamics"])
def test_out_may_be_the_null_device(tmp_path, monkeypatch, capsys, command):
    game = str(SCENARIOS / "noise_gap_s10.json")
    argv = {
        "sweep": ["--config", write_json(tmp_path / "spec.json", sweep_spec_dict([0.1, 0.2]))],
        "dropout": ["--config", game, "--grid", "100:1000:2:log"],
        "dynamics": ["--config", game, "--steps", "5"],
    }[command]
    before = sorted(p.name for p in tmp_path.iterdir())
    monkeypatch.chdir(tmp_path)
    assert cli.main([command, *argv, "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_failed_dropout_writes_nothing_to_a_fifo(tmp_path, monkeypatch, capsys):
    # The header and the first row are done when the second reward fails;
    # neither may reach the pipe.
    rewards = []
    real = Game.curves

    def fail_at_second_reward(game, reward=None):
        rewards.append(reward)
        if len(rewards) == 2:
            raise SolverError("synthetic failure")
        return real(game, reward)

    monkeypatch.setattr(Game, "curves", fail_at_second_reward)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    argv = ["dropout", "--config", str(SCENARIOS / "noise_gap_s10.json"),
            "--grid", "100:1000:3:log", "--out", str(fifo)]
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert cli.main(argv) == 2
        written = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert capsys.readouterr().err == "computation failed: synthetic failure\n"
    assert len(rewards) == 2
    assert written == b""
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


class TestVerify:
    def test_default_suite_passes(self, capsys):
        assert cli.main(["verify", "--samples", "50000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_too_few_samples_is_an_input_error(self, capsys):
        assert cli.main(["verify", "--samples", "999"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --samples must be at least 1000, got 999\n"

    @pytest.mark.parametrize("seed", ["-5", str(2**70), str(2**64)])
    def test_seed_outside_the_philox_key_is_an_input_error(self, capsys, seed):
        # Philox takes the seed as one 64-bit word: 2**70 and -5 used to wrap
        # onto the seeds 0 and 2**64 - 5 and print their bytes.
        assert cli.main(["verify", "--samples", "1000", "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --seed must lie in [0, 2**64), got {seed}\n"

    def test_table_is_pinned(self, capsys):
        # The printed table rests on the oracle estimates; ulp-level changes
        # to the normal draws do not reach its digits.
        assert cli.main(["verify", "--samples", "20000", "--seed", "0"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == (
            "b23a2e289fcfaa2d1e96a80c382d39e2bf0efac13d1d2e1c8a663083bbbc2f32"
        )

    @pytest.mark.parametrize(
        "dm_mode, sigma_tilde, relation",
        [("bayesian", 2.0, "exceeds"), ("oblivious", 0.5, "is below")],
    )
    def test_unrealizable_sigma_tilde_is_an_input_error(
        self, tmp_path, capsys, monkeypatch, dm_mode, sigma_tilde, relation
    ):
        # The oracle draws latent quality given the statistic, which needs
        # sigma_tilde**2 <= eta_sq in bayesian mode and >= eta_sq in
        # oblivious mode.  The check runs before any draw.
        def no_draws(*args, **kwargs):
            raise AssertionError("verify drew samples")

        monkeypatch.setattr(cli, "mc_selection_probability", no_draws)
        path = write_json(tmp_path / "game.json", {
            "reward": 10.0, "alpha": 0.2, "eta_sq": 1.0, "dm_mode": dm_mode,
            "groups": [
                {"label": "H", "share": 0.4, "cost": 1.0, "sigma_tilde": sigma_tilde},
                {"label": "L", "share": 0.6, "cost": 1.4, "noise_var": 0.5},
            ],
        })
        assert cli.main(["verify", "--config", path, "--samples", "1000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: group 'H': statistic variance {sigma_tilde**2!r} {relation} "
            f"the latent quality variance 1.0; not realizable in {dm_mode} mode\n"
        )

    def test_oversized_samples_is_a_computation_error(self, capsys):
        # 10**12 draws need 7.3 TiB in one array, which the allocator refuses
        # outright, so nothing is allocated.
        assert cli.main(["verify", "--samples", str(10**12)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"computation failed: --samples {10**12}: ")
