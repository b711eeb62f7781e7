import csv
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stratselect.equilibrium as equilibrium
from stratselect import cli, metrics
from stratselect.best_response import ResponseCurve
from stratselect.equilibrium import (
    SolverError,
    solve_demographic_parity,
    solve_unconstrained,
)
from stratselect.kernel import DomainError
from stratselect.model import config_from_dict

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
        ({}, {"noise_var": math.inf},
         "groups['H'].noise_var must be nonnegative and finite, got inf"),
        ({}, {"cost": math.inf}, "groups['H'].cost must be positive and finite, got inf"),
        ({"eta_sq": math.inf}, {}, "eta_sq must be positive and finite, got inf"),
        # cost * sigma**2 underflows to 0.0.
        ({}, {"cost": 1e-200, "sigma_tilde": 1e-160},
         "groups['H']: reward 10.0 is inf times cost * sigma**2, above the supported 1e+20"),
    ], ids=["sigma_tilde", "noise_var", "cost", "eta_sq", "cost_times_variance"])
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
            # Rejected before numpy can warn on stderr.
            ({"lo": 0.1, "hi": math.inf, "count": 3},
             "malformed sweep grid: grid ends must be finite, got 0.1 and inf"),
        ]:
            write_json(spec, sweep_spec_dict(grid))
            assert cli.main(["sweep", "--config", str(spec), "--out", str(out)]) == 1
            assert not out.exists()
            assert capsys.readouterr().err == f"error: {spec}: {message}\n"

    def test_point_failure_leaves_empty_cells(self, tmp_path, monkeypatch, capsys):
        import stratselect.cli as cli_module

        real = cli_module.solve_unconstrained

        def flaky(config, *args, **kwargs):
            if abs(config.alpha - 0.2) < 1e-12:
                raise SolverError("synthetic failure")
            return real(config, *args, **kwargs)

        monkeypatch.setattr(cli_module, "solve_unconstrained", flaky)
        spec = write_json(tmp_path / "spec.json", sweep_spec_dict([0.1, 0.2, 0.3]))
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--config", spec, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        failed_row = lines[3].split(",")
        assert failed_row[0] == "0.2"
        assert set(failed_row[1:]) == {""}
        assert "synthetic failure" in capsys.readouterr().err

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
}

MEMO_GRID = [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9]

# (game, axis, grid); the reward sweep crosses the three critical rewards.
MEMO_SWEEPS = {
    **{game: (game, "alpha", MEMO_GRID) for game in MEMO_GAMES},
    "three_groups_reward": ("three_groups", "reward", [2.0, 10.0, 20.0, 100.0]),
}


@pytest.fixture
def dropout_calls(monkeypatch):
    """Count the dropout searches the response curves start."""
    calls = []
    real = ResponseCurve.dropout

    def counted(curve):
        if curve.info is None:  # nothing cached: this call searches
            calls.append((curve.group.label, curve.reward))
        return real(curve)

    monkeypatch.setattr(ResponseCurve, "dropout", counted)
    return calls


real_curves = equilibrium._curves


def memo_free_curves(views, reward, memo=None):
    """``equilibrium._curves`` without the memo: one curve per group."""
    return real_curves(views, reward)


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

    @pytest.mark.parametrize("sweep", sorted(MEMO_SWEEPS))
    def test_memoised_sweep_matches_fresh_solves(self, tmp_path, monkeypatch, sweep):
        game, axis, grid = MEMO_SWEEPS[sweep]
        base = MEMO_GAMES[game]
        spec = write_json(
            tmp_path / "spec.json",
            {**sweep_spec_dict(grid), "axis": axis, "base_config": base},
        )
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--config", spec, "--out", str(out)]) == 0
        rows = read_sweep(out)
        monkeypatch.setattr(equilibrium, "_curves", memo_free_curves)
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
