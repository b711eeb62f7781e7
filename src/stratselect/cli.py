"""Command-line front end: scenario files in, JSON reports and CSV data out.

Subcommands: ``solve`` (equilibrium reports for one game), ``sweep``
(equilibria along an alpha or reward grid, CSV), ``dropout`` (dropout
thresholds along a reward grid, CSV), ``dynamics`` (one trajectory, CSV) and
``verify`` (Monte Carlo / grid oracle checks, pass/fail table).

Exit codes: 0 success, 1 input error (a game or reward-grid point outside
the supported range included, see ``model.MAX_REWARD_RATIO``), 2 computation
error.  CSV output is byte-identical across runs for identical inputs; every
CSV starts with a ``# config_hash=`` comment binding it to the game instance.
Every subcommand builds each group's response curve (its window and dropout
threshold) once per reward: groups of the same cost and spread share it, and
so do both solvers, the grid points and the dynamics steps.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from . import metrics
from .best_response import SubcriticalReward
from .dynamics import run as run_dynamics
from .equilibrium import (
    CurveMemo,
    SolverError,
    memo_curve,
    solve_demographic_parity,
    solve_unconstrained,
)
from .kernel import DomainError, NoBracket, NoConvergence
from .mc import (
    MIN_SAMPLES,
    effort_grid,
    grid_argmax_payoff,
    mc_selection_probability,
    mc_selection_quality,
)
from .metrics import (
    AmbiguousRegime,
    DegenerateVariance,
    NotTwoGroups,
    SubcriticalityViolated,
    asymptotic_predictions,
    ordered_pair,
    small_s_crossings,
)
from .model import (
    EffortDistribution,
    GameConfig,
    config_from_dict,
    config_hash,
    effective_groups,
    validate,
)

__all__ = ["main"]

_COMPUTE_ERRORS = (
    NoConvergence,
    NoBracket,
    DomainError,
    SolverError,
    SubcriticalReward,
)


class InputError(Exception):
    """Bad file, malformed JSON or invalid configuration."""


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_config(path: str) -> GameConfig:
    data = _load_json(path)
    try:
        config = config_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed config: {exc}") from exc
    problems = validate(config)
    if problems:
        raise InputError(f"{path}: " + "; ".join(problems))
    return config


def _grid(lo: float, hi: float, count: int, scale: str = "linear") -> list[float]:
    """``count`` points from ``lo`` to ``hi`` on a ``linear`` or ``log``
    scale: the grid of ``--grid lo:hi:count[:log]`` and of a sweep spec's
    ``{"lo", "hi", "count", "scale"}``.  Raises ValueError when malformed."""
    lo, hi = float(lo), float(hi)
    if not np.isfinite([lo, hi]).all():
        raise ValueError(f"grid ends must be finite, got {lo!r} and {hi!r}")
    if not isinstance(count, int) or count < 1:
        raise ValueError(f"grid count must be an integer of at least 1, got {count!r}")
    if scale == "log":
        if lo <= 0:
            raise ValueError("log grid requires positive endpoints")
        return [float(v) for v in np.geomspace(lo, hi, count)]
    if scale != "linear":
        raise ValueError(f"unknown grid scale {scale!r}")
    return [float(v) for v in np.linspace(lo, hi, count)]


def _parse_grid(spec: str) -> list[float]:
    """``lo:hi:count[:log]`` into an explicit grid."""
    parts = spec.split(":")
    try:
        if len(parts) not in (3, 4):
            raise ValueError("expected lo:hi:count[:log]")
        return _grid(float(parts[0]), float(parts[1]), int(parts[2]), *parts[3:])
    except ValueError as exc:
        raise InputError(f"bad grid {spec!r}: {exc}") from exc


# --------------------------------------------------------------------------
# solve


def _solve_payload(config: GameConfig, with_dp: bool) -> dict:
    payload: dict = {"config_hash": config_hash(config)}
    curves: CurveMemo = {}
    un = solve_unconstrained(config, curves=curves)
    payload["unconstrained"] = un.as_dict()
    payload["demographic_parity"] = (
        solve_demographic_parity(config, curves=curves).as_dict()
        if with_dp
        else None
    )
    try:
        payload["asymptotic_predictions"] = asdict(asymptotic_predictions(config))
    except (AmbiguousRegime, NotTwoGroups):
        payload["asymptotic_predictions"] = None
    try:
        payload["small_s_crossings"] = asdict(small_s_crossings(config))
    except (SubcriticalityViolated, DegenerateVariance, NotTwoGroups):
        payload["small_s_crossings"] = None
    return payload


def cmd_solve(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    payload = _solve_payload(config, with_dp=not args.no_dp)
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


# --------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class SweepSpec:
    axis: str  # "alpha" or "reward"
    grid: tuple[float, ...]
    base_config: GameConfig
    solvers: tuple[str, ...]


def _load_sweep(path: str) -> SweepSpec:
    data = _load_json(path)
    try:
        axis = data["axis"]
        grid_raw = data["grid"]
        base = config_from_dict(data["base_config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed sweep spec: {exc}") from exc
    if axis not in ("alpha", "reward"):
        raise InputError(f"{path}: axis must be alpha or reward, got {axis!r}")
    try:
        if isinstance(grid_raw, dict):
            grid = _grid(
                grid_raw["lo"], grid_raw["hi"], grid_raw["count"],
                grid_raw.get("scale", "linear"),
            )
        else:
            grid = [float(v) for v in grid_raw]
    except KeyError as exc:
        raise InputError(f"{path}: sweep grid has no {exc} entry") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed sweep grid: {exc}") from exc
    if len(grid) < 2:
        raise InputError(f"{path}: sweep grid needs at least 2 points")
    for value in grid:
        if axis == "alpha" and not 0.0 < value < 1.0:
            raise InputError(f"{path}: alpha grid value {value!r} outside (0, 1)")
        if axis == "reward" and not value > 0.0:
            raise InputError(f"{path}: reward grid value {value!r} not positive")
    solvers = tuple(data.get("solvers", ("unconstrained", "demographic_parity")))
    for solver in solvers:
        if solver not in ("unconstrained", "demographic_parity"):
            raise InputError(f"{path}: unknown solver {solver!r}")
    problems = validate(base)
    if problems:
        raise InputError(f"{path}: base_config: " + "; ".join(problems))
    if axis == "reward":
        _check_rewards(path, base, grid)
    return SweepSpec(axis=axis, grid=tuple(grid), base_config=base, solvers=solvers)


def _check_rewards(path: str, config: GameConfig, rewards: Sequence[float]) -> None:
    """Reject a reward grid with a point outside the supported range."""
    for reward in rewards:
        problems = validate(replace(config, reward=reward))
        if problems:
            raise InputError(f"{path}: reward grid value {reward!r}: " + "; ".join(problems))


def _config_at(spec: SweepSpec, value: float) -> GameConfig:
    if spec.axis == "alpha":
        return replace(spec.base_config, alpha=value)
    return replace(spec.base_config, reward=value)


def _sweep_row(
    spec: SweepSpec, value: float, curves: CurveMemo
) -> tuple[dict, str | None]:
    config = _config_at(spec, value)
    views = effective_groups(config)
    labels = [v.label for v in views]
    row: dict = {"axis_value": value}
    try:
        un = (
            solve_unconstrained(config, curves=curves)
            if "unconstrained" in spec.solvers
            else None
        )
        dp = (
            solve_demographic_parity(config, curves=curves)
            if "demographic_parity" in spec.solvers
            else None
        )
    except _COMPUTE_ERRORS as exc:
        return row, f"{spec.axis}={value!r}: {exc}"
    if un is not None:
        row["theta_un"] = un.threshold
        for label in labels:
            outcome = un.outcome(label)
            row[f"effort_{label}_un"] = outcome.avg_effort
            row[f"rate_{label}_un"] = outcome.selection_rate
        if len(views) == 2:
            g1, g2 = ordered_pair(views)
            denominator = un.outcome(g1.label).selection_rate
            if denominator > 0.0:
                row["rate_ratio"] = un.outcome(g2.label).selection_rate / denominator
        row["quality_un"] = un.quality
    if dp is not None:
        for label in labels:
            row[f"theta_dp_{label}"] = dp.outcome(label).threshold
        row["quality_dp"] = dp.quality
    if un is not None and dp is not None and dp.quality > 0.0:
        row["quality_ratio"] = un.quality / dp.quality
    return row, None


def _sweep_columns(spec: SweepSpec) -> list[str]:
    labels = [g.label for g in spec.base_config.groups]
    cols = ["axis_value", "theta_un"]
    cols += [f"theta_dp_{label}" for label in labels]
    cols += [f"effort_{label}_un" for label in labels]
    cols += [f"rate_{label}_un" for label in labels]
    cols += ["rate_ratio", "quality_un", "quality_dp", "quality_ratio"]
    return cols


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _load_sweep(args.config)
    curves: CurveMemo = {}
    results = [_sweep_row(spec, v, curves) for v in spec.grid]
    columns = _sweep_columns(spec)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_hash={config_hash(spec.base_config)}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row, warning in results:
            if warning:
                print(f"warning: {warning}", file=sys.stderr)
            writer.writerow([_fmt(row.get(c)) for c in columns])
    return 0


# --------------------------------------------------------------------------
# dropout


def cmd_dropout(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    grid = _parse_grid(args.grid)
    _check_rewards(args.config, config, grid)
    views = effective_groups(config)
    labels = [v.label for v in views]
    curves: CurveMemo = {}
    columns = ["S"]
    for label in labels:
        columns += [
            f"theta_d_{label}",
            f"br_min_{label}",
            f"br_max_{label}",
            f"scaled_{label}",
        ]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_hash={config_hash(config)}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for reward in grid:
            row = {"S": reward}
            for view in views:
                try:
                    info = memo_curve(view, reward, curves).dropout()
                except SubcriticalReward:
                    print(
                        f"warning: S={reward!r} is subcritical for group "
                        f"{view.label!r}",
                        file=sys.stderr,
                    )
                    continue
                row[f"theta_d_{view.label}"] = info.theta_d
                row[f"br_min_{view.label}"] = info.br_min
                row[f"br_max_{view.label}"] = info.br_max
                row[f"scaled_{view.label}"] = info.theta_d * (
                    view.cost / (2.0 * reward)
                ) ** 0.5
            writer.writerow([_fmt(row.get(c)) for c in columns])
    return 0


# --------------------------------------------------------------------------
# dynamics


def cmd_dynamics(args: argparse.Namespace) -> int:
    if args.steps < 1:
        raise InputError(f"--steps must be at least 1, got {args.steps}")
    config = _load_config(args.config)
    trace = run_dynamics(
        config, mode=args.mode, max_steps=args.steps, tol=args.tol
    )
    views = effective_groups(config)
    labels = [v.label for v in views]
    columns = ["t", "theta", "theta_belief"]
    for label in labels:
        columns += [f"avg_effort_{label}", f"rate_{label}"]
    conv = trace.convergence
    summary = f"# convergence={conv.status}"
    if conv.period is not None:
        summary += f" period={conv.period}"
    if conv.theta is not None:
        summary += f" theta={conv.theta!r}"
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_hash={config_hash(config)}\n")
        fh.write(summary + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for state in trace.states:
            row = [str(state.t), _fmt(state.theta), _fmt(state.belief)]
            for view, strategy in zip(views, state.strategies):
                row.append(_fmt(strategy.mean()))
                row.append(_fmt(metrics.selection_rate(strategy, state.theta, view)))
            writer.writerow(row)
    return 0


# --------------------------------------------------------------------------
# verify


_DEFAULT_VERIFY_CONFIG = {
    "reward": 10.0,
    "alpha": 0.2,
    "eta_sq": 1.0,
    "dm_mode": "bayesian",
    "groups": [
        {"label": "H", "share": 0.4, "cost": 1.0, "noise_var": 3.0},
        {"label": "L", "share": 0.6, "cost": 1.4, "noise_var": 0.5},
    ],
}


def cmd_verify(args: argparse.Namespace) -> int:
    if args.samples < MIN_SAMPLES:
        raise InputError(
            f"--samples must be at least {MIN_SAMPLES}, got {args.samples}"
        )
    if args.config:
        config = _load_config(args.config)
    else:
        config = config_from_dict(_DEFAULT_VERIFY_CONFIG)
    n, seed = args.samples, args.seed
    views = effective_groups(config)
    curves: CurveMemo = {}
    un = solve_unconstrained(config, curves=curves)
    checks: list[tuple[str, float, float, float]] = []

    stream = 0
    for view, params in zip(views, config.groups):
        theta = un.threshold
        for m in (max(theta - view.sigma, 0.0), max(theta, 0.0)):
            analytic = metrics.selection_rate(EffortDistribution.point(m), theta, view)
            est = mc_selection_probability(
                m, theta, params, config.eta_sq, n, seed,
                dm_mode=config.dm_mode, stream=stream,
            )
            stream += 1
            tol = 3.0 * max(est.std_error, 1e-12)
            checks.append(
                (f"selection_probability[{view.label}, m={m:.3g}]",
                 analytic, est.mean, tol)
            )

    strategies = [o.strategy for o in un.outcomes]
    thresholds = [o.threshold for o in un.outcomes]
    est = mc_selection_quality(strategies, thresholds, config, n, seed, stream=stream)
    checks.append(
        ("selection_quality[unconstrained]", un.quality, est.mean,
         3.0 * max(est.std_error, 1e-12))
    )

    for view in views:
        theta = 0.5 * un.threshold
        brs = memo_curve(view, config.reward, curves).best_response(theta)
        grid_best = grid_argmax_payoff(theta, view, config.reward)
        step = effort_grid(view, config.reward)[1]
        closest = min(brs, key=lambda b: abs(b - grid_best))
        checks.append(
            (f"best_response[{view.label}, theta={theta:.3g}]",
             closest, grid_best, step + 1e-12)
        )

    failures = 0
    print(f"{'check':44s} {'analytic':>14s} {'estimate':>14s} {'tol':>10s} status")
    for name, analytic, estimate, tol in checks:
        ok = abs(analytic - estimate) <= tol
        failures += 0 if ok else 1
        print(
            f"{name:44s} {analytic:14.8f} {estimate:14.8f} {tol:10.2e} "
            f"{'PASS' if ok else 'FAIL'}"
        )
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 2
    return 0


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratselect",
        description="Equilibria, fairness metrics and dynamics of selection "
        "contests with strategic candidates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one game and print JSON reports")
    p_solve.add_argument("--config", required=True, help="game config JSON")
    p_solve.add_argument(
        "--no-dp", action="store_true", help="skip the demographic-parity solve"
    )
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="solve along a grid, write CSV")
    p_sweep.add_argument("--config", required=True, help="sweep spec JSON")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_drop = sub.add_parser("dropout", help="dropout thresholds along a reward grid")
    p_drop.add_argument("--config", required=True, help="game config JSON")
    p_drop.add_argument("--grid", required=True, help="reward grid lo:hi:count[:log]")
    p_drop.add_argument("--out", required=True, help="output CSV path")
    p_drop.set_defaults(func=cmd_dropout)

    p_dyn = sub.add_parser("dynamics", help="run one trajectory, write CSV")
    p_dyn.add_argument("--config", required=True, help="game config JSON")
    p_dyn.add_argument("--mode", choices=("br", "fp"), default="br")
    p_dyn.add_argument("--steps", type=int, default=1000)
    p_dyn.add_argument("--tol", type=float, default=1e-9)
    p_dyn.add_argument("--out", required=True, help="output CSV path")
    p_dyn.set_defaults(func=cmd_dynamics)

    p_verify = sub.add_parser("verify", help="run the oracle checks")
    p_verify.add_argument("--config", help="game config JSON (default built-in)")
    p_verify.add_argument("--samples", type=int, default=1_000_000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _COMPUTE_ERRORS as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
