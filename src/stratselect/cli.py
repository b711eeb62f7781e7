"""Command-line front end: scenario files in, JSON reports and CSV data out.

Subcommands: ``solve`` (equilibrium reports for one game), ``sweep``
(equilibria along an alpha or reward grid, CSV), ``dropout`` (dropout
thresholds along a reward grid, CSV), ``dynamics`` (one trajectory, CSV) and
``verify`` (Monte Carlo / grid oracle checks, pass/fail table).

Exit codes: 0 success, 1 input error (a bad argument, a game or reward-grid
point outside the supported range included, see ``model.MAX_REWARD_RATIO``,
and a grid or a step count above ``model.MAX_GRID_POINTS`` or
``MAX_DYNAMICS_STEPS``, rejected before anything is built), 2 computation
error.  CSV output is byte-identical across runs for identical inputs; every
CSV starts with a ``# config_hash=`` comment binding it to the game
instance, and is built in memory and written to ``--out`` once, when the
command succeeds: a failed command writes nothing.
Every subcommand reads its game into an ``equilibrium.Game``, checked and
resolved once, which builds each group's response curve (its window and
dropout threshold) once per reward: groups of the same cost and spread share
it, and so do both solvers, the grid points and the dynamics steps.
``dynamics`` hands its game to ``dynamics.run``.  ``sweep`` checks the game
and every grid point and builds its game once, before any solve, and then
asks that game at each grid point.  A grid whose ends are finite but whose
width ``hi - lo`` overflows is an input error.  :func:`main` builds its
argument parser once per process, on its first call, and reuses it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import stat
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Sequence

from . import metrics
from .dynamics import run as run_dynamics
from .equilibrium import Game, SolverError
from .kernel import DomainError, NoBracket, NoConvergence
from .mc import (
    MIN_SAMPLES,
    effort_grid,
    grid_argmax_payoff,
    mc_selection_probability,
    mc_selection_quality,
    realizability_problems,
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
    MAX_DYNAMICS_STEPS,
    MAX_GRID_POINTS,
    EffortDistribution,
    GameConfig,
    _json_number,
    config_from_dict,
    config_hash,
    reward_violations,
    validate,
)

__all__ = ["main"]

_COMPUTE_ERRORS = (NoConvergence, NoBracket, DomainError, SolverError)


class InputError(Exception):
    """Bad file, malformed JSON or invalid configuration."""


def _reason(exc: Exception) -> str:
    """The message of ``exc``.  A MemoryError raised by the interpreter
    itself carries none, and reads "out of memory"."""
    if isinstance(exc, MemoryError) and not str(exc):
        return "out of memory"
    return str(exc)


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
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply to read") from None


def _load_game(path: str) -> Game:
    """The game of the config file ``path``, checked with :func:`validate`
    alone.  Raises InputError when it is unreadable or invalid."""
    data = _load_json(path)
    try:
        config = config_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed config: {exc}") from exc
    problems = validate(config)
    if problems:
        raise InputError(f"{path}: " + "; ".join(problems))
    return Game(config, checked=True)


@contextmanager
def _csv_out(path: str):
    """A text buffer that is written to ``path`` once, when the block succeeds.

    ``path`` is opened before the block runs, so an unwritable path is an
    InputError before any work.  A failed block writes nothing: an existing
    file keeps its bytes, and a file the call created is removed.  An existing
    regular file is written in place and then truncated where the new bytes
    end, so it keeps its inode, owner and mode; anything else, such as a FIFO
    or a device, is only written.
    """
    try:
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            created = True
        except FileExistsError:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
            created = False
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    with open(fd, "w", encoding="utf-8", newline="") as fh:
        buf = io.StringIO(newline="")
        try:
            yield buf
        except BaseException:
            if created:
                os.unlink(path)
            raise
        fh.write(buf.getvalue())
        # Truncated after the write, not to 0 before it: ext4 flushes a file
        # truncated to 0 and written again when it is closed, which costs
        # more than the write.  A file the call created needs no truncation.
        if not created and stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _csv_writer(fh, config: GameConfig, columns: Sequence[str], *comments: str):
    """Write the ``# config_hash=`` line, one ``#`` line per comment and the
    header on ``fh``, and return the function that writes a row of fields.
    The header goes through ``csv``, since a label can need quoting.  Every
    row field is empty, an integer or a float's repr, which ``csv`` writes
    as it is, so a row is its fields joined."""
    for line in (f"config_hash={config_hash(config)}", *comments):
        fh.write(f"# {line}\n")
    writer = csv.writer(fh)
    writer.writerow(columns)
    sep, end = writer.dialect.delimiter, writer.dialect.lineterminator

    def write_row(fields: Sequence[str]) -> None:
        fh.write(sep.join(fields) + end)

    return write_row


def _grid(lo: float, hi: float, count: int, scale: str = "linear") -> list[float]:
    """``count`` points from ``lo`` to ``hi`` on a ``linear`` or ``log``
    scale: the grid of ``--grid lo:hi:count[:log]`` and of a sweep spec's
    ``{"lo", "hi", "count", "scale"}``.  Raises ValueError when malformed
    or when ``count`` is above ``MAX_GRID_POINTS``."""
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid ends must be finite, got {lo!r} and {hi!r}")
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ValueError(f"grid count must be an integer of at least 1, got {count!r}")
    _json_number(count, "grid count")  # the steps divide by it as a float
    if count > MAX_GRID_POINTS:
        raise ValueError(f"grid count {count} is above the supported {MAX_GRID_POINTS}")
    if scale == "log":
        if not (lo > 0 and hi > 0):
            raise ValueError(f"log grid requires positive endpoints, got {lo!r} and {hi!r}")
        # Only np.geomspace gives its own points: numpy's power is not libm's
        # pow in the last bit.  So numpy loads here, for log grids alone.
        import numpy as np

        return [float(v) for v in np.geomspace(lo, hi, count)]
    if scale != "linear":
        raise ValueError(f"unknown grid scale {scale!r}")
    # np.linspace's arithmetic, point for point, so grids stay bit for bit.
    delta = hi - lo
    if not math.isfinite(delta):
        raise ValueError(f"grid ends {lo!r} and {hi!r} are too far apart: "
                         "hi - lo overflows")
    if count == 1:
        return [0.0 * delta + lo]
    div = count - 1
    step = delta / div
    if step == 0:  # the step underflows, so scale i / div instead
        points = [i / div * delta + lo for i in range(count)]
    else:
        points = [i * step + lo for i in range(count)]
    points[-1] = hi
    return points


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


def cmd_solve(args: argparse.Namespace) -> int:
    game = _load_game(args.config)
    config, views = game.config, game.views
    payload: dict = {"config_hash": config_hash(config)}
    payload["unconstrained"] = game.unconstrained().as_dict()
    payload["demographic_parity"] = None if args.no_dp else game.parity().as_dict()
    try:
        payload["asymptotic_predictions"] = asdict(asymptotic_predictions(views, config.alpha))
    except (AmbiguousRegime, NotTwoGroups):
        payload["asymptotic_predictions"] = None
    try:
        payload["small_s_crossings"] = asdict(small_s_crossings(views, config.reward))
    except (SubcriticalityViolated, DegenerateVariance, NotTwoGroups):
        payload["small_s_crossings"] = None
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


# --------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class SweepSpec:
    axis: str  # "alpha" or "reward"
    grid: tuple[float, ...]
    solvers: tuple[str, ...]
    game: Game  # the base config, checked and resolved once


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
                _json_number(grid_raw["lo"], "lo"), _json_number(grid_raw["hi"], "hi"),
                grid_raw["count"], grid_raw.get("scale", "linear"),
            )
        elif isinstance(grid_raw, list):
            if len(grid_raw) > MAX_GRID_POINTS:
                raise ValueError(f"{len(grid_raw)} grid values are above the "
                                 f"supported {MAX_GRID_POINTS}")
            grid = [_json_number(v, "grid value") for v in grid_raw]
        else:
            raise InputError(f"{path}: sweep grid must be a list or a "
                             f"{{lo, hi, count}} object, got {grid_raw!r}")
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
    known = ("unconstrained", "demographic_parity")
    solvers = data.get("solvers", list(known))
    if not isinstance(solvers, list) or not solvers:
        raise InputError(f"{path}: solvers must be a nonempty list, got {solvers!r}")
    for solver in solvers:
        if solver not in known:
            raise InputError(f"{path}: unknown solver {solver!r} in solvers")
    problems = validate(base)
    if problems:
        raise InputError(f"{path}: base_config: " + "; ".join(problems))
    if axis == "reward":
        _check_rewards(path, base, grid)
    return SweepSpec(
        axis=axis, grid=tuple(grid), solvers=tuple(solvers),
        game=Game(base, checked=True),
    )


def _check_rewards(path: str, config: GameConfig, rewards: Sequence[float]) -> None:
    """Reject a reward grid with a point outside the supported range of the
    valid game ``config``: only the checks that depend on the reward run."""
    for reward in rewards:
        problems = reward_violations(config, reward)
        if problems:
            raise InputError(f"{path}: reward grid value {reward!r}: " + "; ".join(problems))


def _sweep_row(spec: SweepSpec, value: float) -> tuple[dict, str | None]:
    """One row of the sweep at grid point ``value``.  ``_load_sweep`` checked
    the game and every grid point, so the row asks the spec's game."""
    game, views = spec.game, spec.game.views
    point = {spec.axis: value}  # the other of alpha and reward is the game's own
    row: dict = {"axis_value": value}
    try:
        un = game.unconstrained(**point) if "unconstrained" in spec.solvers else None
        dp = game.parity(**point) if "demographic_parity" in spec.solvers else None
    except (*_COMPUTE_ERRORS, MemoryError) as exc:
        return row, f"{spec.axis}={value!r}: {_reason(exc)}"
    # The game reports the outcomes in the order of ``views``.
    if un is not None:
        row["theta_un"] = un.threshold
        for view, outcome in zip(views, un.outcomes):
            row[f"effort_{view.label}_un"] = outcome.avg_effort
            row[f"rate_{view.label}_un"] = outcome.selection_rate
        if len(views) == 2:
            g1, g2 = ordered_pair(views)
            denominator = row[f"rate_{g1.label}_un"]
            if denominator > 0.0:
                row["rate_ratio"] = row[f"rate_{g2.label}_un"] / denominator
        row["quality_un"] = un.quality
    if dp is not None:
        for view, outcome in zip(views, dp.outcomes):
            row[f"theta_dp_{view.label}"] = outcome.threshold
        row["quality_dp"] = dp.quality
    if un is not None and dp is not None and dp.quality > 0.0:
        row["quality_ratio"] = un.quality / dp.quality
    return row, None


def _sweep_columns(spec: SweepSpec) -> list[str]:
    labels = [g.label for g in spec.game.config.groups]
    cols = ["axis_value", "theta_un"]
    cols += [f"theta_dp_{label}" for label in labels]
    cols += [f"effort_{label}_un" for label in labels]
    cols += [f"rate_{label}_un" for label in labels]
    cols += ["rate_ratio", "quality_un", "quality_dp", "quality_ratio"]
    return cols


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _load_sweep(args.config)
    columns = _sweep_columns(spec)
    with _csv_out(args.out) as fh:
        write_row = _csv_writer(fh, spec.game.config, columns)
        for value in spec.grid:
            row, warning = _sweep_row(spec, value)
            if warning:
                print(f"warning: {warning}", file=sys.stderr)
            write_row([_fmt(row.get(c)) for c in columns])
    return 0


# --------------------------------------------------------------------------
# dropout


def cmd_dropout(args: argparse.Namespace) -> int:
    game = _load_game(args.config)
    config = game.config
    grid = _parse_grid(args.grid)
    _check_rewards(args.config, config, grid)
    labels = [v.label for v in game.views]
    columns = ["S"] + [
        f"{column}_{label}" for label in labels
        for column in ("theta_d", "br_min", "br_max", "scaled")
    ]
    with _csv_out(args.out) as fh:
        write_row = _csv_writer(fh, config, columns)
        for reward in grid:
            row = [repr(reward)]
            for view, curve in zip(game.views, game.curves(reward)):
                info = curve.info
                if info is None:
                    print(
                        f"warning: S={reward!r} is subcritical for group "
                        f"{view.label!r}",
                        file=sys.stderr,
                    )
                    row += ("", "", "", "")
                    continue
                scaled = info.theta_d * (view.cost / (2.0 * reward)) ** 0.5
                row += (repr(info.theta_d), repr(info.br_min), repr(info.br_max),
                        repr(scaled))
            write_row(row)
    return 0


# --------------------------------------------------------------------------
# dynamics


def cmd_dynamics(args: argparse.Namespace) -> int:
    if args.steps < 1:
        raise InputError(f"--steps must be at least 1, got {args.steps}")
    if args.steps > MAX_DYNAMICS_STEPS:
        raise InputError(f"--steps {args.steps} is above the supported {MAX_DYNAMICS_STEPS}")
    if not 0.0 <= args.tol < float("inf"):
        raise InputError(f"--tol must be finite and nonnegative, got {args.tol}")
    game = _load_game(args.config)
    config, views = game.config, game.views
    labels = [v.label for v in views]
    columns = ["t", "theta", "theta_belief"]
    for label in labels:
        columns += [f"avg_effort_{label}", f"rate_{label}"]
    with _csv_out(args.out) as fh:
        trace = run_dynamics(game, mode=args.mode, max_steps=args.steps, tol=args.tol)
        conv = trace.convergence
        summary = f"convergence={conv.status}"
        if conv.period is not None:
            summary += f" period={conv.period}"
        if conv.theta is not None:
            summary += f" theta={conv.theta!r}"
        write_row = _csv_writer(fh, config, columns, summary)
        # Every cell but the belief, which is None in br mode, is a float.
        for state in trace.states:
            theta = state.theta
            row = [str(state.t), repr(theta), _fmt(state.belief)]
            for view, strategy in zip(views, state.strategies):
                mean, rate = metrics.mean_and_selection_rate(strategy, theta, view)
                row += (repr(mean), repr(rate))
            write_row(row)
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
    if not 0 <= args.seed < 2**64:
        raise InputError(f"--seed must lie in [0, 2**64), got {args.seed}")
    if args.config:
        game = _load_game(args.config)
    else:
        game = Game(config_from_dict(_DEFAULT_VERIFY_CONFIG))
    config, views = game.config, game.views
    problems = realizability_problems(config)
    if problems:
        raise InputError("; ".join(problems))
    n, seed = args.samples, args.seed
    un = game.unconstrained()
    checks: list[tuple[str, float, float, float]] = []

    strategies = [o.strategy for o in un.outcomes]
    thresholds = [o.threshold for o in un.outcomes]
    try:
        # The quality oracle runs first, on the stream after the selection
        # probabilities': its value array is the one allocation of n doubles,
        # so a sample count too large for memory fails before any drawing.
        quality = mc_selection_quality(
            strategies, thresholds, config, n, seed, stream=2 * len(views)
        )
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
    except MemoryError as exc:
        raise MemoryError(f"--samples {n}: {_reason(exc)}") from exc
    checks.append(
        ("selection_quality[unconstrained]", un.quality, quality.mean,
         3.0 * max(quality.std_error, 1e-12))
    )

    for view, curve in zip(views, game.curves()):
        theta = 0.5 * un.threshold
        brs = curve.best_response(theta)
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


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad argument as an input error: usage, one ``error:`` line, exit 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call and reused: a
    parse keeps nothing between calls, and a build costs about 1 ms."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (*_COMPUTE_ERRORS, MemoryError) as exc:
        print(f"computation failed: {_reason(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
