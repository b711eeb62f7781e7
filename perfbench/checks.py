"""Output checks, run after the timed loop.

Each check returns the problems it found (an empty list means the output is
correct) and the work the operation completed: sweep rows, dynamics steps or
Monte Carlo samples.  Selected mass is recomputed from the CSV columns as
``sum(share * rate)`` and must equal alpha to ``BUDGET_TOL``, the tolerance
the solvers promise.
"""

from __future__ import annotations

import csv
import io

from workloads import sigma_sq

BUDGET_TOL = 1e-8
MC_ORACLES = ("selection_probability[", "selection_quality[")
# Prefix of every problem made from a verify FAIL line.  A Monte Carlo
# oracle check is a three-sigma gate that a correct program trips on 0.27%
# of checks, so its FAIL lines are tagged STATISTICAL; every other check
# (best_response against the grid argmax) is deterministic.
FAIL = "FAIL "
STATISTICAL = "FAIL (Monte Carlo) "


def _shares(game: dict) -> dict[str, float]:
    return {g["label"]: g["share"] for g in game["groups"]}


def _csv_rows(text: str, comments: int) -> tuple[list[str], list[dict], list[str]]:
    lines = text.splitlines()
    problems = []
    if len(lines) < comments + 1:
        return [], [], ["output has no CSV header"]
    if not lines[0].startswith("# config_hash="):
        problems.append("first line is not a config_hash comment")
    reader = csv.DictReader(io.StringIO("\n".join(lines[comments:])))
    return reader.fieldnames or [], list(reader), problems


def _mass_error(row: dict, shares: dict[str, float], suffix: str,
                alpha: float) -> float:
    mass = sum(s * float(row[f"rate_{label}{suffix}"]) for label, s in shares.items())
    return abs(mass - alpha)


def _ratio_denominator(game: dict) -> str | None:
    """Label whose selection rate divides rate_ratio: the group with the
    smaller (cost, spread), as ``metrics.ordered_pair`` picks it.  None when
    the game does not have exactly two groups and rate_ratio stays blank."""
    if len(game["groups"]) != 2:
        return None
    first = min(game["groups"],
                key=lambda g: (g["cost"], sigma_sq(g, game["dm_mode"])))
    return first["label"]


def check_sweep(spec: dict, text: str) -> tuple[list[str], int]:
    game = spec["base_config"]
    shares = _shares(game)
    denominator = _ratio_denominator(game)
    columns, rows, problems = _csv_rows(text, comments=1)
    if len(rows) != spec["grid"]["count"]:
        problems.append(f"{len(rows)} rows for a grid of {spec['grid']['count']}")
    for row in rows:
        value = row["axis_value"]
        # rate_ratio is blank by design when it is undefined.
        undefined = denominator is None or row[f"rate_{denominator}_un"] == "0.0"
        blank = [c for c in columns
                 if row[c] == "" and not (c == "rate_ratio" and undefined)]
        if blank:
            problems.append(f"row {spec['axis']}={value}: blank cells {blank}")
            continue
        alpha = float(value) if spec["axis"] == "alpha" else game["alpha"]
        error = _mass_error(row, shares, "_un", alpha)
        if error > BUDGET_TOL:
            problems.append(
                f"row {spec['axis']}={value}: selected mass off alpha by {error!r}")
    return problems, len(rows)


def check_dynamics(game: dict, text: str) -> tuple[list[str], int]:
    shares = _shares(game)
    columns, rows, problems = _csv_rows(text, comments=2)
    lines = text.splitlines()
    if len(lines) < 2 or not lines[1].startswith("# convergence="):
        problems.append("second line is not a convergence comment")
    for step, row in enumerate(rows):
        if row["t"] != str(step):
            problems.append(f"row {step} has t={row['t']}")
            break
        error = _mass_error(row, shares, "", game["alpha"])
        if error > BUDGET_TOL:
            problems.append(f"t={step}: selected mass off alpha by {error!r}")
    return problems, max(len(rows) - 1, 0)


def check_verify(samples: int, text: str) -> tuple[list[str], int]:
    problems = [
        (STATISTICAL if line.startswith(MC_ORACLES) else FAIL) + " ".join(line.split())
        for line in text.splitlines() if line.endswith(" FAIL")
    ]
    oracles = sum(1 for line in text.splitlines() if line.startswith(MC_ORACLES))
    if oracles == 0:
        problems.append("verify printed no Monte Carlo checks")
    return problems, oracles * samples
