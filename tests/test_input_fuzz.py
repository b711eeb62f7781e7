"""A derandomized mutation fuzz of every subcommand's input file.

Each case takes ``scenarios/noise_gap_s10.json``, or a two-point sweep spec
over it, replaces one or two fields with a wrong type, an edge number or
nothing at all, and runs one subcommand in process.  Whatever the input, a
command exits 0, 1 or 2; a failed one prints exactly one ``error:`` or
``computation failed:`` line, no traceback, and writes nothing at
``--out``.  A fixed list of cases then puts each bound of the supported
range, the reward ratio, alpha and the share sum, just inside and just
outside: inside, ``solve``, ``dynamics`` and ``verify`` exit 0; outside,
each exits 1 with one ``error:`` line naming the field.  Games whose
spreads are all tiny pin where the solvers fail inside that range.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratselect import cli
from stratselect.equilibrium import BUDGET_TOL, SolverError, solve_unconstrained
from stratselect.mc import MIN_SAMPLES
from stratselect.model import (
    MAX_REWARD_RATIO,
    MIN_REWARD_RATIO,
    config_from_dict,
    effective_groups,
    posterior_variance,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GAME = json.loads((SCENARIOS / "noise_gap_s10.json").read_text(encoding="utf-8"))
SPEC = {
    "axis": "alpha",
    "grid": {"lo": 0.1, "hi": 0.2, "count": 2, "scale": "linear"},
    "solvers": ["unconstrained", "demographic_parity"],
    "base_config": GAME,
}

GAME_PATHS = [(key,) for key in GAME] + [
    path
    for i, group in enumerate(GAME["groups"])
    for path in [("groups", i)] + [("groups", i, key) for key in (*group, "eta_sq")]
]
SPEC_PATHS = [
    ("axis",), ("grid",), ("solvers",), ("solvers", 0), ("base_config",),
    *(("grid", key) for key in SPEC["grid"]),
    *(("base_config", *path) for path in GAME_PATHS),
]

MISSING = object()  # the key is deleted
VALUES = [
    MISSING, None, True, False, "10", "", [], {}, [1.0], {"lo": 1.0},
    0, 1, -1, 2, 2**53 + 1, 10**400, -(10**400),
    0.0, -0.0, 0.5, -0.5, 5e-324, -5e-324, 1e-310, 1e308, -1e308,
    math.inf, -math.inf, math.nan,
]

ARGS = {
    "solve": [],
    "sweep": ["--out", "{out}"],
    "dropout": ["--grid", "100:1000:2:log", "--out", "{out}"],
    "dynamics": ["--steps", "5", "--out", "{out}"],
    "verify": ["--samples", str(MIN_SAMPLES)],
}


def mutated(document, changes):
    """A deep copy of ``document`` with each ``(path, value)`` applied; a
    path whose parent an earlier change removed or retyped is skipped."""
    document = json.loads(json.dumps(document))
    for path, value in changes:
        parent = document
        try:
            for key in path[:-1]:
                parent = parent[key]
            if value is MISSING:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            continue
    return document


@st.composite
def cases(draw):
    command = draw(st.sampled_from(sorted(ARGS)))
    document, paths = (SPEC, SPEC_PATHS) if command == "sweep" else (GAME, GAME_PATHS)
    changes = draw(st.lists(
        st.tuples(st.sampled_from(paths), st.sampled_from(VALUES)), min_size=1, max_size=2,
    ))
    return command, mutated(document, changes)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(case=cases())
def test_every_subcommand_fails_a_mutated_input_cleanly(case):
    command, document = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "input.json", Path(tmp) / "out.csv"
        # JSON writes nan and inf as NaN and Infinity, which it reads back.
        path.write_text(json.dumps(document), encoding="utf-8")
        argv = [command, "--config", str(path),
                *(arg.format(out=out) for arg in ARGS[command])]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
        err = stderr.getvalue()
        assert rc in (0, 1, 2), (argv, document)
        assert "Traceback" not in err
        if rc == 0:
            return
        if command == "verify" and err.endswith(" check(s) failed\n"):
            return  # an oracle check missed at MIN_SAMPLES: a result, not a failure
        failures = [line for line in err.splitlines()
                    if line.startswith(("error: ", "computation failed: "))]
        assert len(failures) == 1, (document, err)
        assert not out.exists()


CONFIG = config_from_dict(GAME)
SCALES = [g.cost * posterior_variance(g, CONFIG.eta_sq, CONFIG.dm_mode) for g in CONFIG.groups]
LOW_REWARD = MIN_REWARD_RATIO * max(SCALES)  # the group of the largest cost * sigma**2 binds
HIGH_REWARD = MAX_REWARD_RATIO * min(SCALES)
# Below alpha ~1.1e-16, 1 - alpha rounds to 1, and a dynamics run asks
# normal_quantile for the threshold at p = 1 and exits 2 (ROADMAP item 3);
# solve and verify handle these games.
DYNAMICS_TINY_ALPHA = pytest.mark.xfail(
    strict=True, reason="known defect: normal_quantile requires p in (0, 1), got 1.0"
)


def bound_case(field, value, inside, command):
    marks = ()
    if command == "dynamics" and field == "alpha" and 0.0 < value <= 1e-17:
        marks = DYNAMICS_TINY_ALPHA
    return pytest.param(field, value, inside, command, marks=marks,
                        id=f"{command}-{field}-{value!r}")


# Each bound of the supported range, at it and just beyond it: ``field`` is
# replaced by ``value``, or for "share" group H's share is moved by it.
BOUND_CASES = [
    ("reward", LOW_REWARD, True),
    ("reward", LOW_REWARD * (1.0 - 1e-9), False),
    ("reward", HIGH_REWARD, True),
    ("reward", HIGH_REWARD * (1.0 + 1e-9), False),
    ("alpha", 5e-324, True),
    ("alpha", 1e-17, True),
    ("alpha", 1.0 - 1e-12, True),
    ("alpha", math.nextafter(1.0, 0.0), True),
    ("alpha", 0.0, False),
    ("alpha", 1.0, False),
    ("share", 0.9e-12, True),
    ("share", -0.9e-12, True),
    ("share", 2e-12, False),
    ("share", -2e-12, False),
]


@pytest.mark.parametrize("field, value, inside, command", [
    bound_case(*case, command) for case in BOUND_CASES
    for command in ("solve", "dynamics", "verify")
])
def test_each_bound_of_the_supported_range(tmp_path, capsys, field, value, inside, command):
    document = json.loads(json.dumps(GAME))
    if field == "share":
        document["groups"][0]["share"] += value
    else:
        document[field] = value
    path, out = tmp_path / "input.json", tmp_path / "out.csv"
    path.write_text(json.dumps(document), encoding="utf-8")
    argv = [command, "--config", str(path), *(arg.format(out=out) for arg in ARGS[command])]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    if inside:
        assert (rc, err) == (0, "")
        return
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err.partition(f"{path}: ")[2], err
    # The number shown lies beyond the bound it is compared with.
    assert not any(text in err for text in (" 1e-20 times ", " 1e+20 times ", " sum to 1, "))
    assert not out.exists()


def tiny_spread_game(s):
    """H at spread ``s`` and L at ``1.5 * s``, at reward ``s**2``: reward
    ratios 1 and 0.22, well inside the supported range."""
    return {
        "reward": s * s, "alpha": 0.3, "eta_sq": 1.0, "dm_mode": "bayesian",
        "groups": [
            {"label": "H", "share": 0.4, "cost": 1.0, "sigma_tilde": s},
            {"label": "L", "share": 0.6, "cost": 2.0, "sigma_tilde": 1.5 * s},
        ],
    }


# Spreads of 1e-12 and below fail, 1e-10 solves (ROADMAP item 13).
TINY_SPREAD_DEFECT = (
    "known defect: find_root stops on a step within _MIN_RTOL * (|x| + 1), "
    "an absolute ~8.9e-16 near 0, and the smooth crossing and mixture_quantile "
    "solve in threshold units, so at a threshold near 1e-13 they stop early"
)


def tiny_spreads(raises):
    defect = pytest.mark.xfail(strict=True, raises=raises, reason=TINY_SPREAD_DEFECT)
    return [1e-10, pytest.param(1e-14, marks=defect)]


@pytest.mark.parametrize("s", tiny_spreads(SolverError))
def test_solve_at_tiny_spreads(s):
    # At 1e-14 the solve's budget is off by 8.4e-05.
    config = config_from_dict(tiny_spread_game(s))
    report = solve_unconstrained(config)
    views = effective_groups(config)
    budget = sum(v.share * o.selection_rate for v, o in zip(views, report.outcomes))
    assert abs(budget - config.alpha) <= BUDGET_TOL * config.alpha


@pytest.mark.parametrize("s", tiny_spreads(AssertionError))
def test_dynamics_keeps_the_budget_at_tiny_spreads(tmp_path, s):
    # At 1e-14 the command exits 0, but its rows miss alpha by up to 9.5e-7.
    path, out = tmp_path / "input.json", tmp_path / "out.csv"
    path.write_text(json.dumps(tiny_spread_game(s)), encoding="utf-8")
    assert cli.main(["dynamics", "--config", str(path), "--steps", "50", "--out", str(out)]) == 0
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    for row in csv.DictReader(lines):
        selected = 0.4 * float(row["rate_H"]) + 0.6 * float(row["rate_L"])
        assert abs(selected - 0.3) <= BUDGET_TOL, row
