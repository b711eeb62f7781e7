"""Seeded inputs for the benchmark workloads.

Every workload is a pool of operations.  An operation is one ``stratselect``
subcommand on one generated input file; the timed loop cycles through the
pool.  A pool is made of blocks; a block holds one game for each
combination of group count (2, 3, 4) and ``dm_mode`` (bayesian, oblivious),
in a seeded order, so that every seed draws the same mix of structures and
the per-operation cost, which grows with the group count, does not swing
with the seed.  Shares, costs, spreads, rewards, selection sizes and Monte
Carlo seeds are drawn freely.  No draw is rejected: an input the program
fails on is timed and counted as a failure.

Rewards are placed relative to each game's critical rewards
``C * sigma**2 * sqrt(2 pi e)``, at the ratios the bundled scenarios use:
``sweep_*_s1000.json`` sits 240 to 450 times above them, ``noise_gap_s10``
2.4 to 240 times above, and ``sweep_small_reward.json`` 0.24 to 0.67 times
below.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

CRITICAL_REWARD_FACTOR = math.sqrt(2.0 * math.pi * math.e)
GROUP_COUNTS = (2, 3, 4)
DM_MODES = ("bayesian", "oblivious")
LABELS = "ABCD"


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``argv`` without the output flag, the generated
    spec it reads, and what kind of output it produces."""

    kind: str  # "sweep", "dynamics" or "verify"
    argv: tuple[str, ...]
    spec: dict
    samples: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str  # what work_per_s counts
    make: Callable[[random.Random, dict, str, int], Op]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def sigma_sq(group: dict, dm_mode: str) -> float:
    # eta_sq is 1 in every generated game.
    if dm_mode == "bayesian":
        return 1.0 / (group["noise_var"] + 1.0)
    return 1.0 + group["noise_var"]


def critical_rewards(game: dict) -> list[float]:
    return [
        g["cost"] * sigma_sq(g, game["dm_mode"]) * CRITICAL_REWARD_FACTOR
        for g in game["groups"]
    ]


def draw_game(rng: random.Random, n_groups: int, dm_mode: str) -> dict:
    """A game with ``reward`` and ``alpha`` left for the workload to set.

    Spreads follow from ``noise_var`` with ``eta_sq = 1``: between 0.1 and 1
    in bayesian mode (the bundled scenarios' range) and between 1 and 2 in
    oblivious mode, where the spread can only grow with the noise.
    """
    weights = [rng.uniform(1.0, 3.0) for _ in range(n_groups)]
    total = sum(weights)
    shares = [round(w / total, 6) for w in weights[:-1]]
    shares.append(1.0 - sum(shares))
    groups = []
    for label, share in zip(LABELS, shares):
        sigma = _log_uniform(rng, 0.1, 1.0) if dm_mode == "bayesian" else (
            _log_uniform(rng, 1.0, 2.0)
        )
        noise_var = 1.0 / sigma**2 - 1.0 if dm_mode == "bayesian" else sigma**2 - 1.0
        groups.append({
            "label": label,
            "share": share,
            "cost": round(_log_uniform(rng, 1.0, 5.0), 4),
            "noise_var": round(noise_var, 4),
        })
    return {"reward": 1.0, "alpha": 0.5, "eta_sq": 1.0, "dm_mode": dm_mode,
            "groups": groups}


def _write(path: str, data: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
    return path


def _alpha_sweep(rng, game, path, size):
    game["reward"] = round(max(critical_rewards(game)) * _log_uniform(rng, 240.0, 450.0), 3)
    spec = {
        "axis": "alpha",
        "grid": {"lo": round(rng.uniform(0.02, 0.05), 4),
                 "hi": round(rng.uniform(0.95, 0.98), 4),
                 "count": size},
        "solvers": ["unconstrained", "demographic_parity"],
        "base_config": game,
    }
    return Op("sweep", ("sweep", "--config", _write(path, spec)), spec)


def _reward_sweep(rng, game, path, size):
    crit = critical_rewards(game)
    game["alpha"] = round(rng.uniform(0.05, 0.5), 4)
    spec = {
        "axis": "reward",
        "grid": {"lo": round(min(crit) * _log_uniform(rng, 0.24, 0.67), 6),
                 "hi": round(max(crit) * _log_uniform(rng, 2.4, 24.0), 4),
                 "count": size, "scale": "log"},
        "solvers": ["unconstrained", "demographic_parity"],
        "base_config": game,
    }
    return Op("sweep", ("sweep", "--config", _write(path, spec)), spec)


def _fictitious_play(rng, game, path, size):
    game["reward"] = round(max(critical_rewards(game)) * _log_uniform(rng, 2.4, 24.0), 4)
    game["alpha"] = round(rng.uniform(0.05, 0.3), 4)
    argv = ("dynamics", "--config", _write(path, game), "--mode", "fp",
            "--steps", str(size))
    return Op("dynamics", argv, game)


def _mc_verify(rng, game, path, size):
    game["reward"] = round(max(critical_rewards(game)) * _log_uniform(rng, 2.4, 10.0), 4)
    game["alpha"] = round(rng.uniform(0.1, 0.3), 4)
    argv = ("verify", "--config", _write(path, game), "--samples", str(size),
            "--seed", str(rng.randrange(1 << 31)))
    return Op("verify", argv, game, samples=size)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "alpha_sweep_supercritical",
            "alpha sweeps far above every critical reward: the alpha-free "
            "dropout search is ~95% of wall time and repeats at every grid point",
            "sweep rows", _alpha_sweep,
        ),
        Workload(
            "reward_sweep",
            "log reward sweeps across the critical rewards: every point has a "
            "fresh reward, so a dropout memo cannot help, and the subcritical "
            "points run the smooth-threshold bisection",
            "sweep rows", _reward_sweep,
        ),
        Workload(
            "fictitious_play",
            "fictitious-play trajectories: best responses and root finds with "
            "no dropout search and no solver",
            "dynamics steps", _fictitious_play,
        ),
        Workload(
            "mc_verify",
            "Monte Carlo oracle checks: the only workload where mc and "
            "kernel.normal_quantile do the work",
            "Monte Carlo samples", _mc_verify,
        ),
    )
}

# Operation size per workload, divided by the game's group count: alpha and
# reward grid points, fictitious-play steps, Monte Carlo samples per oracle.
# The work of an operation grows with the group count; dividing by it keeps
# operations of similar cost, so latency percentiles do not jump with the
# seeded mix of 2-, 3- and 4-group games.  --smoke uses the tiny sizes.
SIZES = {
    "alpha_sweep_supercritical": 36,
    "reward_sweep": 48,
    "fictitious_play": 1500,
    "mc_verify": 1_500_000,
}
# Blocks of six games per pool.  A run's mix of inputs varies less from seed
# to seed the more distinct games it covers, so the fast workloads get pools
# larger than one run needs.  mc_verify cycles one block: each distinct
# (game, seed) pair adds 5 to 9 three-sigma oracle checks that can fail by
# chance.
BLOCKS = {
    "alpha_sweep_supercritical": 16,
    "reward_sweep": 16,
    "fictitious_play": 32,
    "mc_verify": 1,
}
# Operations per second of --seconds.  A run makes round(seconds * rate)
# operations, whatever the machine's speed, so every run of a seed does the
# same operations and reports the same attempted and failed counts.  A count
# set by elapsed time would make the number of failed mc_verify operations
# depend on the speed, since a verify FAIL repeats on every rerun of its
# input.  At 20 seconds the ops were busy 16 to 26 s on the baseline machine,
# whose speed drifts that much; 30 mc_verify ops run each input of its block
# five times.
OPS_PER_SECOND = {
    "alpha_sweep_supercritical": 3.0,
    "reward_sweep": 2.7,
    "fictitious_play": 4.0,
    "mc_verify": 1.5,
}
SMOKE_SIZES = {
    "alpha_sweep_supercritical": 12,
    "reward_sweep": 12,
    "fictitious_play": 60,
    "mc_verify": 6_000,
}


def make_pool(name: str, seed: int, directory: str, size: int,
              blocks: int) -> list[Op]:
    """Write ``blocks`` blocks of ``name``'s inputs for ``seed`` under
    ``directory``; each block holds one game per (group count, dm_mode)."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    pool = []
    for _ in range(blocks):
        combos = [(n, mode) for n in GROUP_COUNTS for mode in DM_MODES]
        rng.shuffle(combos)
        for n_groups, dm_mode in combos:
            game = draw_game(rng, n_groups, dm_mode)
            path = os.path.join(directory, f"{name}-{len(pool)}.json")
            pool.append(workload.make(rng, game, path, size // n_groups))
    return pool
