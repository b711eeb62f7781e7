#!/usr/bin/env python3
"""Run every bundled scenario through the CLI and collect the outputs.

Produces, under the output directory (default ``results/``):

* ``<name>.solve.json`` for each game scenario,
* ``<name>.csv`` for each sweep scenario,
* dropout and dynamics traces for the benchmark games.

Usage: ``python scripts/run_scenarios.py [--out results]``
"""

import argparse
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

from stratselect import cli

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def run(argv, capture_to=None):
    print("+ stratselect " + " ".join(argv), file=sys.stderr)
    if capture_to is None:
        rc = cli.main(argv)
    else:
        with open(capture_to, "w", encoding="utf-8") as fh:
            with redirect_stdout(fh):
                rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"command failed with exit code {rc}: {argv}")


def commands(out):
    """Every CLI call of the bundled run, in order: its argv, and the file
    under ``out`` that its standard output goes to, or None for a command
    that writes its own ``--out``."""
    calls = []
    for path in sorted(SCENARIOS.glob("*.json")):
        spec = json.loads(path.read_text(encoding="utf-8"))
        name = path.stem
        if "base_config" in spec:
            calls.append((["sweep", "--config", str(path), "--out", str(out / f"{name}.csv")], None))
        else:
            calls.append((["solve", "--config", str(path)], out / f"{name}.solve.json"))

    game = str(SCENARIOS / "noise_gap_s10.json")
    calls.append(([
        "dropout", "--config", game, "--grid", "100:100000:4:log",
        "--out", str(out / "noise_gap_dropout.csv"),
    ], None))
    for mode, steps in (("br", 500), ("fp", 5000)):
        calls.append(([
            "dynamics", "--config", game, "--mode", mode, "--steps", str(steps),
            "--out", str(out / f"noise_gap_dynamics_{mode}.csv"),
        ], None))
    calls.append((["verify", "--samples", "1000000", "--seed", "0"], out / "verify.txt"))
    return calls


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(ROOT / "results"))
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for argv, capture_to in commands(out):
        run(argv, capture_to)
    print(f"outputs written to {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
