#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 1-10 --against perfbench/baseline.json

For every workload it runs ``run.py --trace 0`` once per seed, one after the
other, and reports each end-to-end metric's median, quartiles and spread
(interquartile distance over median) next to its bound in BENCHMARK.json.
It then makes one traced run per workload at the first seed.  ``--out``
writes the runs, the summaries and the machine (Python, numpy, scipy, CPU
count) to a JSON file; ``--against`` compares the new medians with a file
written earlier and flags any that got worse by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    notes = [line for line in proc.stdout.splitlines() if line.startswith("# ")]
    result = json.loads(proc.stdout.splitlines()[-1])
    result["seed"] = seed
    result["notes"] = notes
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def machine() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            earlier = json.load(fh)["workloads"]

    report = {"machine": machine(), "seconds": bench["run_seconds"],
              "seeds": seeds, "workloads": {}}
    all_within = True
    for workload in workloads:
        runs = [run(workload, seed, bench["run_seconds"], 0) for seed in seeds]
        summary = {}
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["bound"] = bound
            summary[name] = stats
            flag = "ok" if stats["spread"] < bound / 3 else "WIDE"
            line = (f"{workload:26s} {name:12s} median {stats['median']:12.4f} "
                    f"spread {stats['spread']:.4f} (bound {bound}) {flag}")
            if earlier is not None:
                before = earlier[workload]["summary"][name]["median"]
                lower = next(m["better"] == "lower" for m in bench["end_to_end"]
                             if m["name"] == name)
                change = stats["median"] / before - 1.0
                worse = change if lower else -change
                ok = worse <= bound
                all_within &= ok
                line += f" vs earlier {change:+.4f} {'ok' if ok else 'WORSE'}"
            print(line, flush=True)
        failures = [(r["seed"], r["failed"]) for r in runs if r["failed"]]
        print(f"{workload:26s} correct in {sum(r['correct'] for r in runs)}/{len(runs)} "
              f"runs; failed ops (seed, count): {failures}", flush=True)
        report["workloads"][workload] = {
            "summary": summary,
            "runs": runs,
            "traced": run(workload, seeds[0], bench["run_seconds"], 1),
        }

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if all_within else 1


if __name__ == "__main__":
    raise SystemExit(main())
