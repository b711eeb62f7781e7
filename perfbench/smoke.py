#!/usr/bin/env python3
"""Self-test of the benchmark: ``python3 perfbench/smoke.py`` from the root.

Runs every workload at the tiny ``--smoke`` size, untraced and traced, and
asserts that the last line of each run is the result object with every
metric of BENCHMARK.json, by name and unit, and correct outputs.  Then runs
the benchmark in a directory holding only BENCHMARK.json and the benchmark
files, where it must fail without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] is True, proc.stdout
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in bench[section]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == expected, (workload, trace, printed, expected)
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), name
            print(f"ok {workload} --trace {trace}: {len(printed)} metrics")

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, next(iter(WORKLOADS)), 0)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
        print(f"ok bare directory: exit {proc.returncode}, {proc.stderr.strip()}")
    finally:
        shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
