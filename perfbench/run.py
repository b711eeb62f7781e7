#!/usr/bin/env python3
"""Benchmark of the stratselect command line on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a stratselect checkout; it imports the package from
``src/`` and refuses to run without it.  Load model: closed loop, one
client, one process.  An operation is one ``stratselect.cli.main`` call, in
process, on one generated input, issued after the previous one returns.
``SSL_THREADS`` is unset and BLAS threads are pinned to the CPUs this process
may use.

``--trace 0`` times ``round(seconds * OPS_PER_SECOND[workload])``
operations, about ``--seconds`` of busy time on the baseline machine, and
reports the end-to-end metrics; it stops early once the busy time reaches
``BUSY_CAP * seconds``.  Every operation's wall time is scaled by the drift
factor of ``drift.py``, measured just before and just after it, and
``setup_s`` is scaled by the paired import reference of ``drift.py``; the
raw wall times are printed in the notes.  ``--trace 1`` runs the first
block of six operations untraced and then traced, in a number of pairs set
by the same operation count, and reports per-layer self times and work counts
for one block.  Both check every output after timing and print, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
``--smoke`` shrinks every operation for a quick self-test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracing import SPANS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BLOCKS, OPS_PER_SECOND, SIZES, SMOKE_SIZES, WORKLOADS, Op, make_pool,
)

BLOCK = 6
SETUP_REPEATS = 3
# A run stops early once its operations have been busy this many times
# --seconds, which bounds its length on a machine slower than the baseline's.
BUSY_CAP = 1.5
# op_tail_ms is the latency exceeded by exactly this many operations.
TAIL_BEYOND = 10

END_TO_END = {
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "kernel.find_root.calls": "count",
    "kernel.find_root.fevals": "count",
    "kernel.find_root.self_s": "s",
    "kernel.normal_quantile.elements": "count",
    "kernel.normal_quantile.self_s": "s",
    "best_response.dropout_threshold.calls": "count",
    "best_response.dropout_threshold.self_s": "s",
    "best_response.dropout_threshold.distinct_ratio": "ratio",
    "best_response.stationary_points.calls": "count",
    "best_response.stationary_points.self_s": "s",
    "best_response.best_response.calls": "count",
    "best_response.best_response.self_s": "s",
    "best_response.foc_window.calls": "count",
    "equilibrium.solve_unconstrained.calls": "count",
    "equilibrium.solve_unconstrained.self_s": "s",
    "equilibrium.solve_demographic_parity.calls": "count",
    "equilibrium.solve_demographic_parity.self_s": "s",
    "equilibrium.solver_bracket.self_s": "s",
    "equilibrium.br_calls_per_solve": "ratio",
    "dynamics.run.self_s": "s",
    "dynamics.induced_threshold.calls": "count",
    "dynamics.induced_threshold.self_s": "s",
    "dynamics.br_calls_per_step": "ratio",
    "mc.mc_selection_probability.self_s": "s",
    "mc.mc_selection_quality.self_s": "s",
    "mc.grid_argmax_payoff.self_s": "s",
    "mc.samples": "count",
    "model.effective_groups.calls": "count",
    "model.config_hash.calls": "count",
    "best_response.dropout_threshold.total_s": "s",
    "equilibrium.solve_unconstrained.total_s": "s",
    "dynamics.run.total_s": "s",
    "mc.total_s": "s",
    "kernel.self_s": "s",
    "best_response.self_s": "s",
    "equilibrium.self_s": "s",
    "dynamics.self_s": "s",
    "mc.self_s": "s",
    "metrics.self_s": "s",
    "cli.main.self_s": "s",
    "cli.bytes_written": "B",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
}

SETUP_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import stratselect.cli
from stratselect.model import config_from_dict, validate
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    problems = validate(config_from_dict(data.get("base_config", data)))
    if problems:
        raise SystemExit(f"{path}: {problems}")
"""


def pin_threads() -> dict:
    os.environ.pop("SSL_THREADS", None)
    cpus = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cpus
    return dict(os.environ)


def import_cli():
    """``stratselect.cli`` from this checkout's ``src/``, never an installed copy."""
    package = os.path.join(SRC, "stratselect")
    if not os.path.isfile(os.path.join(package, "cli.py")):
        raise SystemExit(f"error: no stratselect package under {SRC}; "
                         "run from the root of a stratselect checkout")
    sys.path.insert(0, SRC)
    from stratselect import cli

    if os.path.dirname(os.path.abspath(cli.__file__)) != package:
        raise SystemExit(f"error: imported stratselect from {cli.__file__}")
    return cli


@dataclass
class Result:
    index: int  # position in the pool
    op: Op
    out: str | None
    rc: int | None
    stdout: str
    stderr: str
    elapsed: float
    factor: float  # drift factor measured around this operation

    @property
    def scaled(self) -> float:
        return self.elapsed * self.factor

    def output(self) -> bytes:
        if self.out is None:
            return self.stdout.encode("utf-8")
        try:
            with open(self.out, "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return b""


class Runner:
    """Runs operations, sampling the drift reference around each one."""

    def __init__(self, cli, directory: str, drift) -> None:
        self.cli = cli
        self.directory = directory
        self.count = 0
        self.drift = drift

    def run(self, index: int, op: Op) -> Result:
        before = self.drift.sample()
        out = None
        argv = list(op.argv)
        if op.kind != "verify":
            out = os.path.join(self.directory, f"{self.count}.csv")
            argv += ["--out", out]
        self.count += 1
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # noqa: BLE001 - a traceback is a failed op
                rc = None
                traceback.print_exc()
        elapsed = time.perf_counter() - start
        factor = self.drift.factor(before + self.drift.sample())
        return Result(index, op, out, rc, stdout.getvalue(), stderr.getvalue(),
                      elapsed, factor)


class Evaluation(NamedTuple):
    problems: list[str]
    work: int  # sweep rows, dynamics steps or Monte Carlo samples
    digest: str  # sha256 of the output


def evaluate(result: Result) -> Evaluation:
    """Problems, completed work and sha256 of one operation's output."""
    data = result.output()
    text = data.decode("utf-8", errors="replace")
    op = result.op
    try:
        if op.kind == "sweep":
            problems, work = checks.check_sweep(op.spec, text)
        elif op.kind == "dynamics":
            problems, work = checks.check_dynamics(op.spec, text)
        else:
            problems, work = checks.check_verify(op.samples, text)
    except (KeyError, ValueError, IndexError) as exc:
        problems, work = [f"malformed output: {exc!r}"], 0
    # sweep reports a failed grid point on stderr and still exits 0.
    problems += [line for line in result.stderr.splitlines()
                 if line.startswith("warning:")]
    # verify exits 2 exactly when it prints FAIL lines.
    explained = op.kind == "verify" and result.rc == 2 and any(
        p.startswith(checks.FAIL) for p in problems)
    if result.rc != 0 and not explained:
        tail = result.stderr.strip().splitlines()[-1:] or [""]
        problems.insert(0, f"exit code {result.rc}: {tail[0]}")
    return Evaluation(problems, work, hashlib.sha256(data).hexdigest())


def broken(results: list[Result], evaluations: dict) -> bool:
    """Whether any output breaks a deterministic invariant.  A verify FAIL
    line of a Monte Carlo oracle is a three-sigma gate, which a correct
    program trips for 0.27% of checks; it counts as a failed operation, not
    as wrong.  A FAIL line of any other check is wrong."""
    return any(not p.startswith(checks.STATISTICAL)
               for r in results for p in evaluations[id(r)].problems)


def judge(results: list[Result]) -> tuple[dict[int, Evaluation], list[str]]:
    """Evaluate every result; inputs run more than once must give identical
    bytes.  Returns the evaluation per result id and the mismatches."""
    evaluations = {id(r): evaluate(r) for r in results}
    digests: dict[int, set[str]] = {}
    for r in results:
        digests.setdefault(r.index, set()).add(evaluations[id(r)].digest)
    mismatches = [f"input {i}: {len(d)} different outputs over reruns"
                  for i, d in sorted(digests.items()) if len(d) > 1]
    return evaluations, mismatches


def report_failures(results: list[Result], evaluations: dict) -> int:
    failed = 0
    seen = set()
    for r in results:
        problems = evaluations[id(r)].problems
        if not problems:
            continue
        failed += 1
        if r.index not in seen:
            seen.add(r.index)
            print(f"# FAILED input {r.index} ({' '.join(r.op.argv)}): "
                  + "; ".join(problems[:5]))
    return failed


def measure_setup(paths: list[str], env: dict) -> tuple[float, float]:
    """Seconds for a fresh interpreter to import the CLI and load inputs,
    and seconds of the import reference run just before it."""
    from drift import import_reference

    reference = import_reference(env)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, SRC, *paths], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up failed: {proc.stderr.strip()}")
    return elapsed, reference


def recorded_structure(op: Op) -> bool:
    """Whether a shipped scenario has the op's structure: every scenario
    under ``scenarios/`` is a 2-group bayesian game."""
    game = op.spec.get("base_config", op.spec)
    return len(game["groups"]) == 2 and game["dm_mode"] == "bayesian"


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """The latency exceeded by ``TAIL_BEYOND`` operations, with its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def timed_run(pool: list[Op], count: int, seconds: float, runner: Runner,
              env: dict, setup_repeats: int, name: str) -> dict:
    from drift import IMPORT_REFERENCE_SECONDS

    inputs = sorted({op.argv[2] for op in pool[:BLOCK]})
    setups = [measure_setup(inputs, env) for _ in range(setup_repeats)]
    warm = runner.run(0, pool[0])  # lets lazy imports and caches settle
    timed: list[Result] = []
    busy = 0.0
    while len(timed) < count and busy < BUSY_CAP * seconds:
        index = len(timed) % len(pool)
        timed.append(runner.run(index, pool[index]))
        busy += timed[-1].elapsed
    # Every input of the first block runs at least twice, so that its
    # output bytes can be compared; input 0 already ran as the warm-up.
    repeated = {r.index for r in timed if sum(t.index == r.index for t in timed) > 1}
    reruns = [runner.run(i, pool[i]) for i in range(1, min(BLOCK, len(pool)))
              if i not in repeated]
    everything = [warm, *timed, *reruns]
    evaluations, mismatches = judge(everything)
    failed = report_failures(timed, evaluations)
    for line in mismatches:
        print(f"# NOT REPRODUCIBLE {line}")

    raw = [r.elapsed for r in timed]
    latencies = [r.scaled for r in timed]
    work = sum(evaluations[id(r)].work for r in timed)
    tail, percentile = tail_latency(latencies)
    wall = {
        "work_per_s": work / busy,
        "op_p50_ms": 1000.0 * statistics.median(raw),
        "op_tail_ms": 1000.0 * tail_latency(raw)[0],
        "setup_s": statistics.median(setup for setup, _ in setups),
    }
    metrics = {
        "work_per_s": work / sum(latencies),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": IMPORT_REFERENCE_SECONDS * statistics.median(
            setup / reference for setup, reference in setups),
    }
    factors = [r.factor for r in timed]
    print(f"# drift factor per op {min(factors):.4f} to {max(factors):.4f}, "
          f"median {statistics.median(factors):.4f}, from "
          f"{len(runner.drift.samples)} reference runs; raw wall "
          + ", ".join(f"{k}={v:.6g}" for k, v in wall.items()))
    unit = WORKLOADS[name].work_unit
    if len(timed) < count:
        print(f"# STOPPED EARLY after {len(timed)} of {count} ops: "
              f"{busy:.3f} s busy reached {BUSY_CAP} x --seconds")
    print(f"# {len(timed)} ops over {busy:.3f} s busy on {len({r.index for r in timed})} "
          f"distinct inputs; {len(reruns) + 1} more untimed runs to compare bytes")
    print(f"# work_per_s counts {unit}: {work} in total")
    print(f"# op_tail_ms is p{percentile:.1f} of {len(timed)} ops")
    unrecorded = [r for r in timed if not recorded_structure(r.op)]
    print(f"# {len(unrecorded)}/{len(timed)} ops and "
          f"{100.0 * sum(r.elapsed for r in unrecorded) / busy:.1f}% of busy time "
          "on structures no shipped scenario has (all but 2-group bayesian)")
    print("# setup_s samples (set-up/import reference, s): "
          + " ".join(f"{s:.4f}/{r:.4f}" for s, r in setups))
    print(f"# error_rate = {failed}/{len(timed)} = {failed / len(timed):.4f}")
    return {
        "correct": not mismatches and not broken(everything, evaluations),
        "attempted": len(timed),
        "failed": failed,
        "metrics": metrics,
    }


def layer_metrics(tracer: Tracer, results: list[Result], evaluations: dict,
                  traced_wall: float, untraced_wall: float) -> dict:
    calls, self_s, total_s, br_under = tracer.layer_totals()
    counts = tracer.counts
    dropouts = calls["best_response.dropout_threshold"]
    steps = sum(evaluations[id(r)].work for r in results if r.op.kind == "dynamics")
    solves = calls["equilibrium.solve_unconstrained"]
    values = {}
    for module_name, attr in SPANS:
        label = f"{module_name}.{attr}"
        values[f"{label}.calls"] = calls[label]
        values[f"{label}.self_s"] = self_s[label]
        values[f"{label}.total_s"] = total_s[label]
        values[f"{module_name}.self_s"] = (values.get(f"{module_name}.self_s", 0.0)
                                           + self_s[label])
    values["mc.total_s"] = sum(v for k, v in total_s.items() if k.startswith("mc."))
    values.update({
        "kernel.find_root.fevals": counts["kernel.find_root.fevals"],
        "kernel.normal_quantile.elements": counts["kernel.normal_quantile.elements"],
        "best_response.dropout_threshold.distinct_ratio":
            len(tracer.dropout_inputs) / dropouts if dropouts else 0.0,
        "best_response.foc_window.calls": counts["best_response.foc_window"],
        "equilibrium.br_calls_per_solve":
            br_under["equilibrium.solve_unconstrained"] / solves if solves else 0.0,
        "dynamics.br_calls_per_step":
            br_under["dynamics.run"] / steps if steps else 0.0,
        "mc.samples": counts["mc.samples"],
        "model.effective_groups.calls": counts["model.effective_groups"],
        "model.config_hash.calls": counts["model.config_hash"],
        "cli.bytes_written": sum(len(r.output()) for r in results),
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
    })
    return values


def traced_run(pool: list[Op], count: int, seconds: float, runner: Runner,
               name: str) -> dict:
    """Untraced and traced passes over the first block, about one traced op
    for every three ops of the timed run and at least two passes, so that
    the counts can be compared; like the timed run, it stops early once
    ``BUSY_CAP * seconds`` have passed."""
    block = list(enumerate(pool[:BLOCK]))
    results = [runner.run(i, op) for i, op in block]  # warm-up pass
    passes = []
    started = time.perf_counter()
    for _ in range(max(2, round(count / (3 * BLOCK)))):
        if passes and time.perf_counter() - started >= BUSY_CAP * seconds:
            print(f"# STOPPED EARLY after {len(passes)} traced passes")
            break
        untraced = [runner.run(i, op) for i, op in block]
        tracer = Tracer()
        tracer.install()
        try:
            traced = [runner.run(i, op) for i, op in block]
        finally:
            tracer.uninstall()
        results += untraced + traced
        passes.append((sum(r.elapsed for r in untraced),
                       sum(r.elapsed for r in traced), tracer, traced))
    evaluations, mismatches = judge(results)
    failed = report_failures(results, evaluations)
    for line in mismatches:
        print(f"# NOT REPRODUCIBLE {line}")

    per_pass = [layer_metrics(tracer, traced, evaluations, wall_t, wall_u)
                for wall_u, wall_t, tracer, traced in passes]
    count_keys = [k for k, unit in PER_LAYER.items() if unit in ("count", "B")]
    unstable = [k for k in count_keys if len({p[k] for p in per_pass}) > 1]
    for key in unstable:
        print(f"# COUNT CHANGED between traced passes: {key}")
    factor = runner.drift.factor()
    metrics = {k: statistics.median(p[k] for p in per_pass) * (
                   factor if k.endswith("_s") else 1.0)
               for k in per_pass[0]}
    wall = metrics["trace.traced_wall_s"]
    metrics["trace.overhead_ratio"] = wall / metrics["trace.untraced_wall_s"]
    print(f"# times scaled by the drift factor {factor:.4f} from "
          f"{len(runner.drift.samples)} reference runs")

    span_file = os.path.join(SCRATCH, f"spans-{name}.json")
    passes[-1][2].write(span_file)
    modules = sorted({m for m, _ in SPANS})
    total = sum(metrics[f"{m}.self_s"] for m in modules)
    print(f"# traced block of {BLOCK} ops, {len(passes)} traced passes; spans of "
          f"the last in {os.path.relpath(span_file, ROOT)}")
    print(f"# traced wall {wall:.4f} s, untraced {metrics['trace.untraced_wall_s']:.4f} s, "
          f"overhead x{metrics['trace.overhead_ratio']:.3f}; self times sum to "
          f"{total:.4f} s ({100.0 * total / wall:.2f}% of traced wall)")
    print("# self time by module, then time inside each function (inclusive):")
    for m in sorted(modules, key=lambda m: -metrics[f"{m}.self_s"]):
        print(f"#   {m:40s} {metrics[f'{m}.self_s']:10.4f} s "
              f"{100.0 * metrics[f'{m}.self_s'] / wall:6.2f}%")
    for m, attr in sorted(SPANS, key=lambda s: -metrics[f"{s[0]}.{s[1]}.total_s"]):
        value = metrics[f"{m}.{attr}.total_s"]
        if value > 0.0 and m != "cli":
            print(f"#   {m + '.' + attr:40s} {value:10.4f} s {100.0 * value / wall:6.2f}%")
    return {
        "correct": not mismatches and not unstable
                   and not broken(results, evaluations),
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: metrics[k] for k in PER_LAYER},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny operations and one set-up sample")
    args = parser.parse_args(argv)

    env = pin_threads()
    from drift import Drift  # imports numpy, which must see the thread settings

    cli = import_cli()
    os.makedirs(SCRATCH, exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        inputs = os.path.join(directory, "in")
        os.makedirs(inputs)
        size = (SMOKE_SIZES if args.smoke else SIZES)[args.workload]
        count = max(1, round(args.seconds * OPS_PER_SECOND[args.workload]))
        pool = make_pool(args.workload, args.seed, inputs, size,
                         BLOCKS[args.workload])
        runner = Runner(cli, directory, Drift())
        print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} pool={len(pool)} inputs, op size {size} / groups, "
              f"{count} ops")
        if args.trace:
            outcome = traced_run(pool, count, args.seconds, runner, args.workload)
        else:
            outcome = timed_run(pool, count, args.seconds, runner, env,
                                1 if args.smoke else SETUP_REPEATS, args.workload)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    for key, value in outcome["metrics"].items():
        print(f"# {key} = {value!r} {units[key]}")
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in outcome["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
