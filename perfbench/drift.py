"""Correction for the machine's own speed drift.

On a shared virtual machine the same code runs at different speeds from one
minute to the next: a fixed pure-Python loop measured 3.2 to 9.5 ms within
one hour on the 2-CPU machine of the first baseline, and its 20-second means
still varied by 9%.  Wall times of identical runs spread as much, more than
any bound a regression check could use.

The benchmark therefore runs a fixed reference computation just before
and just after every operation, and scales the operation's wall time by
``REFERENCE_SECONDS / mean reference time`` of those runs: the time it would
have taken on the machine in the state where the reference takes
``REFERENCE_SECONDS``.  The reference does the kind of work the library
does (scipy's Brent root finder on an ``erfc`` closure, float arithmetic in
the interpreter, a numpy normal quantile), so the two slow down together:
over repeated runs of identical inputs the run-level correlation between
reference time and operation time was 0.92 to 0.98.  The speed also drifts
within a run: over six 20-second runs of the alpha sweep, in which the
run-mean factor ranged from 0.99 to 1.30, scaling each operation by its own
neighbouring references instead of by the run mean narrowed the spread of
the tail latency from 0.12 to 0.04 and of the median latency from 0.074 to
0.053.  The traced run scales its per-layer times by the run mean.  The
reference calls no stratselect code, so a change to the program cannot
change it.  Raw wall times are printed next to the scaled ones.

Set-up time is a fresh interpreter's imports, which this in-process
reference follows poorly: in one 2-minute sample of 62 set-ups the scaled
times spread more than the raw ones (0.15 against 0.11).  Set-up has its own
reference, ``import_reference``: a fresh interpreter that imports only the
third-party and standard modules stratselect imports.  Each set-up is paired
with one reference run and scaled by ``IMPORT_REFERENCE_SECONDS / reference
time``.  In the same sample the medians of three set-ups spread 0.09 raw and
0.026 paired.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy import optimize, special

# Mean reference time on the baseline machine; it only fixes the unit.
REFERENCE_SECONDS = 1.8e-3
# Reference computations between two consecutive operations.
REPEATS = 5

_UNIFORMS = (np.arange(1, 20_001) - 0.5) / 20_000.0
# Wall time of import_reference on the baseline machine; it only fixes the unit.
IMPORT_REFERENCE_SECONDS = 0.8
IMPORT_REFERENCE_CODE = (
    "import argparse, csv, hashlib, json\n"
    "import numpy\n"
    "from scipy import optimize, special\n"
)


def reference() -> float:
    """Run the fixed reference computation once; return its wall time."""
    start = time.perf_counter()
    total = 0.0
    for k in range(30):
        target = 0.3 + k * 1e-3
        total += optimize.brentq(
            lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0)) - target,
            -5.0, 5.0, xtol=1e-12)
    for i in range(3000):
        x = i * 1e-3
        total += math.exp(-0.5 * x * x) * x - 0.1 * x
    total += float(special.ndtri(_UNIFORMS).sum())
    elapsed = time.perf_counter() - start
    if not math.isfinite(total):
        raise RuntimeError("reference computation went wrong")
    return elapsed


def import_reference(env: dict) -> float:
    """Wall time of a fresh interpreter that imports stratselect's
    dependencies, not stratselect."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_REFERENCE_CODE], env=env,
                   check=True, capture_output=True, timeout=120)
    return time.perf_counter() - start


class Drift:
    """Reference samples taken between the operations of one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> list[float]:
        """Run the reference ``REPEATS`` times; return those wall times."""
        new = [reference() for _ in range(REPEATS)]
        self.samples.extend(new)
        return new

    def factor(self, samples: list[float] | None = None) -> float:
        """Multiply a wall time by this to report it: from ``samples`` when
        given, else from every sample of the run."""
        return REFERENCE_SECONDS / statistics.mean(samples or self.samples)
