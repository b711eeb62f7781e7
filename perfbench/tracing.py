"""Spans and counters around the public functions of each stratselect module.

The traced run replaces each function below with a wrapper at every import
site in the process: the defining module and every ``stratselect`` module
that imported the function by name (``equilibrium`` holds its own reference
to ``best_response``, ``cli`` to ``dropout_threshold``, and so on).  A span
records name, start, end and parent; spans stay in memory and are written
when the run ends.  A span's self time is its duration minus the durations
of its direct children, which nest without overlap in one thread.  The time
``find_root`` spends inside the function it was given is moved to the span
that called ``find_root``, so that the kernel's self time is the root
finder's own work and the candidate-side equations count where they are
written.

``normal_cdf``, ``normal_pdf`` and ``payoff`` run hundreds of thousands of
times per pass and are left untraced: their time is part of the self time
of the layer that calls them.  ``foc_window``, ``effective_groups`` and
``config_hash`` are counted, not timed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

SPANS = (
    ("cli", "main"),
    ("kernel", "find_root"),
    ("kernel", "normal_quantile"),
    ("best_response", "dropout_threshold"),
    ("best_response", "stationary_points"),
    ("best_response", "best_response"),
    ("equilibrium", "solve_unconstrained"),
    ("equilibrium", "solve_demographic_parity"),
    ("equilibrium", "solver_bracket"),
    ("dynamics", "run"),
    ("dynamics", "induced_threshold"),
    ("mc", "mc_selection_probability"),
    ("mc", "mc_selection_quality"),
    ("mc", "grid_argmax_payoff"),
    ("metrics", "selection_rate"),
    ("metrics", "quality_from_outcomes"),
    ("metrics", "selection_quality"),
    ("metrics", "ordered_pair"),
    ("metrics", "asymptotic_predictions"),
    ("metrics", "small_s_crossings"),
)
COUNTS = (
    ("best_response", "foc_window"),
    ("model", "effective_groups"),
    ("model", "config_hash"),
)


class Tracer:
    """In-memory span store plus the work counters the report needs."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # time covered by direct children
        self.callee = array("d")  # self time of find_root's callable
        self.stack = [-1]
        self.counts: Counter[str] = Counter()
        self.dropout_inputs: set[tuple[float, float, float]] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _span(self, label: str, func, before=None):
        name_id = len(self.names)
        self.names.append(label)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args, kwargs)
            index = len(self.start)
            parent = self.stack[-1]
            self.name.append(name_id)
            self.parent.append(parent)
            self.child.append(0.0)
            self.callee.append(0.0)
            self.end.append(0.0)
            self.stack.append(index)
            self.start.append(time.perf_counter())
            try:
                return func(*args, **kwargs)
            finally:
                end = self.end[index] = time.perf_counter()
                self.stack.pop()
                if parent >= 0:
                    self.child[parent] += end - self.start[index]

        return wrapper

    def _counted(self, label: str, func):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return func(*args, **kwargs)

        return wrapper

    def _count_fevals(self, args, kwargs):
        counts, stack, child, callee = self.counts, self.stack, self.child, self.callee
        f = args[0]

        def counted(x):
            counts["kernel.find_root.fevals"] += 1
            span = stack[-1]  # the find_root span that is calling f
            covered = child[span]
            start = time.perf_counter()
            try:
                return f(x)
            finally:
                elapsed = time.perf_counter() - start
                callee[span] += elapsed - (child[span] - covered)

        return (counted,) + tuple(args[1:])

    def _count_elements(self, args, kwargs):
        p = args[0]
        self.counts["kernel.normal_quantile.elements"] += getattr(p, "size", 1)
        return args

    def _record_dropout(self, args, kwargs):
        group, reward = args[0], args[1]
        self.dropout_inputs.add((group.cost, group.sigma, reward))
        return args

    def _count_samples(self, position: int):
        # The CLI passes the sample count positionally: fifth argument of
        # mc_selection_probability, fourth of mc_selection_quality.
        def hook(args, kwargs):
            self.counts["mc.samples"] += int(args[position])
            return args

        return hook

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "kernel.find_root": self._count_fevals,
            "kernel.normal_quantile": self._count_elements,
            "best_response.dropout_threshold": self._record_dropout,
            "mc.mc_selection_probability": self._count_samples(4),
            "mc.mc_selection_quality": self._count_samples(3),
        }
        modules = [m for n, m in list(sys.modules.items())
                   if n == "stratselect" or n.startswith("stratselect.")]
        for module_name, attr in SPANS + COUNTS:
            label = f"{module_name}.{attr}"
            original = getattr(sys.modules[f"stratselect.{module_name}"], attr)
            if (module_name, attr) in SPANS:
                wrapper = self._span(label, original, hooks.get(label))
            else:
                wrapper = self._counted(label, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    # -- reporting --------------------------------------------------------

    def layer_totals(self) -> tuple[Counter, Counter, Counter, Counter]:
        """Per-name call counts, self seconds and inclusive seconds (spans
        nested in a span of the same name are not added twice), and the
        number of ``best_response`` calls made below each of
        ``solve_unconstrained`` and ``dynamics.run``."""
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        total_s: Counter[str] = Counter()
        br_under: Counter[str] = Counter()
        labels = [self.names[n] for n in self.name]
        ancestors: list[int] = []  # open spans enclosing span i, outermost first
        open_labels: Counter[str] = Counter()
        for i, label in enumerate(labels):
            parent = self.parent[i]
            while ancestors and ancestors[-1] != parent:
                open_labels[labels[ancestors.pop()]] -= 1
            duration = self.end[i] - self.start[i]
            calls[label] += 1
            self_s[label] += duration - self.child[i] - self.callee[i]
            if parent >= 0:
                self_s[labels[parent]] += self.callee[i]
            if not open_labels[label]:
                total_s[label] += duration
            if label == "best_response.best_response":
                for owner in ("equilibrium.solve_unconstrained", "dynamics.run"):
                    if open_labels[owner]:
                        br_under[owner] += 1
            ancestors.append(i)
            open_labels[label] += 1
        return calls, self_s, total_s, br_under

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "parent", "start", "end"],
                "names": self.names,
                "spans": [
                    [self.name[i], self.parent[i], self.start[i], self.end[i]]
                    for i in range(len(self.start))
                ],
            }, fh, separators=(",", ":"))
