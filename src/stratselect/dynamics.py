"""Best-response and fictitious-play dynamics of the selection game.

Updates are synchronous: at each step the whole population switches to a
best response, either against the current threshold (``br`` mode) or against
the running average of all past thresholds (``fp`` mode, which averages the
scalar threshold because payoffs depend on opponents only through it).  So a
run watches one quantity of its states, the threshold in ``br`` and the
belief in ``fp``: each step best-responds to it, a run converges once its
change stays within ``tol``, and a converged run reports it.  The
threshold of a state is always the one induced by its strategies, i.e. the
(1 - alpha)-quantile of the decision-statistic mixture, found by Newton's
method on the mixture CDF (:func:`stratselect.equilibrium.mixture_quantile`).
A threshold within a payoff tie of a dropout
(``best_response.PAYOFF_TIE_REL``), not only exactly on it, is resolved as a
50/50 split between the two tied best responses.  A step passes each
group's best response on as one support tuple, ``((m, 1.0),)`` or ``((lo,
0.5), (hi, 0.5))``: the same tuples go to ``mixture_quantile`` and, wrapped
with no re-validation, into the state's strategies, since a curve's efforts
are floats ``>= 0`` and these weights sum to exactly 1, so validation could
not fail and would rebuild the same tuples.  :func:`run` is the one entry
point.  It plays the :class:`~stratselect.equilibrium.Game` it is handed, on
that game's resolved groups, its curves at its reward and its alpha, so a
run checks and resolves nothing again.  Its cycle check keeps, for each
period, the run of trailing thresholds that repeat the one a period back
within ``CYCLE_TOL``.  A step extends them by one comparison per period, or
drops all when no threshold 2 to 50 back is within ``2 * CYCLE_TOL``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Literal, Sequence

from .best_response import ResponseCurve
from .equilibrium import Game, mixture_quantile
from .model import EffortDistribution, GroupView

__all__ = [
    "DynamicsState",
    "Convergence",
    "DynamicsTrace",
    "induced_threshold",
    "run",
]

MAX_CYCLE_PERIOD = 50
CYCLE_TOL = 1e-7
# A repeating window only counts as a cycle with this much swing; anything
# smaller is a still-contracting sequence and should run to convergence.
CYCLE_MIN_AMPLITUDE = 1e-6
CONVERGED_STEPS = 10


@dataclass(frozen=True, slots=True)
class DynamicsState:
    """Population snapshot: one strategy per group (in config order), the
    threshold they induce, the step index, and in fictitious play the belief
    (mean of all thresholds seen so far, this one included)."""

    strategies: tuple[EffortDistribution, ...]
    theta: float
    t: int
    belief: float | None = None


@dataclass(frozen=True)
class Convergence:
    status: Literal["converged", "cycle", "max_steps_reached"]
    theta: float | None = None
    period: int | None = None


@dataclass(frozen=True)
class DynamicsTrace:
    states: tuple[DynamicsState, ...]
    convergence: Convergence
    # Per-group mean effort over the final detected period (cycle runs only).
    cycle_avg_effort: tuple[float, ...] | None = None


def induced_threshold(strategies: Sequence[EffortDistribution], game: Game) -> float:
    """The (1 - alpha)-quantile of the decision-statistic mixture of ``game``."""
    views = game.views
    if len(strategies) != len(views):
        raise ValueError("need one strategy per group")
    return mixture_quantile([s.support for s in strategies], views, game.config.alpha)


def _step(
    theta: float,
    t: int,
    views: Sequence[GroupView],
    curves: Sequence[ResponseCurve],
    alpha: float,
    n: int = 0,
) -> DynamicsState:
    """Every group best-responds to ``theta`` on its curve, the threshold they
    induce is found and, in fictitious play, joins the belief ``theta`` of
    ``n`` thresholds.  Twins share a curve, which is solved once."""
    by_curve = {}
    for curve in curves:
        if curve not in by_curve:
            brs = curve.best_response(theta)
            by_curve[curve] = (
                ((brs[0], 0.5), (brs[1], 0.5)) if len(brs) == 2 else ((brs[0], 1.0),)
            )
    supports = [by_curve[curve] for curve in curves]
    new = mixture_quantile(supports, views, alpha)
    strategies = tuple(map(EffortDistribution._of_solved_support, supports))
    belief = (theta * n + new) / (n + 1) if n else None
    return DynamicsState(strategies, new, t + 1, belief)


class _CycleDetector:
    """The cycle check of :func:`run` on the thresholds pushed so far.

    ``runs[p]`` counts the trailing thresholds within CYCLE_TOL of the one
    ``p`` steps back, for each period whose newest pair is; period ``p``
    repeats three times at the tail when its run reaches ``2 p``.  A push
    compares the new threshold once per period that has a pair and extends
    or drops the run, so no pair is compared twice.

    ``window`` holds the thresholds 2 to ``min(MAX_CYCLE_PERIOD, n - 1)`` steps
    back, sorted.  Rounding is monotone, so a pair within CYCLE_TOL lies in the
    rounded band ``theta ± 2 CYCLE_TOL`` (``theta`` alone where an ulp exceeds
    it): a push with an empty band has none.  ``find_root`` raises on NaN, so
    thresholds are finite and their order total.
    """

    def __init__(self, theta0: float) -> None:
        self.thetas = [theta0]
        self.runs: dict[int, int] = {}
        self.window: list[float] = []

    def push(self, theta: float) -> int | None:
        """Append ``theta``; the smallest period p <= MAX_CYCLE_PERIOD
        repeated 3 times at the tail whose last ``p`` thresholds swing by
        CYCLE_MIN_AMPLITUDE, if any."""
        thetas, runs, window = self.thetas, self.runs, self.window
        thetas.append(theta)
        n = len(thetas)
        if n > 2:
            insort(window, thetas[-3])
            if n > MAX_CYCLE_PERIOD + 1:
                del window[bisect_left(window, thetas[-2 - MAX_CYCLE_PERIOD])]
        i = bisect_left(window, theta - 2 * CYCLE_TOL)
        if i == len(window) or window[i] > theta + 2 * CYCLE_TOL:
            self.runs = {}
            return None
        # back[p - 2] is the threshold p steps before theta, for every
        # period with a pair.
        back = thetas[-3:-2 - min(MAX_CYCLE_PERIOD, n - 1):-1]
        self.runs = runs = {
            p: runs.get(p, 0) + 1
            for p, old in enumerate(back, 2)
            if not abs(theta - old) > CYCLE_TOL
        }
        # The windows thetas[-p:] grow with p, so one running range covers them.
        lo = hi = theta
        seen = 1
        for p, run in runs.items():
            if run >= 2 * p:
                extra = thetas[-p:-seen]
                lo, hi, seen = min(lo, *extra), max(hi, *extra), p
                if hi - lo >= CYCLE_MIN_AMPLITUDE:
                    return p
        return None


def run(
    game: Game,
    mode: Literal["br", "fp"] = "br",
    max_steps: int = 1000,
    init: Sequence[EffortDistribution] | None = None,
    tol: float = 1e-9,
) -> DynamicsTrace:
    """Iterate the chosen dynamic of ``game`` from ``init`` (zero effort by
    default), on the game's groups, curves and alpha.

    Stops early on convergence (threshold change below ``tol`` for 10
    consecutive steps; in ``fp`` mode the belief change, since the raw
    threshold may keep alternating around a mixing equilibrium) or when the
    threshold sequence locks into a cycle of period at most 50, repeated
    three times within 1e-7.  ``init`` needs one strategy per group, or
    :func:`induced_threshold` raises ValueError before any curve is built.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    if not 0.0 <= tol < float("inf"):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    if mode not in ("br", "fp"):
        raise ValueError(f"unknown mode {mode!r}")
    views, alpha = game.views, game.config.alpha
    if init is None:
        init = [EffortDistribution.point(0.0) for _ in views]
    init = tuple(init)
    theta0 = induced_threshold(init, game)
    curves = game.curves()
    fp = mode == "fp"
    state = DynamicsState(
        strategies=init,
        theta=theta0,
        t=0,
        belief=theta0 if fp else None,
    )
    watched = attrgetter("belief" if fp else "theta")
    states = [state]
    cycles = _CycleDetector(theta0)
    quiet = 0

    for _ in range(max_steps):
        # Only an fp step (n > 0) folds the thresholds so far into a belief.
        new = _step(watched(state), state.t, views, curves, alpha, fp * len(states))
        quiet = quiet + 1 if abs(watched(new) - watched(state)) <= tol else 0
        states.append(new)
        state = new
        if quiet >= CONVERGED_STEPS:
            return DynamicsTrace(
                states=tuple(states),
                convergence=Convergence(status="converged", theta=watched(state)),
            )
        period = cycles.push(new.theta)
        if period is not None:
            window = states[-period:]
            averages = tuple(
                sum(s.strategies[i].mean() for s in window) / period
                for i in range(len(views))
            )
            return DynamicsTrace(
                states=tuple(states),
                convergence=Convergence(status="cycle", period=period),
                cycle_avg_effort=averages,
            )

    return DynamicsTrace(
        states=tuple(states),
        convergence=Convergence(status="max_steps_reached"),
    )
