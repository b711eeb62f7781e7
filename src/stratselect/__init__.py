"""Selection contests with strategic candidates: equilibria, fairness
metrics and dynamics, on the standard library.  The Monte Carlo oracles that
validate them need numpy and scipy; import them from ``stratselect.mc``."""

from .best_response import (
    DropoutInfo,
    ResponseCurve,
    StationaryPoints,
    SubcriticalReward,
    best_response,
    critical_reward,
    dropout_threshold,
    payoff,
    stationary_points,
)
from .dynamics import DynamicsState, DynamicsTrace, induced_threshold
from .dynamics import run as run_dynamics
from .equilibrium import (
    Game,
    SolverError,
    solve_demographic_parity,
    solve_unconstrained,
    solver_bracket,
)
from .kernel import (
    DomainError,
    NoBracket,
    NoConvergence,
    find_root,
    lambert_w,
    normal_cdf,
    normal_pdf,
    normal_quantile,
)
from .metrics import (
    AmbiguousRegime,
    AsymptoticPrediction,
    DegenerateVariance,
    NotTwoGroups,
    SmallSCrossings,
    SubcriticalityViolated,
    asymptotic_predictions,
    selection_quality,
    selection_rate,
    small_s_crossings,
)
from .model import (
    EffortDistribution,
    EquilibriumReport,
    GameConfig,
    GroupOutcome,
    GroupParams,
    GroupView,
    config_from_dict,
    config_hash,
    config_to_dict,
    correlation_coefficient,
    effective_groups,
    posterior_variance,
    validate,
)

__version__ = "0.1.0"
