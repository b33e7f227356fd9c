"""Expected data persistency of replicated erasure codes.

A REC(p, p+q, r) scheme erasure-codes each document into p + q chunks
and stores r replicas of every chunk.  This package computes the
expected number of random node departures until the first document
becomes unrecoverable: exact finite sums, integral forms, closed Beta
expressions and asymptotics (analytic), seeded Monte Carlo (simulator),
exact rational baselines (oracle), and grid experiments with CSV/SVG
output (sweep).
"""

from .analytic import (
    DEFAULT_QUADRATURE_TOL,
    EXACT_METHOD,
    MIN_QUADRATURE_TOL,
    AnalyticResult,
    Method,
    expect,
    expect_many,
    expect_random_sum,
    max_over_p_check,
    survival_curve_random,
    survival_random,
)
from .errors import ParameterError, QuadratureError, SizeLimitError
from .model import (
    LossSemantics,
    PlacementStrategy,
    RecParams,
    SystemParams,
    default_semantics,
    is_document_lost,
    symmetric_power,
)
from .oracle import (
    brute_force_random,
    brute_force_symmetric,
    exact_symmetric_expectation,
    exact_symmetric_survival,
    group_polynomial,
    symmetric_survival_l_max,
)
from .selftest import CheckResult, run_selftest
from .simulator import (
    SimConfig,
    SimSummary,
    WorkloadClass,
    persistency,
    place_random,
    place_symmetric,
    simulate,
    simulate_many,
    simulate_trials,
)
from .specfun import (
    beta,
    beta_real,
    reg_inc_beta,
    reg_inc_beta_complement,
)
from .sweep import (
    PRESETS,
    SweepRow,
    SweepSpec,
    load_config,
    preset_spec,
    rows_to_csv,
    rows_to_svg,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ParameterError",
    "QuadratureError",
    "SizeLimitError",
    "RecParams",
    "SystemParams",
    "PlacementStrategy",
    "LossSemantics",
    "default_semantics",
    "is_document_lost",
    "symmetric_power",
    "beta",
    "beta_real",
    "reg_inc_beta",
    "reg_inc_beta_complement",
    "Method",
    "EXACT_METHOD",
    "AnalyticResult",
    "DEFAULT_QUADRATURE_TOL",
    "MIN_QUADRATURE_TOL",
    "survival_random",
    "survival_curve_random",
    "expect",
    "expect_many",
    "expect_random_sum",
    "max_over_p_check",
    "group_polynomial",
    "symmetric_survival_l_max",
    "exact_symmetric_survival",
    "exact_symmetric_expectation",
    "brute_force_symmetric",
    "brute_force_random",
    "SimConfig",
    "SimSummary",
    "WorkloadClass",
    "place_random",
    "place_symmetric",
    "persistency",
    "simulate",
    "simulate_many",
    "simulate_trials",
    "SweepSpec",
    "SweepRow",
    "PRESETS",
    "preset_spec",
    "load_config",
    "run_sweep",
    "rows_to_csv",
    "rows_to_svg",
    "CheckResult",
    "run_selftest",
]
