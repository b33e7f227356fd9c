"""Expected persistency of REC(p, p+q, r): exact, integral, and asymptotic forms.

Persistency X is the number of uniformly random node departures (without
repair) at which some document first becomes unrecoverable; all formulas
here compute or approximate E[X] = sum_{l>=0} Pr[X > l].

Random placement (fragments dropped on nodes i.i.d. uniformly, collisions
allowed) is analyzed under MULTISET semantics.  After l of N departures a
single multiset is fully erased with probability (l/N)^r, so

    Pr[X > l] = (1 - I_{(l/N)^r}(q+1, p))^D,

which is summed exactly, integrated with an additive error bound of 1, or
replaced by its large-D power law.  Symmetric (round-robin) placement is
analyzed under PER_CLUSTER semantics; when (p+q)*r divides N and every
group of (p+q)*r consecutive nodes carries documents, the expectation has
the exact D-independent integral

    E[X] = (N+1) * integral_0^1 (1 - I_x(q+1, p)^r)^(N/((p+q)r)) dx.

Quadrature runs in the substituted variable u = x^(r(q+1)), which turns the
integrand's boundary layer at 0 into a plain exponential scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from itertools import chain

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import ParameterError, QuadratureError
from .model import (
    PlacementStrategy,
    RecParams,
    SystemParams,
    require_symmetric_preconditions,
)
from .specfun import beta_real, log_reg_inc_beta_complement

__all__ = [
    "Method",
    "EXACT_METHOD",
    "AnalyticResult",
    "SurvivalCurve",
    "survival_random",
    "survival_curve_random",
    "expect_random_sum",
    "expect_random_integral",
    "expect_random_asymptotic",
    "expect_random_p1_beta",
    "expect_symmetric_integral",
    "expect_symmetric_asymptotic",
    "expect_symmetric_p1_beta",
    "expect",
    "max_over_p_check",
    "symmetric_survival_l_max",
    "DEFAULT_QUADRATURE_TOL",
]

_NEG_INF = float("-inf")

DEFAULT_QUADRATURE_TOL = 1e-10


class Method(Enum):
    """A route to E[X]; the values are the CLI's --method names."""

    EXACT_SUM = "sum"
    INTEGRAL = "integral"
    ASYMPTOTIC = "asymptotic"
    BETA_EXACT = "beta-exact"


# the route that gives each strategy's E[X] exactly
EXACT_METHOD = {
    PlacementStrategy.RANDOM: Method.EXACT_SUM,
    PlacementStrategy.SYMMETRIC: Method.INTEGRAL,
}


@dataclass(frozen=True)
class AnalyticResult:
    """A computed expectation plus how it was obtained.

    error_bound is the additive guarantee relative to the exact value:
    0.0 for exact methods, 1.0 where the integral or closed Beta form is
    exact only up to |ER| <= 1, None for asymptotics (no finite-size bound).
    quadrature_tolerance echoes the relative tolerance used, when quadrature
    was involved.
    """

    value: float
    method: Method
    error_bound: float | None
    quadrature_tolerance: float | None = None


@dataclass(frozen=True)
class SurvivalCurve:
    """Pr[X > l] for l = 0 .. l_max, nonincreasing, starting at 1."""

    probabilities: tuple[float, ...]

    @property
    def l_max(self) -> int:
        return len(self.probabilities) - 1

    @property
    def expected_value(self) -> float:
        return math.fsum(self.probabilities)


# l values per kernel call of the random survival sum: large enough that
# numpy's per-call overhead is small, small enough that a large-D sum,
# which reaches 0.0 within a few thousand l, stops after one block
_SURVIVAL_BLOCK = 4096


def _survival_random(l: np.ndarray, rec: RecParams, system: SystemParams) -> np.ndarray:
    x = (l / system.nodes) ** rec.r
    log_c = log_reg_inc_beta_complement(x, rec.q + 1, rec.p)
    return np.exp(system.docs * log_c)


def _survival_random_blocks(rec: RecParams, system: SystemParams):
    """Pr[X > l] in blocks of l from 0, through the first block that ends in 0.0.

    The curve is nonincreasing, so every later term is an exact 0.0 too.
    """
    for start in range(0, system.nodes + 1, _SURVIVAL_BLOCK):
        l = np.arange(start, min(start + _SURVIVAL_BLOCK, system.nodes + 1))
        block = _survival_random(l, rec, system).tolist()
        yield block
        if block[-1] == 0.0:
            return


def survival_random(l: int, rec: RecParams, system: SystemParams) -> float:
    """Pr[X > l] under random placement, MULTISET semantics."""
    if not 0 <= l <= system.nodes:
        raise ParameterError(f"l must lie in [0, nodes], got {l}")
    return float(_survival_random(np.array([l]), rec, system)[0])


def survival_curve_random(rec: RecParams, system: SystemParams) -> SurvivalCurve:
    """The whole survival curve l = 0 .. N; its sum is the exact E[X]."""
    head = tuple(chain.from_iterable(_survival_random_blocks(rec, system)))
    return SurvivalCurve(head + (0.0,) * (system.nodes + 1 - len(head)))


def expect_random_sum(rec: RecParams, system: SystemParams) -> AnalyticResult:
    """E[X] under random placement as the full N+1 term survival sum.

    Exact up to floating-point rounding: the terms after the last
    evaluated block are exact zeros.
    """
    value = math.fsum(chain.from_iterable(_survival_random_blocks(rec, system)))
    return AnalyticResult(value, Method.EXACT_SUM, error_bound=0.0)


def _tail_order(rec: RecParams) -> int:
    # r(q+1): a document needs q+1 multisets gone, each of r replicas.
    return rec.r * (rec.q + 1)


def _survival_integral(base_log, power: int, s: int, peak_u: float, tol: float) -> float:
    """integral_0^1 exp(power * base_log(x)) dx via the substitution u = x^s.

    base_log must be 0 at x=0 and decrease to -inf at x=1.  peak_u is the
    u-scale where the integrand has decayed by ~e, used as a breakpoint
    hint for the adaptive rule.
    """
    inv_s = 1.0 / s
    log_s = math.log(s)

    def integrand(u: float) -> float:
        if u <= 0.0:
            return 0.0
        lf = power * base_log(u**inv_s)
        if lf == _NEG_INF:
            return 0.0
        return math.exp(lf + (inv_s - 1.0) * math.log(u) - log_s)

    points = None
    if peak_u < 0.25:
        points = []
        v = max(peak_u, 1e-280)
        while v < 0.25:
            points.append(v)
            v *= 10.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        value, abserr = quad(
            integrand, 0.0, 1.0, epsabs=0.0, epsrel=tol, limit=250, points=points
        )
    if any(issubclass(w.category, IntegrationWarning) for w in caught):
        achieved = abserr / max(abs(value), 1e-300)
        if achieved > tol:
            raise QuadratureError(achieved, tol)
    return value


def _random_base_log(rec: RecParams):
    a, b, r = rec.q + 1, rec.p, rec.r

    def base_log(x: float) -> float:
        return log_reg_inc_beta_complement(x**r, a, b)

    return base_log


def expect_random_integral(
    rec: RecParams, system: SystemParams, tol: float = DEFAULT_QUADRATURE_TOL
) -> AnalyticResult:
    """E[X] under random placement as N * integral of the survival function.

    Carries the additive guarantee |exact sum - value| <= 1 + N*tol.
    """
    s = _tail_order(rec)
    peak_u = 1.0 / (math.comb(rec.p + rec.q, rec.q + 1) * system.docs)
    integral = _survival_integral(
        _random_base_log(rec), system.docs, s, peak_u, tol
    )
    return AnalyticResult(
        system.nodes * integral,
        Method.INTEGRAL,
        error_bound=1.0,
        quadrature_tolerance=tol,
    )


def expect_random_asymptotic(rec: RecParams, system: SystemParams) -> AnalyticResult:
    """Leading-order E[X] for random placement as D grows.

    Gamma(1 + 1/(r(q+1))) / C(p+q, q+1)^(1/(r(q+1))) * N * D^(-1/(r(q+1))).
    """
    s = _tail_order(rec)
    value = (
        math.gamma(1.0 + 1.0 / s)
        / math.comb(rec.p + rec.q, rec.q + 1) ** (1.0 / s)
        * system.nodes
        * system.docs ** (-1.0 / s)
    )
    return AnalyticResult(value, Method.ASYMPTOTIC, error_bound=None)


def expect_random_p1_beta(q: int, r: int, system: SystemParams) -> AnalyticResult:
    """Closed Beta form for p = 1 under random placement.

    N/(r(q+1)) * Beta(D+1, 1/(r(q+1))), exact up to |ER| <= 1.
    """
    rec = RecParams(1, q, r)
    s = _tail_order(rec)
    value = system.nodes / s * beta_real(system.docs + 1, 1.0 / s)
    return AnalyticResult(value, Method.BETA_EXACT, error_bound=1.0)


def _symmetric_base_log(rec: RecParams):
    a, b, r = rec.q + 1, rec.p, rec.r

    def base_log(x: float) -> float:
        # ln(1 - I_x(q+1, p)^r), kept stable at both ends.
        lc = log_reg_inc_beta_complement(x, a, b)
        if lc == 0.0:
            return 0.0
        if lc == _NEG_INF:
            return _NEG_INF
        log_i = math.log(-math.expm1(lc))
        return math.log(-math.expm1(r * log_i))

    return base_log


def expect_symmetric_integral(
    rec: RecParams, system: SystemParams, tol: float = DEFAULT_QUADRATURE_TOL
) -> AnalyticResult:
    """Exact E[X] under symmetric placement, PER_CLUSTER semantics.

    (N+1) * integral_0^1 (1 - I_x(q+1, p)^r)^(N/((p+q)r)) dx, requiring
    (p+q)*r | N and D >= N/((p+q)*r).  The document count plays no further
    role: the value is invariant across all valid D.
    """
    require_symmetric_preconditions(rec, system)
    g = rec.fragments
    groups = system.nodes // g
    s = _tail_order(rec)
    peak_u = 1.0 / (groups * math.comb(rec.p + rec.q, rec.q + 1) ** rec.r)
    integral = _survival_integral(_symmetric_base_log(rec), groups, s, peak_u, tol)
    return AnalyticResult(
        (system.nodes + 1) * integral,
        Method.INTEGRAL,
        error_bound=0.0,
        quadrature_tolerance=tol,
    )


def expect_symmetric_asymptotic(rec: RecParams, system: SystemParams) -> AnalyticResult:
    """Leading-order E[X] for symmetric placement as N grows.

    Gamma(1 + 1/(r(q+1))) * ((p+q)r)^(1/(r(q+1)))
    / C(p+q, q+1)^(1/(q+1)) * N^(1 - 1/(r(q+1))).
    """
    s = _tail_order(rec)
    value = (
        math.gamma(1.0 + 1.0 / s)
        * rec.fragments ** (1.0 / s)
        / math.comb(rec.p + rec.q, rec.q + 1) ** (1.0 / (rec.q + 1))
        * system.nodes ** (1.0 - 1.0 / s)
    )
    return AnalyticResult(value, Method.ASYMPTOTIC, error_bound=None)


def expect_symmetric_p1_beta(q: int, r: int, system: SystemParams) -> AnalyticResult:
    """Closed Beta form for p = 1 under symmetric placement, exact.

    (N+1)/(r(q+1)) * Beta(N/(r(q+1)) + 1, 1/(r(q+1))).
    """
    rec = RecParams(1, q, r)
    require_symmetric_preconditions(rec, system)
    s = _tail_order(rec)
    value = (system.nodes + 1) / s * beta_real(system.nodes / s + 1.0, 1.0 / s)
    return AnalyticResult(value, Method.BETA_EXACT, error_bound=0.0)


def expect(
    strategy: PlacementStrategy,
    rec: RecParams,
    system: SystemParams,
    method: Method,
    tol: float = DEFAULT_QUADRATURE_TOL,
) -> AnalyticResult:
    """E[X] for one strategy by one method; the single table of routes.

    beta-exact requires p = 1, and sum exists for random placement only.
    Formulas are called by their module names, so wrapping one of them
    (as a tracer does) is seen here.
    """
    if not isinstance(strategy, PlacementStrategy) or not isinstance(method, Method):
        raise ParameterError(
            f"expect needs a PlacementStrategy and a Method, "
            f"got {strategy!r} and {method!r}"
        )
    match strategy, method:
        case _, Method.BETA_EXACT if rec.p != 1:
            raise ParameterError(
                f"{strategy.value} beta-exact requires p = 1, got p = {rec.p}"
            )
        case PlacementStrategy.RANDOM, Method.EXACT_SUM:
            return expect_random_sum(rec, system)
        case PlacementStrategy.RANDOM, Method.INTEGRAL:
            return expect_random_integral(rec, system, tol)
        case PlacementStrategy.RANDOM, Method.ASYMPTOTIC:
            return expect_random_asymptotic(rec, system)
        case PlacementStrategy.RANDOM, Method.BETA_EXACT:
            return expect_random_p1_beta(rec.q, rec.r, system)
        case PlacementStrategy.SYMMETRIC, Method.INTEGRAL:
            return expect_symmetric_integral(rec, system, tol)
        case PlacementStrategy.SYMMETRIC, Method.ASYMPTOTIC:
            return expect_symmetric_asymptotic(rec, system)
        case PlacementStrategy.SYMMETRIC, Method.BETA_EXACT:
            return expect_symmetric_p1_beta(rec.q, rec.r, system)
    raise ParameterError(f"{strategy.value} placement has no {method.value} route")


def symmetric_survival_l_max(rec: RecParams, nodes: int) -> int:
    """Length bound for the symmetric survival curve.

    Pr[X > l] = 0 once l >= N*((r-1)(p+q)+q)/((p+q)r) + 1: a surviving group
    keeps at least p fragments, one per multiset it can still decode from,
    and (r-1)(p+q)+q = (p+q)r - p erasures per group is attainable.
    """
    g = rec.fragments
    if nodes % g != 0:
        raise ParameterError(f"(p+q)*r = {g} does not divide nodes = {nodes}")
    return nodes * (g - rec.p) // g + 1


def max_over_p_check(q: int, r: int, system: SystemParams, p_max: int) -> bool:
    """True iff E[X] is nonincreasing in p over 1..p_max at fixed q, r.

    Scans the exact route of each strategy (EXACT_METHOD); every p must
    satisfy the symmetric preconditions.
    """
    if p_max < 1:
        raise ParameterError(f"p_max must be >= 1, got {p_max}")
    for strategy, method in EXACT_METHOD.items():
        values = [
            expect(strategy, RecParams(p, q, r), system, method).value
            for p in range(1, p_max + 1)
        ]
        for lo, hi in zip(values[1:], values):
            if lo > hi + 1e-9 * max(1.0, abs(hi)):
                return False
    return True
