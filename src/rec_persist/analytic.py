"""Expected persistency of REC(p, p+q, r): exact, integral, and asymptotic forms.

Persistency X is the number of uniformly random node departures (without
repair) at which some document first becomes unrecoverable; all formulas
here compute or approximate E[X] = sum_{l>=0} Pr[X > l].

Every form is built from two functions of the loss rule and one scale of
the placement strategy.  phi(x) is the probability that one document
survives when each node is erased independently with probability x:

    MULTISET:     phi(x) = 1 - I_{x^r}(q+1, p)
    PER_CLUSTER:  phi(x) = 1 - I_x(q+1, p)^r

and kappa, C(p+q, q+1) or C(p+q, q+1)^r, is the leading coefficient of
1 - phi(x) ~ kappa x^s, s = r(q+1); both follow from the rule's
model.loss_thresholds.  The strategy sets the scale
(prefactor, power, bound) in E[X] = prefactor * integral_0^1 phi^power dx:
random placement (fragments on i.i.d. uniform nodes) has Pr[X > l] =
phi(l/N)^D, so (N, D, 1) with an additive bound of 1 against the exact
survival sum; symmetric (round-robin) placement, when g = (p+q)*r divides
N and every group of g consecutive nodes carries documents, is exactly
(N+1, N/g, 0), whatever D.  The asymptotic form is
Gamma(1+1/s) N (kappa power)^(-1/s), and at p = 1, where phi = 1 - x^s
under both rules, the integral is prefactor/s * Beta(power+1, 1/s).

Quadrature runs in t = -ln x, where the survival function's drop near
x = 0 becomes a smooth step of width about 1/s and the integrand
F(e^-t) e^-t has no endpoint singularity.  An adaptive Gauss-Kronrod 7/15
rule refines panels of [0, T] in rounds, one vectorised kernel call per
round, and stops when the summed |K15 - G7| estimates, plus a bound on
the part beyond T from the monotonicity of F, fall within the requested
relative tolerance; otherwise it raises QuadratureError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain

import numpy as np

from .errors import ParameterError, QuadratureError, require_int
from .model import (
    LossSemantics,
    PlacementStrategy,
    RecParams,
    SystemParams,
    default_semantics,
    loss_thresholds,
    require_symmetric_preconditions,
)
from .specfun import beta_real, log_reg_inc_beta_complement

__all__ = [
    "Method",
    "EXACT_METHOD",
    "AnalyticResult",
    "survival_random",
    "survival_curve_random",
    "expect_random_sum",
    "expect",
    "max_over_p_check",
    "DEFAULT_QUADRATURE_TOL",
    "MIN_QUADRATURE_TOL",
]

DEFAULT_QUADRATURE_TOL = 1e-10
# the smallest relative tolerance the integral routes accept; the rule
# reaches it on every integral of the benchmark's analytic grid
MIN_QUADRATURE_TOL = 1e-14


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
    When quadrature was involved, quadrature_tolerance echoes the relative
    tolerance requested, quadrature_error is the relative error estimate
    reached and quadrature_evals the number of integrand evaluations.
    sum_terms is the number of leading survival terms in an exact sum.
    """

    value: float
    method: Method
    error_bound: float | None
    quadrature_tolerance: float | None = None
    quadrature_error: float | None = None
    quadrature_evals: int | None = None
    sum_terms: int | None = None


def _tail(rec: RecParams, semantics: LossSemantics) -> tuple[int, int]:
    """(s, kappa) with 1 - phi(x) ~ kappa x^s: the likeliest losses hit
    lost_at units of the rule's loss_thresholds with hit_at erasures each."""
    units, length, hit_at, lost_at = loss_thresholds(rec, semantics)
    kappa = math.comb(units, lost_at) * math.comb(length, hit_at) ** lost_at
    return hit_at * lost_at, kappa


def _log_survival(x, rec: RecParams, semantics: LossSemantics):
    """ln phi(x) over an array of x: one document survives erasures i.i.d. at x.

    One level of each rule's loss_thresholds is a plain power, and each
    branch keeps relative precision through the other level's complement.
    """
    _, _, hit_at, lost_at = loss_thresholds(rec, semantics)
    if semantics is LossSemantics.MULTISET:
        # a multiset is hit with probability x^r
        return log_reg_inc_beta_complement(x**hit_at, lost_at, rec.p)
    # a cluster is hit with probability I = I_x(q+1, p), and all r must be:
    # ln(1 - I^r) = ln(1 - e^y) is log1p(-e^y) below y = -ln 2 and
    # ln(-expm1(y)) above (Maechler, 2012), so it keeps its relative
    # precision where I^r is tiny; the ends lc = 0 and lc = -inf run through
    # ln 0 = -inf to exactly 0 and -inf
    lc = log_reg_inc_beta_complement(x, hit_at, rec.p)
    with np.errstate(divide="ignore"):
        y = lost_at * np.log(-np.expm1(lc))
        small = y < -math.log(2.0)
        return np.where(small, np.log1p(-np.exp(y)), np.log(-np.expm1(y)))


# l values per kernel call of the random survival sum: large enough that
# numpy's per-call overhead is small, small enough that a large-D sum,
# which reaches 0.0 within a few thousand l, stops after one block
_SURVIVAL_BLOCK = 4096
# the survival sum tries to stop once the bound on its remaining terms is
# at most this share of the running sum, far below half an ulp of it
_TAIL_SHARE = 2.0**-60
# the smallest positive float
_SUBNORMAL = math.ldexp(1.0, -1074)


def _survival_random_terms(
    l: np.ndarray, rec: RecParams, system: SystemParams, semantics: LossSemantics
) -> np.ndarray:
    """Pr[X > l] = phi(l/N)^D under random placement, over an array of l."""
    return np.exp(system.docs * _log_survival(l / system.nodes, rec, semantics))


def _survival_random_blocks(
    rec: RecParams, system: SystemParams, semantics: LossSemantics
):
    """Pr[X > l] = phi(l/N)^D as arrays over blocks of l from 0, through
    the first block that ends in 0.0.

    The curve is nonincreasing, so every later term is an exact 0.0 too.
    """
    for start in range(0, system.nodes + 1, _SURVIVAL_BLOCK):
        l = np.arange(start, min(start + _SURVIVAL_BLOCK, system.nodes + 1))
        block = _survival_random_terms(l, rec, system, semantics)
        yield block
        if block[-1] == 0.0:
            return


def _fsum(blocks, *extra) -> float:
    # fed term by term through memoryviews of the blocks, so no list of
    # the terms is built
    return math.fsum(chain(chain.from_iterable(map(memoryview, blocks)), extra))


def _certified_sum(blocks, rest: float) -> float | None:
    """math.fsum of the blocks' terms when it provably equals their fsum with
    rest added, else None.

    blocks are 1-d float arrays and rest >= 0.  Two ExtractVector levels
    (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31(1), 2008) split off
    the n terms' leading bits: with m = 2^ceil(log2(n + 2)) and the power
    of two sigma >= m max|term|, hi = (sigma + low) - sigma and low - hi
    are exact, and so is the sum of the hi in any order, since each is a
    multiple of 2^-53 sigma and all of them add up to less than sigma.
    What is left has |low| <= 2^-53 sigma and is summed in plain floating
    point to within bound = 2 n 2^-53 sum|low|; the smallest subnormal on
    top covers the rounding of that product.  The exact sum then lies in
    [parts + approx - bound, parts + approx + bound], and with rest added
    the upper end only grows; when both ends round to the same float,
    rounding being monotone, fsum(terms) and fsum(terms, rest) are it.
    The blocks are split one at a time, so no copy of all terms is made.
    """
    n = sum(block.size for block in blocks)
    top = max((float(np.abs(block).max()) for block in blocks if block.size),
              default=0.0)
    if not top < 2.0**900:  # also nan; sigma must stay finite
        return None
    scale = (n + 1).bit_length()  # m = 2^scale >= n + 2
    first = math.ldexp(1.0, scale + math.frexp(top)[1])
    sigmas = (first, first * math.ldexp(1.0, scale - 53))
    parts = [0.0, 0.0]
    approx = residual = 0.0
    for block in blocks:
        low = block
        for level, sigma in enumerate(sigmas):
            hi = (sigma + low) - sigma
            low = low - hi
            parts[level] += float(hi.sum())
        approx += float(low.sum())
        residual += float(np.abs(low).sum())
    bound = math.ldexp(n, -52) * residual + _SUBNORMAL
    total = math.fsum((*parts, approx, -bound))
    if math.fsum((*parts, approx, bound, rest)) == total:
        return total
    return None


def _settled_sum(blocks, rest: float) -> float | None:
    """fsum of the blocks' terms if adding rest leaves it unchanged, else None.

    Certified in numpy where _certified_sum can decide it, by two fsum
    passes where it cannot (one when rest is 0).
    """
    total = _certified_sum(blocks, rest)
    if total is None:
        total = _fsum(blocks)
        if rest and _fsum(blocks, rest) != total:
            return None
    return total


def survival_random(
    l: int, rec: RecParams, system: SystemParams, semantics=LossSemantics.MULTISET
) -> float:
    """Pr[X > l] under random placement."""
    l = require_int(l, "l", 0)
    if l > system.nodes:
        raise ParameterError(f"l must lie in [0, nodes], got {l}")
    return float(_survival_random_terms(np.array([l]), rec, system, semantics)[0])


def survival_curve_random(
    rec: RecParams, system: SystemParams, semantics=LossSemantics.MULTISET
) -> tuple[float, ...]:
    """Pr[X > l] for l = 0 .. N under random placement, nonincreasing from 1.

    Its math.fsum is the exact E[X].
    """
    blocks = _survival_random_blocks(rec, system, semantics)
    head = tuple(chain.from_iterable(b.tolist() for b in blocks))
    return head + (0.0,) * (system.nodes + 1 - len(head))


def expect_random_sum(
    rec: RecParams, system: SystemParams, semantics=LossSemantics.MULTISET
) -> AnalyticResult:
    """E[X] under random placement as the N+1 term survival sum.

    The result is math.fsum of every term, rounded once, but it stops
    early.  After term l the N - l later terms add at most
    rest = 2 (N - l) Pr[X > l]: the curve is nonincreasing, and the factor
    2 covers the terms' own rounding (about 1e-12 relative, as
    |ln Pr| <= 745).  At the first l whose rest is at most 2^-60 of an
    approximate running sum, total = fsum(terms 0..l) is returned when
    fsum(terms 0..l, rest) rounds to total as well: the full sum lies
    between the two, and rounding is monotone.  Otherwise the sum goes on
    to the next block, and at worst through the first block that ends in
    0.0, after which every term is an exact zero.  sum_terms is the number
    of leading terms summed.

    Both roundings are settled by _certified_sum, a few numpy passes of
    error-free splitting that prove them equal without summing exactly;
    only when the sum lies too close to a rounding boundary for its
    bound (a few stops in a thousand) do two math.fsum passes decide.
    """
    kept = []
    count = 0
    running = 0.0
    for block in _survival_random_blocks(rec, system, semantics):
        kept.append(block)
        cumulative = running + np.cumsum(block)
        running = cumulative[-1]
        rest = 2.0 * (system.nodes - count - np.arange(block.size)) * block
        hits = np.flatnonzero(rest <= _TAIL_SHARE * cumulative)
        if hits.size:
            i = int(hits[0])
            total = _settled_sum(kept[:-1] + [block[: i + 1]], float(rest[i]))
            if total is not None:
                return AnalyticResult(
                    total, Method.EXACT_SUM, 0.0, sum_terms=count + i + 1
                )
        count += block.size
    total = _settled_sum(kept, 0.0)
    return AnalyticResult(total, Method.EXACT_SUM, 0.0, sum_terms=count)


# Gauss-Kronrod 7/15 pair on [-1, 1] (Piessens et al., QUADPACK, 1983): the
# Kronrod nodes from the edge in to the centre, their weights, and the
# 7-point Gauss weights, which sit on every second node
_KRONROD_NODES = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_KRONROD_WEIGHTS = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_GAUSS_WEIGHTS = (
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327,
)
_GK_NODES = np.concatenate((-np.array(_KRONROD_NODES), _KRONROD_NODES[-2::-1]))
_GK_KRONROD = np.concatenate((_KRONROD_WEIGHTS, _KRONROD_WEIGHTS[-2::-1]))
_GK_GAUSS = np.concatenate((_GAUSS_WEIGHTS, _GAUSS_WEIGHTS[-2::-1]))

# the survival function is within e^-40 of 1 beyond t0 + _TAIL_SPAN / s
_TAIL_SPAN = 40.0
# first panel edges, in units of the drop's width 1/s around t0
_FIRST_EDGES = np.array([-4.5, -3.0, -2.0, -1.0, 0.0, 1.5, 4.0, 8.0, 14.0, 24.0])
# more panels than this and the rule gives up
_MAX_PANELS = 500


def _survival_integral(
    base_log, power: int, t0: float, s: int, tol: float
) -> tuple[float, float, int]:
    """integral_0^1 F(x) dx for F = exp(power * base_log), on t = -ln x.

    base_log(t) is evaluated on arrays of t >= 0 at x = e^-t.  F must fall
    from 1 at x = 0 to 0 at x = 1 without increasing; its drop sits near
    t = t0 and is about 1/s wide.  On the t-scale the integrand
    F(e^-t) e^-t is smooth, and adaptive G7/K15 panels cover [0, T] with
    T = t0 + 40/s; each round evaluates every new panel in one base_log
    call.  A panel's error estimate is |K15 - G7|.  Over x < e^-T, F lies
    between F(e^-T) and 1, so that part is taken as the midpoint of
    [e^-T F(e^-T), e^-T] and half the interval joins the estimate.  The
    rule stops once the summed estimates are within tol * |value|.

    Returns (value, achieved relative error estimate, evaluations).
    """
    if not MIN_QUADRATURE_TOL <= tol < 1.0:  # also rejects nan
        raise ParameterError(
            f"tol must lie in [{MIN_QUADRATURE_TOL:g}, 1), got {tol!r}"
        )
    end = t0 + _TAIL_SPAN / s
    edge = math.exp(-end)
    inner = t0 + _FIRST_EDGES / s
    edges = np.concatenate(([0.0], inner[inner > 0.0], [end]))
    lo, hi, values, errors = (np.empty(0),) * 4
    new_lo, new_hi = edges[:-1], edges[1:]
    evals = 0
    while True:
        half = (new_hi - new_lo) / 2
        t = ((new_lo + half)[:, None] + half[:, None] * _GK_NODES).ravel()
        # the tail's edge T rides along with the nodes
        log_f = power * base_log(np.append(t, end))
        evals += log_f.size
        drop = -math.expm1(log_f[-1])  # 1 - F(e^-T)
        f = np.exp(log_f[:-1] - t).reshape(half.size, -1)
        kronrod = half * (f @ _GK_KRONROD)
        lo, hi = np.concatenate((lo, new_lo)), np.concatenate((hi, new_hi))
        values = np.concatenate((values, kronrod))
        errors = np.concatenate((errors, np.abs(kronrod - half * (f @ _GK_GAUSS))))
        value = math.fsum(values) + edge * (1.0 - drop / 2)
        error = math.fsum(errors) + edge * drop / 2
        if error <= tol * value:
            return value, error / value, evals
        # bisect every panel over its share of the budget, and the worst one
        split = errors >= min(errors.max(), tol * value / errors.size)
        if errors.size + np.count_nonzero(split) > _MAX_PANELS:
            raise QuadratureError(error / value, tol)
        mid = (lo[split] + hi[split]) / 2
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        lo, hi, values, errors = lo[~split], hi[~split], values[~split], errors[~split]


def _scale(
    strategy: PlacementStrategy, rec: RecParams, system: SystemParams
) -> tuple[int, int, float]:
    """(prefactor, power, bound): E[X] = prefactor * integral_0^1 phi^power,
    to within the additive bound."""
    if strategy is PlacementStrategy.RANDOM:
        return system.nodes, system.docs, 1.0
    require_symmetric_preconditions(rec, system)
    return system.nodes + 1, system.nodes // rec.fragments, 0.0


def _expect_integral(
    strategy: PlacementStrategy, rec: RecParams, system: SystemParams,
    semantics: LossSemantics, tol: float,
) -> AnalyticResult:
    prefactor, power, bound = _scale(strategy, rec, system)
    s, kappa = _tail(rec, semantics)
    # 1 - phi^power ~ power kappa x^s for small x
    t0 = math.log(power * kappa) / s
    integral, achieved, evals = _survival_integral(
        lambda t: _log_survival(np.exp(-t), rec, semantics), power, t0, s, tol
    )
    return AnalyticResult(
        prefactor * integral, Method.INTEGRAL, bound, tol, achieved, evals
    )


def _expect_asymptotic(
    strategy: PlacementStrategy, rec: RecParams, system: SystemParams,
    semantics: LossSemantics,
) -> AnalyticResult:
    # power is taken as a real N/g without the symmetric preconditions, so
    # the leading term is defined at every N
    s, kappa = _tail(rec, semantics)
    if strategy is PlacementStrategy.RANDOM:
        power = system.docs
    else:
        power = system.nodes / rec.fragments
    value = math.gamma(1.0 + 1.0 / s) * system.nodes * (kappa * power) ** (-1.0 / s)
    return AnalyticResult(value, Method.ASYMPTOTIC, error_bound=None)


def _expect_beta_exact(
    strategy: PlacementStrategy, rec: RecParams, system: SystemParams,
    semantics: LossSemantics,
) -> AnalyticResult:
    # at p = 1, phi = 1 - x^s under both rules
    prefactor, power, bound = _scale(strategy, rec, system)
    s, _ = _tail(rec, semantics)
    value = prefactor / s * beta_real(power + 1, 1.0 / s)
    return AnalyticResult(value, Method.BETA_EXACT, error_bound=bound)


def expect(
    strategy: PlacementStrategy,
    rec: RecParams,
    system: SystemParams,
    method: Method,
    tol: float = DEFAULT_QUADRATURE_TOL,
    semantics: LossSemantics | None = None,
) -> AnalyticResult:
    """E[X] for one strategy and loss rule by one method; the one route table.

    semantics None takes the strategy's default_semantics.  beta-exact
    requires p = 1, and sum exists for random placement only.  Routes are
    called by their module names, so wrapping one of them (as a tracer
    does) is seen here.
    """
    if not isinstance(strategy, PlacementStrategy) or not isinstance(method, Method):
        raise ParameterError(
            f"expect needs a PlacementStrategy and a Method, "
            f"got {strategy!r} and {method!r}"
        )
    if semantics is None:
        semantics = default_semantics(strategy)
    elif not isinstance(semantics, LossSemantics):
        raise ParameterError(f"expect needs a LossSemantics, got {semantics!r}")
    match method:
        case Method.BETA_EXACT if rec.p != 1:
            raise ParameterError(
                f"{strategy.value} beta-exact requires p = 1, got p = {rec.p}"
            )
        case Method.EXACT_SUM if strategy is PlacementStrategy.RANDOM:
            return expect_random_sum(rec, system, semantics)
        case Method.INTEGRAL:
            return _expect_integral(strategy, rec, system, semantics, tol)
        case Method.ASYMPTOTIC:
            return _expect_asymptotic(strategy, rec, system, semantics)
        case Method.BETA_EXACT:
            return _expect_beta_exact(strategy, rec, system, semantics)
    raise ParameterError(f"{strategy.value} placement has no {method.value} route")


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
