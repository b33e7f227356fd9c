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
survival sum; symmetric (round-robin) placement is exactly (N+1, power,
0), power = model.symmetric_period_docs, the distinct windows of g =
(p+q)*r nodes, wherever model.symmetric_power finds them disjoint: no
document wraps (D*g <= N) or g divides N.  The asymptotic form
Gamma(1+1/s) N (kappa power)^(-1/s) takes that power at every cell, and
at p = 1, where phi = 1 - x^s under both rules, the integral is
prefactor/s * Beta(power+1, 1/s).

Quadrature runs in t = -ln x, where the survival function's drop near
x = 0 becomes a smooth step of width about 1/s and the integrand
F(e^-t) e^-t has no endpoint singularity.  An adaptive Gauss-Kronrod 7/15
rule refines panels of [0, T] in rounds and stops when the summed
|K15 - G7| estimates, plus a bound on the part beyond T from the
monotonicity of F, fall within the requested relative tolerance;
otherwise it raises QuadratureError.  One integral's rule is a generator
that yields the points each round needs and is sent ln phi there.  Many
integrals of one code and loss rule (expect_many, which a sweep calls once
a theory column) run in groups that share rounds, one vectorised kernel
call a round; a lone integral is a group of one, and each comes out bit
for bit as it does alone.

The asymptotic and Beta routes are float math.  The survival sum and the
quadrature import numpy when they run, so importing this module, or
taking either of those two routes, loads no numpy.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from itertools import chain

from .errors import (
    ParameterError, QuadratureError, SizeLimitError, require_int, require_list,
)
from .model import (
    LossSemantics,
    PlacementStrategy,
    RecParams,
    SystemParams,
    default_semantics,
    loss_thresholds,
    symmetric_period_docs,
    symmetric_power,
)
from .specfun import beta_real, log_reg_inc_beta_complement

# typing's flag without loading typing; type checkers take it as true
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Method",
    "EXACT_METHOD",
    "AnalyticResult",
    "survival_random",
    "survival_curve_random",
    "expect_random_sum",
    "expect",
    "expect_many",
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

# the largest (N, D) each route takes: the sum indexes N + 1 terms by
# np.intp, whose largest value is sys.maxsize, the others scale by a float
# N, and all but the asymptotic raise phi to a float D; symmetric placement
# to symmetric_period_docs <= N
_ROUTE_LIMITS = {
    Method.EXACT_SUM: (sys.maxsize - 1, sys.float_info.max),
    Method.INTEGRAL: (sys.float_info.max, sys.float_info.max),
    Method.BETA_EXACT: (sys.float_info.max, sys.float_info.max),
    Method.ASYMPTOTIC: (sys.float_info.max, math.inf),
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
    import numpy as np

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


# l values per kernel call of the random survival sum after its first
# block: large enough that numpy's per-call overhead is small, small enough
# that a large-D sum, which reaches 0.0 within a few thousand l, stops
# after one block
_SURVIVAL_BLOCK = 4096
# the survival sum tries to stop once the bound on its remaining terms is
# at most this share of the running sum, far below half an ulp of it
_TAIL_SHARE = 2.0**-60
# heads shorter than this are summed by math.fsum alone: _certified_sum's
# fixed cost of some 20 us is more than two fsum passes over them
_FSUM_HEAD = 256
# the smallest positive float
_SUBNORMAL = math.ldexp(1.0, -1074)
# fixed-point steps of _survival_head_hint towards the head's end
_HINT_STEPS = 4
# survival terms one sum or curve may hold (512 MiB of float64), as
# simulate's TRIAL_LIMIT caps its tables; longer heads are refused
_HEAD_LIMIT = 1 << 26


def _survival_random_terms(
    l: np.ndarray, rec: RecParams, system: SystemParams, semantics: LossSemantics
) -> np.ndarray:
    """Pr[X > l] = phi(l/N)^D under random placement, over an array of l."""
    import numpy as np

    return np.exp(float(system.docs) * _log_survival(l / system.nodes, rec, semantics))


def _survival_head_hint(
    rec: RecParams, system: SystemParams, semantics: LossSemantics
) -> int:
    """A guess, from the asymptotic form, at how many leading terms the
    early-stopping survival sum keeps: ceil(1.1 l*) + 16.

    Pr[X > l] = phi(l/N)^D is at most exp(-D (1 - phi(x))), x = l/N, and
    the first terms of the rule's two binomial tails (loss_thresholds:
    a unit is hit with probability u, which lies between
    C(length, hit_at) x^hit_at (1-x)^(length-hit_at) and
    c x^hit_at, c = C(length, hit_at)) bound it from below:

        1 - phi(x) >= kappa x^s (1-x)^((length-hit_at) lost_at)
                      (1 - c x^hit_at)^(units-lost_at).

    Without the two deficit factors this is the asymptotic form
    kappa x^s, which per-cluster heads with p >= 2 outrun.  The stop
    rule's bound 2 (N - l) Pr[X > l] is then at most
    2 N exp(-kappa D x^s deficit(x)), which falls to 2^-60 E where
    kappa D x^s deficit(x) = 61 ln 2 + ln(N/E), with E the asymptotic
    mean Gamma(1+1/s) N (kappa D)^(-1/s), at least 1.  Its root l*/N is
    approached from below by a few fixed-point steps from the root
    without the deficit.  Everything is taken in logarithms, so a kappa D
    past the float range cannot overflow.  Only the block sizes depend on
    the guess, never the sum.
    """
    units, length, hit_at, lost_at = loss_thresholds(rec, semantics)
    s, kappa = _tail(rec, semantics)
    log_power = math.log(kappa) + math.log(system.docs)
    log_nodes = math.log(system.nodes)
    log_mean = max(0.0, math.lgamma(1.0 + 1.0 / s) + log_nodes - log_power / s)
    depth = 61.0 * math.log(2.0) + log_nodes - log_mean
    log_root = (math.log(depth) - log_power) / s
    hit = math.comb(length, hit_at)
    x = math.exp(log_root)
    for _ in range(_HINT_STEPS):
        hit_bound = hit * x**hit_at
        if x >= 1.0 or hit_bound >= 1.0:
            return system.nodes + 1  # past every head: the whole curve
        deficit = ((length - hit_at) * lost_at * math.log1p(-x)
                   + (units - lost_at) * math.log1p(-hit_bound))
        x = math.exp(log_root - deficit / s)
    return math.ceil(1.1 * system.nodes * x) + 16


def _survival_random_blocks(
    rec: RecParams, system: SystemParams, semantics: LossSemantics
):
    """Pr[X > l] = phi(l/N)^D as arrays over blocks of l from 0, through
    the first block that ends in 0.0.

    The first block is sized to the head the early stop is predicted to
    keep (_survival_head_hint), at most _SURVIVAL_BLOCK, and later blocks
    are _SURVIVAL_BLOCK long, so a short head costs a few terms more than
    it sums, not a whole block; a wrong guess costs one more block.  The
    curve is nonincreasing, so every term after the first 0.0 is an exact
    0.0 too.  Raises SizeLimitError before the first block when the
    predicted head passes _HEAD_LIMIT terms, and before any block that
    would take the terms yielded past it.
    """
    import numpy as np

    end = system.nodes + 1
    hint = _survival_head_hint(rec, system, semantics)
    _require_head(min(hint, end), "sum's predicted head")
    start, stop = 0, min(_SURVIVAL_BLOCK, hint)
    while start < end:
        _require_head(min(stop, end), "sum's head")
        block = _survival_random_terms(
            np.arange(start, min(stop, end)), rec, system, semantics
        )
        yield block
        if block[-1] == 0.0:
            return
        start, stop = stop, stop + _SURVIVAL_BLOCK


def _require_head(terms: int, what: str) -> None:
    """SizeLimitError if the survival terms held would pass _HEAD_LIMIT."""
    if terms > _HEAD_LIMIT:
        raise SizeLimitError(
            f"the random survival {what} of {terms} terms is above the limit "
            f"of {_HEAD_LIMIT}; the other methods hold no terms and have none"
        )


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
    import numpy as np

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
    passes (one when rest is 0) where it cannot, and for heads of fewer
    than _FSUM_HEAD terms, where the passes cost less than the
    certificate.  Either way the float is the same.
    """
    total = None
    if sum(block.size for block in blocks) >= _FSUM_HEAD:
        total = _certified_sum(blocks, rest)
    if total is None:
        total = _fsum(blocks)
        if rest and _fsum(blocks, rest) != total:
            return None
    return total


def _require_records(caller: str, rec: RecParams, systems) -> None:
    """ParameterError unless rec is a RecParams and systems SystemParams."""
    if not isinstance(rec, RecParams):
        raise ParameterError(f"{caller} needs a RecParams, got {rec!r}")
    for system in systems:
        if not isinstance(system, SystemParams):
            raise ParameterError(f"{caller} needs a SystemParams, got {system!r}")


def _require_range(strategy: PlacementStrategy, method: Method, system) -> None:
    """ParameterError naming the route if system is past its _ROUTE_LIMITS."""
    largest_nodes, largest_docs = _ROUTE_LIMITS[method]
    if system.nodes > largest_nodes:
        name, value, limit = "nodes", system.nodes, largest_nodes
    elif system.docs > largest_docs and strategy is PlacementStrategy.RANDOM:
        name, value, limit = "docs", system.docs, largest_docs
    else:
        return
    shown = f"{limit:.6g}" if isinstance(limit, float) else limit
    raise ParameterError(f"{name} must be at most {shown} for the {method.value} "
                         f"route, got about 1e{math.log10(value):.0f}")


def _random_semantics(caller: str, rec, system, semantics) -> LossSemantics:
    """Random placement's loss rule, once rec and system pass the sum's checks."""
    _require_records(caller, rec, [system])
    _require_range(PlacementStrategy.RANDOM, Method.EXACT_SUM, system)
    return default_semantics(PlacementStrategy.RANDOM, semantics)


def survival_random(
    l: int, rec: RecParams, system: SystemParams,
    semantics: LossSemantics | str | None = None,
) -> float:
    """Pr[X > l] under random placement.

    semantics, here and in the other random functions, is settled by
    default_semantics: a LossSemantics, its name, or None for multiset.
    """
    import numpy as np

    semantics = _random_semantics("survival_random", rec, system, semantics)
    l = require_int(l, "l", 0)
    if l > system.nodes:
        raise ParameterError(f"l must lie in [0, nodes], got {l}")
    return float(_survival_random_terms(np.array([l]), rec, system, semantics)[0])


def survival_curve_random(
    rec: RecParams, system: SystemParams, semantics: LossSemantics | str | None = None
) -> tuple[float, ...]:
    """Pr[X > l] for l = 0 .. N under random placement, nonincreasing from 1.

    Its math.fsum is the exact E[X].  Raises SizeLimitError when the N + 1
    terms pass _HEAD_LIMIT.
    """
    semantics = _random_semantics("survival_curve_random", rec, system, semantics)
    _require_head(system.nodes + 1, "curve")
    blocks = _survival_random_blocks(rec, system, semantics)
    head = tuple(chain.from_iterable(b.tolist() for b in blocks))
    return head + (0.0,) * (system.nodes + 1 - len(head))


def expect_random_sum(
    rec: RecParams, system: SystemParams, semantics: LossSemantics | str | None = None
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
    of leading terms summed.  The first block is sized to the head the
    asymptotic form predicts, so a short head evaluates few terms past it.

    Both roundings are settled by _certified_sum, a few numpy passes of
    error-free splitting that prove them equal without summing exactly;
    only when the sum lies too close to a rounding boundary for its
    bound (a few stops in a thousand), or the head has fewer than
    _FSUM_HEAD terms, do two math.fsum passes decide.
    """
    import numpy as np

    semantics = _random_semantics("expect_random_sum", rec, system, semantics)
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


@functools.cache
def _gk_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 15 G7/K15 nodes on [-1, 1], their Kronrod weights and their
    Gauss weights as read-only arrays, made once, on the first quadrature,
    not every round: a new array of 15 floats costs about 1 us."""
    import numpy as np

    tables = (np.concatenate((-np.array(_KRONROD_NODES), _KRONROD_NODES[-2::-1])),
              np.concatenate((_KRONROD_WEIGHTS, _KRONROD_WEIGHTS[-2::-1])),
              np.concatenate((_GAUSS_WEIGHTS, _GAUSS_WEIGHTS[-2::-1])))
    for table in tables:
        table.flags.writeable = False  # one copy serves every rule
    return tables


# the survival function is within e^-40 of 1 beyond t0 + _TAIL_SPAN / s
_TAIL_SPAN = 40.0
# first panel edges, in units of the drop's width 1/s around t0
_FIRST_EDGES = (-4.5, -3.0, -2.0, -1.0, 0.0, 1.5, 4.0, 8.0, 14.0, 24.0)
# more panels than this and the rule gives up
_MAX_PANELS = 500
# integrals that share rounds: enough that the kernel's fixed cost a call is
# spread thin, few enough that a round's arrays stay within the size the
# heap reuses (62 integrals in one round raised a sweep's peak RSS)
_SHARED_INTEGRALS = 16


def _survival_integral(power: int, t0: float, s: int, tol: float):
    """integral_0^1 F(x) dx for F = exp(power * base_log), on t = -ln x, as
    a generator: each round it yields the points t it needs and is sent
    base_log(t) there.

    base_log(t) is ln of a function at x = e^-t.  F must fall from 1 at
    x = 0 to 0 at x = 1 without increasing; its drop sits near t = t0 and
    is about 1/s wide.  On the t-scale the integrand F(e^-t) e^-t is
    smooth, and adaptive G7/K15 panels cover [0, T] with T = t0 + 40/s;
    each round asks for the nodes of every new panel and for T.  A panel's
    error estimate is |K15 - G7|.  Over x < e^-T, F lies between F(e^-T)
    and 1, so that part is taken as the midpoint of [e^-T F(e^-T), e^-T]
    and half the interval joins the estimate.  The rule stops once the
    summed estimates are within tol * |value|.

    Returns (value, achieved relative error estimate, evaluations), or the
    QuadratureError it runs into past _MAX_PANELS panels or on a nan.
    """
    import numpy as np

    gk_nodes, gk_kronrod, gk_gauss = _gk_tables()
    power = float(power)
    end = t0 + _TAIL_SPAN / s
    edge = math.exp(-end)
    inner = [t0 + at / s for at in _FIRST_EDGES]
    edges = np.array([0.0] + [t for t in inner if t > 0.0] + [end])
    lo, hi, values, errors = (np.empty(0),) * 4
    new_lo, new_hi = edges[:-1], edges[1:]
    evals = 0
    while True:
        half = (new_hi - new_lo) / 2
        t = ((new_lo + half)[:, None] + half[:, None] * gk_nodes).ravel()
        # the tail's edge T rides along after the nodes
        log_f = power * (yield np.concatenate((t, [end])))
        evals += log_f.size
        drop = -math.expm1(log_f[-1])  # 1 - F(e^-T)
        f = np.exp(log_f[:-1] - t).reshape(half.size, -1)
        kronrod = half * (f @ gk_kronrod)
        lo, hi = np.concatenate((lo, new_lo)), np.concatenate((hi, new_hi))
        values = np.concatenate((values, kronrod))
        errors = np.concatenate((errors, np.abs(kronrod - half * (f @ gk_gauss))))
        value = math.fsum(memoryview(values)) + edge * (1.0 - drop / 2)
        error = math.fsum(memoryview(errors)) + edge * drop / 2
        if error <= tol * value:
            return value, error / value, evals
        # bisect every panel over its share of the budget, and the worst one;
        # a nan value or error splits none, and the rule stops there too
        split = errors >= min(errors.max(), tol * value / errors.size)
        count = np.count_nonzero(split)
        if not count or errors.size + count > _MAX_PANELS:
            return QuadratureError(error / value, tol)
        mid = (lo[split] + hi[split]) / 2
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        lo, hi, values, errors = lo[~split], hi[~split], values[~split], errors[~split]


def _survival_integrals(base_log, rules) -> list:
    """Run _survival_integral generators to their ends, each rule's result
    in order.

    Groups of _SHARED_INTEGRALS rules share their rounds: a round makes one
    base_log call over the points every unfinished rule of the group asks
    for, and sends each its own slice.  base_log is elementwise, and each
    rule does all its own arithmetic, so a rule's result is bit for bit
    the one it gets alone, a group of one.
    """
    import numpy as np

    results = [None] * len(rules)
    for first in range(0, len(rules), _SHARED_INTEGRALS):
        live = {i: (rule, next(rule)) for i, rule in
                enumerate(rules[first : first + _SHARED_INTEGRALS], first)}
        while live:
            log_base = base_log(np.concatenate([points for _, points in live.values()]))
            start = 0
            for i, (rule, points) in list(live.items()):
                stop = start + points.size
                try:
                    live[i] = rule, rule.send(log_base[start:stop])
                except StopIteration as done:
                    results[i] = done.value
                    del live[i]
                start = stop
    return results


def _scale(
    strategy: PlacementStrategy, rec: RecParams, system: SystemParams
) -> tuple[int, int, float]:
    """(prefactor, power, bound): E[X] = prefactor * integral_0^1 phi^power,
    to within the additive bound."""
    if strategy is PlacementStrategy.RANDOM:
        return system.nodes, system.docs, 1.0
    return system.nodes + 1, symmetric_power(rec, system), 0.0


def _expect_integrals(
    strategy: PlacementStrategy, rec: RecParams, systems,
    semantics: LossSemantics, tol: float,
) -> list:
    """The integral route at each of systems, in shared quadrature rounds:
    an AnalyticResult a system, or the ParameterError or QuadratureError
    it raised."""
    import numpy as np

    s, kappa = _tail(rec, semantics)
    results, todo = [], []
    for system in systems:
        try:
            _require_range(strategy, Method.INTEGRAL, system)
            todo.append((len(results), *_scale(strategy, rec, system)))
            results.append(None)
        except ParameterError as exc:
            results.append(exc)
    integrals = _survival_integrals(
        lambda t: _log_survival(np.exp(-t), rec, semantics),
        # 1 - phi^power ~ power kappa x^s for small x
        [_survival_integral(power, math.log(power * kappa) / s, s, tol)
         for _, _, power, _ in todo],
    )
    for (i, prefactor, _, bound), got in zip(todo, integrals):
        if isinstance(got, QuadratureError):
            results[i] = got
        else:
            integral, achieved, evals = got
            results[i] = AnalyticResult(
                prefactor * integral, Method.INTEGRAL, bound, tol, achieved, evals
            )
    return results


def _expect_asymptotic(
    strategy: PlacementStrategy, rec: RecParams, system: SystemParams,
    semantics: LossSemantics,
) -> AnalyticResult:
    s, kappa = _tail(rec, semantics)
    power = (system.docs if strategy is PlacementStrategy.RANDOM
             else symmetric_period_docs(rec, system.nodes, system.docs))
    try:
        scale = (kappa * power) ** (-1.0 / s)
    except OverflowError:
        scale = 0.0
    if not scale:
        # kappa * power is past the float range (an OverflowError, or inf
        # and a scale of 0.0), so only its logarithm is taken
        scale = math.exp(-(math.log(kappa) + math.log(power)) / s)
    value = math.gamma(1.0 + 1.0 / s) * system.nodes * scale
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


def _checked_semantics(
    strategy: PlacementStrategy, rec: RecParams, systems, method: Method,
    semantics: LossSemantics | str | None, tol: float,
) -> LossSemantics:
    """The loss rule expect runs (default_semantics), after checking the
    arguments every system shares and the type of each system:
    ParameterError for a wrong type or a tol outside [MIN_QUADRATURE_TOL, 1)."""
    if not isinstance(strategy, PlacementStrategy) or not isinstance(method, Method):
        raise ParameterError(
            f"expect needs a PlacementStrategy and a Method, "
            f"got {strategy!r} and {method!r}"
        )
    _require_records("expect", rec, systems)
    if not MIN_QUADRATURE_TOL <= tol < 1.0:  # also rejects nan
        raise ParameterError(
            f"tol must lie in [{MIN_QUADRATURE_TOL:g}, 1), got {tol!r}"
        )
    return default_semantics(strategy, semantics)


def expect(
    strategy: PlacementStrategy,
    rec: RecParams,
    system: SystemParams,
    method: Method,
    tol: float = DEFAULT_QUADRATURE_TOL,
    semantics: LossSemantics | str | None = None,
) -> AnalyticResult:
    """E[X] for one strategy and loss rule by one method; the one route table.

    semantics, a LossSemantics, its name or None, is settled by
    default_semantics.  tol must lie in [MIN_QUADRATURE_TOL, 1) whatever
    the method, though only the integral route reads it.  beta-exact
    requires p = 1, sum exists for random placement only, and N and D
    must lie within _ROUTE_LIMITS.  Routes are called by their module
    names, so wrapping one of them (as a tracer does) is seen here.
    """
    semantics = _checked_semantics(strategy, rec, [system], method, semantics, tol)
    if method is Method.EXACT_SUM and strategy is not PlacementStrategy.RANDOM:
        raise ParameterError(f"{strategy.value} placement has no {method.value} route")
    if method is Method.BETA_EXACT and rec.p != 1:
        raise ParameterError(f"{strategy.value} beta-exact requires p = 1, "
                             f"got p = {rec.p}")
    _require_range(strategy, method, system)
    match method:
        case Method.EXACT_SUM:
            return expect_random_sum(rec, system, semantics)
        case Method.INTEGRAL:
            (result,) = _expect_integrals(strategy, rec, [system], semantics, tol)
            if isinstance(result, Exception):
                raise result
            return result
        case Method.ASYMPTOTIC:
            return _expect_asymptotic(strategy, rec, system, semantics)
        case Method.BETA_EXACT:
            return _expect_beta_exact(strategy, rec, system, semantics)


def expect_many(
    strategy: PlacementStrategy,
    rec: RecParams,
    systems,
    method: Method,
    tol: float = DEFAULT_QUADRATURE_TOL,
    semantics: LossSemantics | str | None = None,
) -> list[AnalyticResult | None]:
    """expect at each of systems, in order; None where it raises
    ParameterError or QuadratureError for that system.

    The arguments the systems share, and the type of each system, are
    checked first, as expect checks them, and raise.  The integral route
    refines the integrals of all systems in shared rounds, one kernel call
    a round, and each comes out bit for bit as expect gives it alone; the
    other routes call expect at each system.
    """
    systems = require_list(systems, "systems")
    semantics = _checked_semantics(strategy, rec, systems, method, semantics, tol)
    if method is Method.INTEGRAL:
        return [
            None if isinstance(result, Exception) else result
            for result in _expect_integrals(strategy, rec, systems, semantics, tol)
        ]
    results = []
    for system in systems:
        try:
            results.append(expect(strategy, rec, system, method, tol, semantics))
        except (ParameterError, QuadratureError):
            results.append(None)
    return results


def max_over_p_check(q: int, r: int, system: SystemParams, p_max: int) -> bool:
    """True iff E[X] is nonincreasing in p over 1..p_max at fixed q, r.

    Scans the exact route of each strategy (EXACT_METHOD), which raises
    ParameterError where a p's symmetric windows overlap.  RecParams reads q and r.
    """
    p_max = require_int(p_max, "p_max", 1)
    for strategy, method in EXACT_METHOD.items():
        values = [
            expect(strategy, RecParams(p, q, r), system, method).value
            for p in range(1, p_max + 1)
        ]
        for lo, hi in zip(values[1:], values):
            if lo > hi + 1e-9 * max(1.0, abs(hi)):
                return False
    return True
