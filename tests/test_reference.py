"""Float routes against 50-digit mpmath references at large N and D.

Enumeration cannot reach this range, so the references are computed here
from the definitions in mpmath, with phi(x) the probability that a document
survives independent erasures with probability x: 1 - I_{x^r}(q+1, p) under
the multiset rule and 1 - I_x(q+1, p)^r under the per-cluster rule.  The
random-placement reference is the survival sum sum_l phi(l/N)^D, the
symmetric one (N+1) * integral_0^1 phi(x)^(N/g) dx by tanh-sinh quadrature.
A value passes when |value - ref| <= error_bound + max(tol, 1e-12) * |ref|,
with tol the quadrature tolerance of an integral and absent for a sum.
The p = 1 closed Beta forms are checked as formulas, against mpmath.beta
at the same arguments, to 1e-13 relative.
"""

from functools import lru_cache
from math import comb

import pytest

from rec_persist import analytic
from rec_persist.analytic import Method
from rec_persist.model import LossSemantics, PlacementStrategy, RecParams, SystemParams

mpmath = pytest.importorskip("mpmath")
mpf = mpmath.mpf

DPS = 50
REL_FLOOR = 1e-12
# the survival sum stops once the remaining terms are below this share
CUTOFF = mpf(10) ** -40

REC_2_3_2 = (2, 1, 2)
REC_1_2_2 = (1, 1, 2)
REC_3_5_2 = (3, 2, 2)

RANDOM, SYMMETRIC = PlacementStrategy.RANDOM, PlacementStrategy.SYMMETRIC
MULTISET, PER_CLUSTER = LossSemantics.MULTISET, LossSemantics.PER_CLUSTER


def _complement(x, p: int, q: int):
    """1 - I_x(q+1, p): at most q of the p+q chunks are erased."""
    n = p + q
    return mpmath.fsum(comb(n, j) * x**j * (1 - x) ** (n - j) for j in range(q + 1))


def _survival(x, code, semantics):
    p, q, r = code
    if semantics is MULTISET:
        return _complement(x**r, p, q)
    return 1 - (1 - _complement(x, p, q)) ** r


@lru_cache(maxsize=None)
def random_reference(code, nodes: int, docs: int, semantics=MULTISET):
    with mpmath.workdps(DPS):
        total = mpf(0)
        n = mpf(nodes)
        for l in range(nodes + 1):
            surv = _survival(l / n, code, semantics) ** docs
            total += surv
            # the curve is nonincreasing: at most nodes - l more terms <= surv
            if surv * (nodes - l) < CUTOFF * total:
                break
        return total


def symmetric_reference(code, nodes: int, semantics=PER_CLUSTER):
    p, q, r = code
    groups = nodes // ((p + q) * r)
    s = r * (q + 1)
    kappa = comb(p + q, q + 1) ** (r if semantics is PER_CLUSTER else 1)
    with mpmath.workdps(DPS):
        # the integrand decays where groups * kappa * x^s is about 1
        scale = (mpf(1) / (groups * kappa)) ** (mpf(1) / s)
        breaks = [mpf(0)] + [scale * mpf(2) ** k for k in range(-12, 12)
                             if scale * mpf(2) ** k < 1] + [mpf(1)]

        def f(x):
            return _survival(x, code, semantics) ** groups

        value, err = mpmath.quad(f, breaks, error=True, maxdegree=10)
        assert err < mpf(10) ** -30 * value
        return (nodes + 1) * value


def assert_matches(result, ref):
    tol = result.quadrature_tolerance or 0.0
    allowed = result.error_bound + max(tol, REL_FLOOR) * abs(float(ref))
    assert abs(result.value - float(ref)) <= allowed, (result.value, ref)


RANDOM_CASES = [
    pytest.param(code, nodes, docs, id=f"REC({p},{p + q},{r})-N{nodes}-D{docs}")
    for code in (REC_2_3_2, REC_1_2_2)
    for p, q, r in [code]
    for nodes in (10**3, 10**4)
    for docs in (10**6, 10**9)
]


@pytest.mark.parametrize("code,nodes,docs", RANDOM_CASES)
def test_random_sum(code, nodes, docs):
    result = analytic.expect_random_sum(RecParams(*code), SystemParams(nodes, docs))
    assert result.error_bound == 0.0
    assert_matches(result, random_reference(code, nodes, docs))


@pytest.mark.parametrize("code,nodes,docs", RANDOM_CASES)
def test_random_integral(code, nodes, docs):
    result = analytic.expect(
        RANDOM, RecParams(*code), SystemParams(nodes, docs), Method.INTEGRAL
    )
    assert_matches(result, random_reference(code, nodes, docs))


def test_random_sum_million_nodes():
    result = analytic.expect_random_sum(
        RecParams(*REC_2_3_2), SystemParams(10**6, 10**9)
    )
    assert_matches(result, random_reference(REC_2_3_2, 10**6, 10**9))


def test_symmetric_integral_large_n():
    nodes = 1_200_000
    g = 6
    result = analytic.expect(
        SYMMETRIC, RecParams(*REC_2_3_2), SystemParams(nodes, nodes // g),
        Method.INTEGRAL,
    )
    assert_matches(result, symmetric_reference(REC_2_3_2, nodes))


# the cells off each strategy's default rule: random per-cluster, symmetric multiset
PER_CLUSTER_CASES = [
    pytest.param(code, nodes, docs, id=f"REC({p},{p + q},{r})-N{nodes}-D{docs}")
    for code in (REC_2_3_2, REC_3_5_2)
    for p, q, r in [code]
    for nodes in (10**4, 10**5)
    for docs in (10**6, 10**9)
]


@pytest.mark.parametrize("code,nodes,docs", PER_CLUSTER_CASES)
def test_random_per_cluster_sum(code, nodes, docs):
    result = analytic.expect(
        RANDOM, RecParams(*code), SystemParams(nodes, docs), Method.EXACT_SUM,
        semantics=PER_CLUSTER,
    )
    assert_matches(result, random_reference(code, nodes, docs, PER_CLUSTER))


@pytest.mark.parametrize("code,nodes,docs", PER_CLUSTER_CASES)
def test_random_per_cluster_integral(code, nodes, docs):
    result = analytic.expect(
        RANDOM, RecParams(*code), SystemParams(nodes, docs), Method.INTEGRAL,
        semantics=PER_CLUSTER,
    )
    assert_matches(result, random_reference(code, nodes, docs, PER_CLUSTER))


@pytest.mark.parametrize("nodes", [12_000, 120_000, 1_200_000])
def test_symmetric_multiset_integral(nodes):
    result = analytic.expect(
        SYMMETRIC, RecParams(*REC_2_3_2), SystemParams(nodes, nodes // 6),
        Method.INTEGRAL, semantics=MULTISET,
    )
    assert_matches(result, symmetric_reference(REC_2_3_2, nodes, MULTISET))


# (N+1)/s Beta(N/s + 1, 1/s) and N/s Beta(D + 1, 1/s) with s = r(q+1): the
# log-Gamma difference inside Beta cancels at large N or D
BETA_REL = 1e-13


def _p1_beta_reference(q: int, r: int, scale: int, a_minus_1):
    s = r * (q + 1)
    with mpmath.workdps(DPS):
        return mpf(scale) / s * mpmath.beta(mpf(a_minus_1) + 1, mpf(1) / s)


@pytest.mark.parametrize("q,r,nodes", [
    (0, 2, 120_000), (0, 2, 1_200_000),
    (1, 2, 12_000), (1, 2, 120_000), (1, 2, 1_200_000),
    (2, 1, 2640), (2, 1, 120_000), (2, 1, 1_200_000),
])
def test_symmetric_p1_beta(q, r, nodes):
    result = analytic.expect(
        SYMMETRIC, RecParams(1, q, r), SystemParams(nodes, nodes), Method.BETA_EXACT
    )
    ref = _p1_beta_reference(q, r, nodes + 1, mpf(nodes) / (r * (q + 1)))
    assert abs(result.value - float(ref)) <= BETA_REL * float(ref)


@pytest.mark.parametrize("q,r,nodes", [(0, 2, 10**3), (1, 2, 10**6), (2, 1, 10**4)])
def test_random_p1_beta_billion_docs(q, r, nodes):
    docs = 10**9
    result = analytic.expect(
        RANDOM, RecParams(1, q, r), SystemParams(nodes, docs), Method.BETA_EXACT
    )
    ref = _p1_beta_reference(q, r, nodes, docs)
    assert abs(result.value - float(ref)) <= BETA_REL * float(ref)
