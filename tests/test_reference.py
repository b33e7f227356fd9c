"""Float routes against 50-digit mpmath references at large N and D.

Enumeration cannot reach this range, so the references are computed here
from the definitions in mpmath: the random-placement survival sum
sum_l (1 - I_{(l/N)^r}(q+1, p))^D, and for symmetric placement
(N+1) * integral_0^1 (1 - I_x(q+1, p)^r)^(N/g) dx by tanh-sinh quadrature.
A value passes when |value - ref| <= error_bound + max(tol, 1e-12) * |ref|,
with tol the quadrature tolerance of an integral and absent for a sum.
The p = 1 closed Beta forms are checked as formulas, against mpmath.beta
at the same arguments, to 1e-13 relative.
"""

from functools import lru_cache
from math import comb

import pytest

from rec_persist import analytic
from rec_persist.model import RecParams, SystemParams

mpmath = pytest.importorskip("mpmath")
mpf = mpmath.mpf

DPS = 50
REL_FLOOR = 1e-12
# the survival sum stops once the remaining terms are below this share
CUTOFF = mpf(10) ** -40

REC_2_3_2 = (2, 1, 2)
REC_1_2_2 = (1, 1, 2)


def _complement(x, p: int, q: int):
    """1 - I_x(q+1, p): at most q of the p+q chunks are erased."""
    n = p + q
    return mpmath.fsum(comb(n, j) * x**j * (1 - x) ** (n - j) for j in range(q + 1))


@lru_cache(maxsize=None)
def random_reference(code, nodes: int, docs: int):
    p, q, r = code
    with mpmath.workdps(DPS):
        total = mpf(0)
        n = mpf(nodes)
        for l in range(nodes + 1):
            surv = _complement((l / n) ** r, p, q) ** docs
            total += surv
            # the curve is nonincreasing: at most nodes - l more terms <= surv
            if surv * (nodes - l) < CUTOFF * total:
                break
        return total


def symmetric_reference(code, nodes: int):
    p, q, r = code
    groups = nodes // ((p + q) * r)
    s = r * (q + 1)
    with mpmath.workdps(DPS):
        # the integrand decays where groups * C(p+q, q+1)^r * x^s is about 1
        scale = (mpf(1) / (groups * comb(p + q, q + 1) ** r)) ** (mpf(1) / s)
        breaks = [mpf(0)] + [scale * mpf(2) ** k for k in range(-12, 12)
                             if scale * mpf(2) ** k < 1] + [mpf(1)]

        def f(x):
            return (1 - (1 - _complement(x, p, q)) ** r) ** groups

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
    result = analytic.expect_random_integral(
        RecParams(*code), SystemParams(nodes, docs)
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
    result = analytic.expect_symmetric_integral(
        RecParams(*REC_2_3_2), SystemParams(nodes, nodes // g)
    )
    assert_matches(result, symmetric_reference(REC_2_3_2, nodes))


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
    result = analytic.expect_symmetric_p1_beta(q, r, SystemParams(nodes, nodes))
    ref = _p1_beta_reference(q, r, nodes + 1, mpf(nodes) / (r * (q + 1)))
    assert abs(result.value - float(ref)) <= BETA_REL * float(ref)


@pytest.mark.parametrize("q,r,nodes", [(0, 2, 10**3), (1, 2, 10**6), (2, 1, 10**4)])
def test_random_p1_beta_billion_docs(q, r, nodes):
    docs = 10**9
    result = analytic.expect_random_p1_beta(q, r, SystemParams(nodes, docs))
    ref = _p1_beta_reference(q, r, nodes, docs)
    assert abs(result.value - float(ref)) <= BETA_REL * float(ref)
