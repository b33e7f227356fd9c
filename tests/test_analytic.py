"""Formula layer: survival probabilities, expectations, asymptotics."""

import itertools
import math
import re
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rec_persist import analytic, oracle, simulator, sweep
from rec_persist.analytic import Method
from rec_persist.cli import main
from rec_persist.errors import ParameterError, QuadratureError, SizeLimitError
from rec_persist.model import (
    LossSemantics,
    PlacementStrategy,
    RecParams,
    SystemParams,
    default_semantics,
    is_document_lost,
)
from rec_persist.specfun import log_reg_inc_beta_complement

GAMMA_3_2 = math.gamma(1.5)
GAMMA_4_3 = math.gamma(4 / 3)
RANDOM, SYMMETRIC = PlacementStrategy.RANDOM, PlacementStrategy.SYMMETRIC
MS, PC = LossSemantics.MULTISET, LossSemantics.PER_CLUSTER
FULL_SUM_BLOCK = analytic._SURVIVAL_BLOCK


def full_random_sum(rec, system, semantics=MS):
    """The survival sum without the early stop: fsum over every block of l
    through the first one that ends in 0.0."""
    terms = []
    for start in range(0, system.nodes + 1, FULL_SUM_BLOCK):
        l = np.arange(start, min(start + FULL_SUM_BLOCK, system.nodes + 1))
        log_phi = analytic._log_survival(l / system.nodes, rec, semantics)
        terms += np.exp(system.docs * log_phi).tolist()
        if terms[-1] == 0.0:
            break
    return math.fsum(terms)


def random_instances(seed, count, max_nodes):
    """Seeded (rec, system, semantics): p 1-5, q 0-4, r 1-3, both rules,
    N log-uniform in [1, max_nodes] and D log-uniform in [1, 3e9]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rec = RecParams(
            int(rng.integers(1, 6)), int(rng.integers(0, 5)), int(rng.integers(1, 4))
        )
        nodes = int(round(10 ** rng.uniform(0, math.log10(max_nodes))))
        docs = int(round(10 ** rng.uniform(0, math.log10(3e9))))
        yield rec, SystemParams(nodes, docs), (MS, PC)[int(rng.integers(2))]


class TestSurvivalRandom:
    def test_single_doc_replication(self):
        # one doc, 2 replicas, N=4: Pr[X > 1] = 1 - (1/4)^2
        value = analytic.survival_random(
            1, RecParams(1, 0, 2), SystemParams(4, 1)
        )
        assert value == pytest.approx(15 / 16, rel=1e-15)

    def test_no_redundancy_line(self):
        # p=1, q=0, r=1: Pr[X > l] = (1 - l/N)^D
        rec = RecParams(1, 0, 1)
        system = SystemParams(10, 3)
        for l in range(11):
            assert analytic.survival_random(l, rec, system) == pytest.approx(
                (1 - l / 10) ** 3, rel=1e-13
            )

    def test_boundaries(self):
        rec = RecParams(2, 1, 2)
        system = SystemParams(8, 4)
        assert analytic.survival_random(0, rec, system) == 1.0
        assert analytic.survival_random(8, rec, system) == 0.0

    def test_l_out_of_range(self):
        rec = RecParams(1, 0, 1)
        system = SystemParams(4, 1)
        with pytest.raises(ParameterError):
            analytic.survival_random(-1, rec, system)
        with pytest.raises(ParameterError):
            analytic.survival_random(5, rec, system)

    def test_l_must_be_an_integer(self):
        rec = RecParams(1, 0, 1)
        system = SystemParams(4, 1)
        for l in (2.5, 2.0, True, "3", None):
            with pytest.raises(ParameterError, match="l must be an integer"):
                analytic.survival_random(l, rec, system)
        assert analytic.survival_random(np.int64(2), rec, system) == 0.5

    def test_curve_matches_pointwise_and_sums(self):
        # REC(1,0,2) at N = 48, D = 5 stays positive past N(g-p)/g + 1 = 25,
        # the support bound of the symmetric curve only
        for rec, system in (
            (RecParams(2, 1, 2), SystemParams(12, 3)),
            (RecParams(1, 0, 2), SystemParams(48, 5)),
        ):
            curve = analytic.survival_curve_random(rec, system)
            assert len(curve) - 1 == system.nodes
            assert curve[0] == 1.0
            for l, prob in enumerate(curve):
                assert prob == analytic.survival_random(l, rec, system)
            assert all(prob > 0.0 for prob in curve[: system.nodes])
            assert all(hi >= lo for hi, lo in zip(curve, curve[1:]))
            assert math.fsum(curve) == analytic.expect_random_sum(
                rec, system
            ).value

    def test_curve_over_several_blocks(self):
        # 10001 terms span three blocks of l; the curve reaches 0.0 before N
        rec = RecParams(2, 1, 2)
        system = SystemParams(10_000, 1000)
        curve = analytic.survival_curve_random(rec, system)
        assert len(curve) - 1 == 10_000
        assert curve[-1] == 0.0
        for l in range(0, 10_001, 97):
            x = (l / system.nodes) ** rec.r
            want = math.exp(
                system.docs * log_reg_inc_beta_complement(x, rec.q + 1, rec.p)
            )
            assert curve[l] == pytest.approx(want, rel=1e-12, abs=0.0)
        assert math.fsum(curve) == analytic.expect_random_sum(rec, system).value

    def test_none_is_the_multiset_rule(self):
        # REC(2,0,2) on 3 nodes, where the two rules differ
        rec, system = RecParams(2, 0, 2), SystemParams(3, 1)
        for l in range(system.nodes + 1):
            assert analytic.survival_random(
                l, rec, system, None
            ) == analytic.survival_random(l, rec, system, MS)
        curve = analytic.survival_curve_random(rec, system, None)
        assert curve == analytic.survival_curve_random(rec, system, MS)
        assert curve != analytic.survival_curve_random(rec, system, PC)
        total = analytic.expect_random_sum(rec, system, None)
        assert total == analytic.expect_random_sum(rec, system, MS)
        assert total != analytic.expect_random_sum(rec, system, PC)


class TestExpectRandomSum:
    def test_two_nodes(self):
        result = analytic.expect_random_sum(
            RecParams(1, 0, 1), SystemParams(2, 1)
        )
        assert result.value == 1.5
        assert result.method is Method.EXACT_SUM
        assert result.error_bound == 0.0

    def test_mean_of_uniform_order(self):
        # single unreplicated chunk: E[X] = (N+1)/2
        for nodes in (3, 7, 20):
            result = analytic.expect_random_sum(
                RecParams(1, 0, 1), SystemParams(nodes, 1)
            )
            assert result.value == pytest.approx((nodes + 1) / 2, rel=1e-13)

    def test_three_node_cases(self):
        # both (1,0,2) and (1,1,1) give sum_l (1 - (l/3)^2) = 22/9
        for p, q, r in ((1, 0, 2), (1, 1, 1)):
            result = analytic.expect_random_sum(
                RecParams(p, q, r), SystemParams(3, 1)
            )
            assert result.value == pytest.approx(22 / 9, rel=1e-14)

    def test_agrees_with_enumeration(self):
        cases = ((1, 0, 2, 4), (2, 1, 1, 5), (1, 1, 2, 3), (2, 0, 1, 6), (2, 0, 2, 3))
        for p, q, r, nodes in cases:
            rec = RecParams(p, q, r)
            system = SystemParams(nodes, 1)
            for semantics in (MS, PC):
                brute = oracle.brute_force_random(rec, system, semantics)
                got = analytic.expect_random_sum(rec, system, semantics).value
                assert got == pytest.approx(float(brute), rel=1e-12)


class TestSurvivalSumStop:
    """The sum stops early only where the remaining terms cannot move its
    rounded value, so it equals the sum through the curve's first 0.0."""

    def test_equals_full_sum_on_seeded_grid(self):
        stopped = 0
        for rec, system, semantics in random_instances(2024, 300, 10**5):
            result = analytic.expect_random_sum(rec, system, semantics)
            assert result.value == full_random_sum(rec, system, semantics)
            assert 1 <= result.sum_terms <= system.nodes + 1
            stopped += result.sum_terms < system.nodes + 1
        assert stopped > 100

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_block_size_does_not_change_the_sum(self, block, monkeypatch):
        monkeypatch.setattr(analytic, "_SURVIVAL_BLOCK", block)
        for rec, system, semantics in random_instances(block, 30, 3000):
            assert analytic.expect_random_sum(
                rec, system, semantics
            ).value == full_random_sum(rec, system, semantics)

    @pytest.mark.parametrize("hint", ["one", "all"])
    def test_head_hint_does_not_change_the_sum(self, hint, monkeypatch):
        # a first block of one term, or of the whole curve, only moves the
        # block boundaries
        monkeypatch.setattr(
            analytic, "_survival_head_hint",
            lambda rec, system, semantics: 1 if hint == "one" else system.nodes + 1,
        )
        for rec, system, semantics in random_instances(31, 60, 20_000):
            assert analytic.expect_random_sum(
                rec, system, semantics
            ).value == full_random_sum(rec, system, semantics)

    def test_short_heads_evaluate_few_terms(self, monkeypatch):
        # every multiset sum of the benchmark's deck whose head fits in one
        # block evaluates at most a quarter more terms than it sums, plus 16
        evaluated = []
        terms = analytic._survival_random_terms

        def counted(l, *args):
            evaluated.append(l.size)
            return terms(l, *args)

        monkeypatch.setattr(analytic, "_survival_random_terms", counted)
        short = 0
        for (code, docs, _, _), nodes in itertools.product(
            _PINNED_SUMS, (10**3, 10**4, 10**5)
        ):
            evaluated.clear()
            result = analytic.expect_random_sum(
                RecParams(*code), SystemParams(nodes, int(docs))
            )
            if result.sum_terms < analytic._SURVIVAL_BLOCK:
                short += 1
                assert sum(evaluated) <= 1.25 * result.sum_terms + 16
        assert short == 35

    @pytest.mark.parametrize("semantics", [MS, PC])
    def test_first_block_covers_short_heads(self, semantics):
        # the hint bounds 1 - phi from below through both of the rule's
        # binomial tails, so a head it predicts shorter than a block fits in
        # the first block; per-cluster heads with p >= 2 outran the bare
        # asymptotic kappa x^s, and evaluated a second block of 4096 terms
        short = 0
        for (code, _, _, _), nodes, docs in itertools.product(
            _PINNED_SUMS[::3], (10**3, 10**4, 10**5), (10**3, 10**6, 10**9)
        ):
            rec, system = RecParams(*code), SystemParams(nodes, docs)
            first = analytic._survival_head_hint(rec, system, semantics)
            if first < analytic._SURVIVAL_BLOCK:
                short += 1
                result = analytic.expect_random_sum(rec, system, semantics)
                assert result.sum_terms <= first, (code, nodes, docs)
        assert short == {MS: 34, PC: 35}[semantics]

    def test_per_cluster_heads_that_outran_the_hint(self):
        # value, terms and the hint at the parent of the three per-cluster
        # heads the asymptotic hint undershot: the values are unchanged
        for code, nodes, value, terms, old_hint in (
            ((2, 1, 2), 10**4, "0x1.e29c44e66898dp+9", 2938, 2936),
            ((3, 2, 2), 10**3, "0x1.2877fd84c38bap+7", 333, 320),
            ((3, 2, 2), 10**4, "0x1.7175fce5f46e9p+10", 3315, 3053),
        ):
            rec, system = RecParams(*code), SystemParams(nodes, 1000)
            result = analytic.expect_random_sum(rec, system, PC)
            assert (result.value.hex(), result.sum_terms) == (value, terms)
            hint = analytic._survival_head_hint(rec, system, PC)
            assert old_hint < terms <= min(hint, analytic._SURVIVAL_BLOCK)

    def test_pinned_sums(self):
        # the value and head of the 15 N = 1e5 sums of the benchmark's deck
        for code, docs, value, sum_terms in _PINNED_SUMS:
            result = analytic.expect_random_sum(
                RecParams(*code), SystemParams(10**5, int(docs))
            )
            assert (result.value, result.sum_terms) == (value, sum_terms)

    def test_failed_guard_falls_back(self, monkeypatch):
        # at a share of 1 the bound on the rest is as large as the sum, so
        # the guard fails and the sum goes on to the block that ends in 0.0
        monkeypatch.setattr(analytic, "_TAIL_SHARE", 1.0)
        for rec, system, semantics in random_instances(5, 60, 20_000):
            assert analytic.expect_random_sum(
                rec, system, semantics
            ).value == full_random_sum(rec, system, semantics)
        rec, system = RecParams(1, 0, 2), SystemParams(1000, 10)
        result = analytic.expect_random_sum(rec, system)
        assert result.sum_terms == 1001
        assert result.value == full_random_sum(rec, system)

    def test_million_nodes(self):
        rec, system = RecParams(1, 0, 2), SystemParams(10**6, 1000)
        result = analytic.expect_random_sum(rec, system)
        assert result.value == full_random_sum(rec, system)
        assert result.sum_terms < system.nodes // 2

    def test_stops_early(self):
        result = analytic.expect_random_sum(RecParams(1, 0, 2), SystemParams(10**5, 1000))
        assert result.sum_terms <= 25_000


# (code, D, E[X], sum_terms) of the multiset survival sum at N = 1e5
_PINNED_SUMS = (
    ((1, 0, 2), 1e03, 2801.94521942109, 21119),
    ((1, 0, 2), 1e06, 89.12265931178341, 704),
    ((1, 0, 2), 1e09, 3.3024956071480283, 24),
    ((1, 1, 2), 1e03, 16116.350952604644, 45424),
    ((1, 1, 2), 1e06, 2866.7958564551664, 8226),
    ((1, 1, 2), 1e09, 510.20757002355015, 1478),
    ((2, 1, 2), 1e03, 12284.316163984136, 35362),
    ((2, 1, 2), 1e06, 2178.6264877896156, 6265),
    ((2, 1, 2), 1e09, 387.7951959294454, 1125),
    ((1, 2, 1), 1e03, 8928.311488202846, 35117),
    ((1, 2, 1), 1e06, 893.4793131294266, 3609),
    ((1, 2, 1), 1e09, 89.7979511287476, 368),
    ((3, 2, 2), 1e03, 20218.5834973344, 42191),
    ((3, 2, 2), 1e06, 6328.017756105644, 12900),
    ((3, 2, 2), 1e09, 1999.432378021656, 4084),
)


class TestHeadLimit:
    """The survival sum and curve refuse, before evaluating a term, to hold
    more than _HEAD_LIMIT terms."""

    @staticmethod
    def _count_terms(monkeypatch):
        evaluated = []
        terms = analytic._survival_random_terms

        def counted(l, *args):
            evaluated.append(l.size)
            return terms(l, *args)

        monkeypatch.setattr(analytic, "_survival_random_terms", counted)
        return evaluated

    def test_limit_sits_between_1e8_and_1e9_nodes(self):
        # REC(1,1,2), D = 1e3: heads of about 5.0e7 and 5.0e8 terms
        rec = RecParams(1, 1, 2)
        hints = [analytic._survival_head_hint(rec, SystemParams(n, 1000), MS)
                 for n in (10**8, 10**9)]
        assert hints[0] <= analytic._HEAD_LIMIT < hints[1]

    def test_refused_before_any_term(self, monkeypatch):
        evaluated = self._count_terms(monkeypatch)
        for n in (10**9, 2**63 - 2):
            with pytest.raises(SizeLimitError, match="predicted head"):
                analytic.expect_random_sum(RecParams(1, 1, 2), SystemParams(n, 1000))
        monkeypatch.setattr(analytic, "_HEAD_LIMIT", 1000)
        with pytest.raises(SizeLimitError, match="limit of 1000"):
            analytic.expect_random_sum(RecParams(1, 0, 2), SystemParams(10**5, 1000))
        assert evaluated == []

    def test_head_that_fits_keeps_its_value(self, monkeypatch):
        # the limit at the first block, the head hint, still runs the sum;
        # one term less refuses it
        evaluated = self._count_terms(monkeypatch)
        for code, docs, value, sum_terms in _PINNED_SUMS[2::3]:
            rec, system = RecParams(*code), SystemParams(10**5, int(docs))
            hint = analytic._survival_head_hint(rec, system, MS)
            monkeypatch.setattr(analytic, "_HEAD_LIMIT", hint)
            result = analytic.expect_random_sum(rec, system)
            assert (result.value, result.sum_terms) == (value, sum_terms)
            evaluated.clear()
            monkeypatch.setattr(analytic, "_HEAD_LIMIT", hint - 1)
            with pytest.raises(SizeLimitError):
                analytic.expect_random_sum(rec, system)
            assert evaluated == []

    def test_refused_once_the_blocks_would_pass_it(self, monkeypatch):
        # a first block of one term fits a limit of 100, and the next block
        # of _SURVIVAL_BLOCK terms would pass it
        evaluated = self._count_terms(monkeypatch)
        monkeypatch.setattr(analytic, "_HEAD_LIMIT", 100)
        monkeypatch.setattr(
            analytic, "_survival_head_hint", lambda rec, system, semantics: 1
        )
        with pytest.raises(SizeLimitError, match="head of 4097 terms"):
            analytic.expect_random_sum(RecParams(1, 0, 2), SystemParams(10**4, 1000))
        assert evaluated == [1]

    def test_curve_holds_at_most_the_limit(self, monkeypatch):
        monkeypatch.setattr(analytic, "_HEAD_LIMIT", 1000)
        rec = RecParams(1, 0, 2)
        full = analytic.survival_curve_random(rec, SystemParams(999, 1))
        assert len(full) == 1000
        evaluated = self._count_terms(monkeypatch)
        with pytest.raises(SizeLimitError, match="curve of 1001 terms"):
            analytic.survival_curve_random(rec, SystemParams(1000, 1))
        assert evaluated == []


# term strategies for _certified_sum: signed values in [-1, 1] with their
# subnormals, magnitudes from 1 down to 1e-300, and subnormals alone
_UNIT_FLOATS = st.floats(-1.0, 1.0)
_WIDE_FLOATS = st.builds(
    math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-997, 0)
)
_SUBNORMALS = st.floats(0.0, 2.0**-1022)
_TERMS = st.lists(_UNIT_FLOATS | _WIDE_FLOATS | _SUBNORMALS, min_size=1, max_size=400)
# a rest as a share of the sum, up to well past half an ulp of it
_SHARES = (
    st.sampled_from([0.0, 2.0**-60, 2.0**-54, 2.0**-53]) | st.floats(0.0, 2.0**-50)
)


def assert_certified(terms, rest, chunk=None):
    """_certified_sum of terms cut into blocks of chunk is None or
    fsum(terms), and then also fsum(terms, rest)."""
    array = np.array(terms, dtype=float)
    blocks = np.split(array, range(chunk, array.size, chunk)) if chunk else [array]
    got = analytic._certified_sum(blocks, rest)
    if got is not None:
        assert got == math.fsum(terms)
        assert got == math.fsum(terms + [rest])
    return got


class TestCertifiedSum:
    @settings(deadline=None, max_examples=300)
    @given(_TERMS, _SHARES, st.none() | st.integers(1, 100))
    def test_none_or_exact(self, terms, share, chunk):
        assert_certified(terms, share * abs(math.fsum(terms)), chunk)

    @settings(deadline=None, max_examples=100)
    @given(_UNIT_FLOATS | _WIDE_FLOATS | _SUBNORMALS, st.integers(1, 5000), _SHARES)
    def test_constant_arrays(self, value, size, share):
        assert_certified([value] * size, share * abs(value) * size)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(-1074, 0), st.integers(0, 60), st.integers(1, 3))
    def test_ties(self, exponent, gap, copies):
        # 2^e plus pieces at and below half its ulp: exact ties (one piece
        # at gap 0, two at gap 1) and sums just off them
        head = math.ldexp(1.0, exponent)
        terms = [head] + [math.ldexp(head, -53 - gap)] * copies
        assert_certified(terms, 0.0)
        assert_certified(terms, math.ldexp(head, -60))

    def test_tie_that_rest_breaks_is_refused(self):
        # 1 + 2^-53 rounds down to 1.0, and up to 1 + 2^-52 with any rest
        terms = [1.0, 2.0**-53]
        assert assert_certified(terms, 0.0) in (1.0, None)
        assert analytic._certified_sum([np.array(terms)], 2.0**-60) is None

    def test_bound_covers_the_residual_sum(self):
        # 2^-101 is below both levels' extraction, so plain summation of the
        # residual drops 2^-160 against it: the residual's exact sum pushes
        # the tie 1 + 2^-53 up, its floating-point sum leaves it on the tie
        terms = [1.0, 2.0**-53, 2.0**-101, 2.0**-160, -(2.0**-101)]
        assert math.fsum(terms) == 1.0 + 2.0**-52
        assert assert_certified(terms, 0.0) is None

    def test_survival_terms_are_settled(self):
        # a helper that always declined would be exact but save nothing
        settled = declined = 0
        for rec, system, semantics in random_instances(7, 60, 10**5):
            terms = np.concatenate(
                list(analytic._survival_random_blocks(rec, system, semantics))
            ).tolist()
            for rest in (0.0, 2.0**-60 * math.fsum(terms)):
                if assert_certified(terms, rest, analytic._SURVIVAL_BLOCK) is None:
                    declined += 1
                else:
                    settled += 1
        assert declined <= settled // 20

    def test_non_finite_terms_are_declined(self):
        for bad in (math.inf, math.nan, 1e308):
            assert analytic._certified_sum([np.array([1.0, bad])], 0.0) is None

    def test_sum_falls_back_to_fsum(self, monkeypatch):
        cases = list(random_instances(11, 40, 20_000))
        expected = [analytic.expect_random_sum(*case) for case in cases]
        monkeypatch.setattr(analytic, "_certified_sum", lambda terms, rest: None)
        for case, certified in zip(cases, expected):
            assert analytic.expect_random_sum(*case) == certified
            assert certified.value == full_random_sum(*case)


class TestExpectRandomIntegral:
    def test_linear_case(self):
        # N * integral of (1-x) dx = N/2
        result = analytic.expect(
            RANDOM, RecParams(1, 0, 1), SystemParams(100, 1), Method.INTEGRAL
        )
        assert result.value == pytest.approx(50.0, rel=1e-10)
        assert result.error_bound == 1.0
        assert result.quadrature_tolerance == analytic.DEFAULT_QUADRATURE_TOL

    def test_within_additive_bound_of_sum(self):
        for p, q, r in ((1, 0, 2), (2, 1, 1), (3, 2, 2), (1, 2, 1)):
            rec = RecParams(p, q, r)
            for nodes in (12, 48, 96):
                for docs in (1, 5, nodes):
                    system = SystemParams(nodes, docs)
                    exact = analytic.expect_random_sum(rec, system).value
                    approx = analytic.expect(RANDOM, rec, system, Method.INTEGRAL).value
                    tol = 1.0 + nodes * analytic.DEFAULT_QUADRATURE_TOL
                    assert abs(exact - approx) <= tol

    def test_large_document_count_stays_finite(self):
        result = analytic.expect(
            RANDOM, RecParams(1, 0, 2), SystemParams(1000, 10**9), Method.INTEGRAL
        )
        assert 0.0 < result.value < 1000.0


class TestExpectRandomP1Beta:
    def test_closed_form_value(self):
        # N/s * B(D+1, 1/s) at q=0, r=2, N=48, D=5: 24 * 512/693
        result = analytic.expect(
            RANDOM, RecParams(1, 0, 2), SystemParams(48, 5), Method.BETA_EXACT
        )
        assert result.value == pytest.approx(24 * 512 / 693, rel=1e-12)
        assert result.error_bound == 1.0

    def test_linear_growth_at_fixed_docs(self):
        # at D=5 the closed form is the line (B(6,1/2)/2) * N = 0.3694 * N
        result = analytic.expect(
            RANDOM, RecParams(1, 0, 2), SystemParams(2976, 5), Method.BETA_EXACT
        )
        assert result.value == pytest.approx(
            (512 / 693) / 2 * 2976, rel=1e-12
        )

    def test_matches_integral_for_p1(self):
        for q, r in ((0, 2), (1, 1), (2, 1), (1, 2)):
            for nodes, docs in ((48, 5), (96, 96), (240, 7)):
                system = SystemParams(nodes, docs)
                closed = analytic.expect(
                    RANDOM, RecParams(1, q, r), system, Method.BETA_EXACT
                ).value
                quad = analytic.expect(
                    RANDOM, RecParams(1, q, r), system, Method.INTEGRAL
                ).value
                assert closed == pytest.approx(quad, rel=1e-8)

    def test_within_one_of_sum(self):
        for q, r in ((0, 2), (1, 1), (2, 1)):
            for nodes in (12, 48, 96):
                for docs in (1, 5, nodes):
                    system = SystemParams(nodes, docs)
                    closed = analytic.expect(
                        RANDOM, RecParams(1, q, r), system, Method.BETA_EXACT
                    ).value
                    exact = analytic.expect_random_sum(
                        RecParams(1, q, r), system
                    ).value
                    assert abs(closed - exact) <= 1.0


class TestExpectRandomAsymptotic:
    def test_sqrt_n_shape(self):
        # p=1, q=0, r=2, D=N: Gamma(3/2) * sqrt(N)
        for nodes in (48, 2976):
            result = analytic.expect(
                RANDOM, RecParams(1, 0, 2), SystemParams(nodes, nodes),
                Method.ASYMPTOTIC,
            )
            assert result.value == pytest.approx(
                GAMMA_3_2 * math.sqrt(nodes), rel=1e-12
            )
            assert result.error_bound is None

    def test_two_thirds_shape(self):
        # p=1, q=2, r=1, D=N: Gamma(4/3) * N^(2/3)
        result = analytic.expect(
            RANDOM, RecParams(1, 2, 1), SystemParams(1000, 1000), Method.ASYMPTOTIC
        )
        assert result.value == pytest.approx(
            GAMMA_4_3 * 1000 ** (2 / 3), rel=1e-12
        )

    def test_fixed_docs_scales_with_inverse_root_of_docs(self):
        # Gamma(3/2) * N / sqrt(D) at p=1, q=0, r=2
        result = analytic.expect(
            RANDOM, RecParams(1, 0, 2), SystemParams(2976, 5), Method.ASYMPTOTIC
        )
        assert result.value == pytest.approx(
            GAMMA_3_2 * 2976 / math.sqrt(5), rel=1e-12
        )

    def test_ratio_to_exact_shrinks_with_docs(self):
        deviations = []
        for docs in (10**2, 10**4, 10**6):
            system = SystemParams(10**9, docs)
            exact = analytic.expect(
                RANDOM, RecParams(1, 0, 2), system, Method.BETA_EXACT
            ).value
            asym = analytic.expect(
                RANDOM, RecParams(1, 0, 2), system, Method.ASYMPTOTIC
            ).value
            deviations.append(abs(asym / exact - 1.0))
        assert deviations[0] > deviations[1] > deviations[2]
        assert deviations[2] < 1e-3


class TestExpectSymmetric:
    def test_pinned_integral_values(self):
        cases = (
            (RecParams(1, 0, 2), SystemParams(4, 2), Fraction(8, 3)),
            (RecParams(1, 1, 1), SystemParams(8, 4), Fraction(128, 35)),
            (RecParams(2, 1, 1), SystemParams(6, 2), Fraction(13, 5)),
        )
        for rec, system, expected in cases:
            result = analytic.expect(SYMMETRIC, rec, system, Method.INTEGRAL)
            assert result.value == pytest.approx(float(expected), rel=1e-10)
            assert result.error_bound == 0.0

    def test_matches_combinatorial_oracle(self):
        # (6, 0, 3): ln(1 - I^r) must reach -inf where I rounds to 1
        for p, q, r in ((1, 0, 2), (2, 1, 1), (1, 1, 2), (2, 2, 1), (6, 0, 3)):
            rec = RecParams(p, q, r)
            nodes = rec.fragments * 5
            system = SystemParams(nodes, nodes // rec.fragments)
            exact = float(
                oracle.exact_symmetric_expectation(
                    rec, system, LossSemantics.PER_CLUSTER
                )
            )
            got = analytic.expect(SYMMETRIC, rec, system, Method.INTEGRAL).value
            assert got == pytest.approx(exact, rel=1e-8)

    def test_p1_beta_closed_form(self):
        result = analytic.expect(
            SYMMETRIC, RecParams(1, 1, 1), SystemParams(8, 4), Method.BETA_EXACT
        )
        assert result.value == pytest.approx(128 / 35, rel=1e-12)
        assert result.error_bound == 0.0

    def test_p1_beta_equals_integral(self):
        for q, r, nodes in ((0, 2, 48), (1, 1, 96), (2, 1, 48), (1, 2, 64)):
            system = SystemParams(nodes, nodes)
            closed = analytic.expect(
                SYMMETRIC, RecParams(1, q, r), system, Method.BETA_EXACT
            ).value
            quad = analytic.expect(
                SYMMETRIC, RecParams(1, q, r), system, Method.INTEGRAL
            ).value
            assert closed == pytest.approx(quad, rel=1e-9)

    def test_docs_do_not_change_value(self):
        rec = RecParams(1, 1, 1)
        results = {
            analytic.expect(
                SYMMETRIC, rec, SystemParams(96, docs), Method.INTEGRAL
            ).value
            for docs in (48, 96, 480, 10**6)
        }
        assert len(results) == 1

    def test_asymptotic_sqrt_2n(self):
        result = analytic.expect(
            SYMMETRIC, RecParams(1, 1, 1), SystemParams(2976, 1488), Method.ASYMPTOTIC
        )
        assert result.value == pytest.approx(
            GAMMA_3_2 * math.sqrt(2 * 2976), rel=1e-12
        )

    def test_asymptotic_cube_root_shapes(self):
        # (2,2,1): the placement-group factor cancels the code factor
        result = analytic.expect(
            SYMMETRIC, RecParams(2, 2, 1), SystemParams(1200, 300), Method.ASYMPTOTIC
        )
        assert result.value == pytest.approx(
            GAMMA_4_3 * 1200 ** (2 / 3), rel=1e-12
        )
        # (1,2,1): extra 3^(1/3)
        result = analytic.expect(
            SYMMETRIC, RecParams(1, 2, 1), SystemParams(1200, 400), Method.ASYMPTOTIC
        )
        assert result.value == pytest.approx(
            GAMMA_4_3 * 3 ** (1 / 3) * 1200 ** (2 / 3), rel=1e-12
        )

    # (code, N = D, rule): the documents wrap, and g does not divide N
    @pytest.mark.parametrize("code, nodes, semantics", [
        ((1, 1, 1), 2977, PC), ((2, 2, 1), 2978, MS), ((1, 2, 1), 997, PC),
    ])
    def test_asymptotic_counts_wrapped_windows(self, code, nodes, semantics):
        # the leading term takes the N/gcd(N, g) distinct windows the
        # documents hold, not the N/g disjoint groups, and so meets simulate
        rec, system = RecParams(*code), SystemParams(nodes, nodes)
        leading = analytic.expect(SYMMETRIC, rec, system, Method.ASYMPTOTIC,
                                  semantics=semantics).value
        config = simulator.SimConfig(SYMMETRIC, (simulator.WorkloadClass(rec, nodes),),
                                     nodes, 2000, 1, semantics)
        assert leading == pytest.approx(simulator.simulate(config).mean, rel=0.1)

    def test_precondition_violations_raise(self):
        # only documents that wrap around N nodes with g = 2 not dividing N
        # leave the theory: 7 on 7 nodes, 5 on 9
        rec = RecParams(1, 1, 1)
        for system in (SystemParams(7, 7), SystemParams(9, 5)):
            for method in (Method.INTEGRAL, Method.BETA_EXACT):
                with pytest.raises(ParameterError, match="symmetric placement wraps"):
                    analytic.expect(SYMMETRIC, rec, system, method)
        # 2 documents on 8 nodes do not wrap: 9 * integral of (1 - x^2)^2
        for method in (Method.INTEGRAL, Method.BETA_EXACT):
            result = analytic.expect(SYMMETRIC, rec, SystemParams(8, 2), method)
            assert result.value == pytest.approx(24 / 5, rel=1e-14)


class TestDispatch:
    def test_random_all_methods(self):
        rec = RecParams(1, 0, 2)
        system = SystemParams(48, 5)
        for method in Method:
            result = analytic.expect(PlacementStrategy.RANDOM, rec, system, method)
            assert result.method is method
            assert result.value > 0

    def test_symmetric_rejects_sum(self):
        with pytest.raises(ParameterError, match="symmetric.*sum"):
            analytic.expect(
                PlacementStrategy.SYMMETRIC,
                RecParams(1, 0, 2), SystemParams(4, 2), Method.EXACT_SUM,
            )

    def test_beta_exact_requires_p1(self):
        for strategy, system in (
            (PlacementStrategy.RANDOM, SystemParams(12, 3)),
            (PlacementStrategy.SYMMETRIC, SystemParams(12, 2)),
        ):
            with pytest.raises(ParameterError, match=f"{strategy.value} beta-exact"):
                analytic.expect(strategy, RecParams(2, 1, 1), system, Method.BETA_EXACT)

    def test_names_are_not_routes(self):
        rec, system = RecParams(1, 0, 2), SystemParams(4, 2)
        with pytest.raises(ParameterError):
            analytic.expect("random", rec, system, Method.EXACT_SUM)
        with pytest.raises(ParameterError):
            analytic.expect(PlacementStrategy.RANDOM, rec, system, "sum")

    def test_rec_and_systems_are_typed(self):
        # checked with the shared arguments, for every method
        rec, system = RecParams(2, 1, 2), SystemParams(48, 8)
        for method in Method:
            with pytest.raises(ParameterError, match="expect needs a RecParams"):
                analytic.expect(RANDOM, (2, 1, 2), system, method)
            with pytest.raises(ParameterError, match="expect needs a SystemParams"):
                analytic.expect(SYMMETRIC, rec, (48, 8), method)
            with pytest.raises(ParameterError, match="expect needs a SystemParams"):
                analytic.expect_many(SYMMETRIC, rec, [system, (48, 8)], method)
            with pytest.raises(ParameterError, match="expect needs a RecParams"):
                analytic.expect_many(SYMMETRIC, "2,1,2", [system], method)
        # a point's own ParameterError (its 9 documents wrap around 49
        # nodes) is still an empty entry
        assert analytic.expect_many(
            SYMMETRIC, rec, iter([system, SystemParams(49, 9)]), Method.INTEGRAL
        )[1:] == [None]

    def test_a_lone_system_raises_parameter_error(self):
        with pytest.raises(ParameterError, match="systems must be an iterable"):
            analytic.expect_many(RANDOM, RecParams(2, 1, 2), SystemParams(48, 5),
                                 Method.INTEGRAL)

    # each public analytic function, called with a rec and a system; q
    # stands in for max_over_p_check's rec
    PUBLIC = {
        "expect": lambda rec, system: analytic.expect(
            RANDOM, rec, system, Method.INTEGRAL),
        "expect_many": lambda rec, system: analytic.expect_many(
            RANDOM, rec, [system], Method.INTEGRAL),
        "expect_random_sum": analytic.expect_random_sum,
        "survival_random": lambda rec, system: analytic.survival_random(
            1, rec, system),
        "survival_curve_random": analytic.survival_curve_random,
        "max_over_p_check": lambda rec, system: analytic.max_over_p_check(
            rec.q if isinstance(rec, RecParams) else rec, 1, system, 2),
    }

    @pytest.mark.parametrize("name", PUBLIC)
    @pytest.mark.parametrize("wrong", ["rec", "system"])
    def test_wrong_record_type_raises_parameter_error(self, name, wrong):
        call = self.PUBLIC[name]
        rec, system = RecParams(1, 0, 1), SystemParams(12, 12)
        assert call(rec, system) is not None
        if wrong == "rec":
            rec = (1, 0, 1)
        else:
            system = (12, 12)
        with pytest.raises(ParameterError):
            call(rec, system)

    def test_exact_method_is_exact(self):
        rec = RecParams(1, 0, 2)
        system = SystemParams(4, 2)
        for strategy in PlacementStrategy:
            method = analytic.EXACT_METHOD[strategy]
            assert analytic.expect(strategy, rec, system, method).error_bound == 0.0


class TestFloatRange:
    # D past the float range: phi^D has no float exponent
    HUGE = SystemParams(1000, 10**400)

    @pytest.mark.parametrize("method", [Method.EXACT_SUM, Method.INTEGRAL,
                                        Method.BETA_EXACT])
    def test_float_routes_raise_parameter_error(self, method):
        with pytest.raises(ParameterError, match=r"docs must be at most .*1e400"):
            analytic.expect(RANDOM, RecParams(1, 0, 2), self.HUGE, method)

    def test_survival_terms_raise_parameter_error(self):
        rec = RecParams(1, 0, 2)
        with pytest.raises(ParameterError, match="docs must be at most"):
            analytic.survival_random(1, rec, self.HUGE)
        with pytest.raises(ParameterError, match="docs must be at most"):
            analytic.survival_curve_random(rec, self.HUGE)

    def test_largest_float_docs_still_run(self):
        system = SystemParams(1000, int(sys.float_info.max))
        result = analytic.expect(RANDOM, RecParams(1, 0, 2), system, Method.EXACT_SUM)
        assert result.value == 1.0

    def test_asymptotic_takes_any_docs(self):
        result = analytic.expect(
            RANDOM, RecParams(1, 0, 2), self.HUGE, Method.ASYMPTOTIC
        )
        assert 0.0 < result.value < 1e-190

    # every route of each strategy, with the N limit it names
    ROUTES = [(strategy, method) for strategy in PlacementStrategy
              for method in Method
              if strategy is RANDOM or method is not Method.EXACT_SUM]
    LARGEST_FLOAT_NODES = int(sys.float_info.max)  # 2^971 (2^53 - 1)
    LARGEST_SUM_NODES = int(np.iinfo(np.intp).max) - 1  # N + 1 terms

    @pytest.mark.parametrize("strategy, method", ROUTES)
    def test_nodes_past_range_raise_parameter_error(self, strategy, method):
        # N past the float range, with D = N, which the symmetric
        # preconditions take; the limit named is the route's own
        nodes = 10**400
        limit = (self.LARGEST_SUM_NODES if method is Method.EXACT_SUM
                 else 1.79769e+308)
        with pytest.raises(ParameterError, match=re.escape(
            f"nodes must be at most {limit} for the "
        ) + ".*1e400"):
            analytic.expect(strategy, RecParams(1, 0, 2),
                            SystemParams(nodes, nodes), method)

    @pytest.mark.parametrize("strategy, method", ROUTES)
    def test_docs_past_range_name_the_route(self, strategy, method):
        # random placement raises phi to D, which the asymptotic takes in
        # logarithms; symmetric placement raises it to min(D, N/g) = N/g
        call = lambda: analytic.expect(strategy, RecParams(1, 0, 2), self.HUGE, method)
        if strategy is RANDOM and method is not Method.ASYMPTOTIC:
            with pytest.raises(ParameterError, match=re.escape(
                f"docs must be at most 1.79769e+308 for the {method.value} route, "
                "got about 1e400"
            )):
                call()
        else:
            assert 0.0 < call().value < math.inf

    @pytest.mark.parametrize("strategy, method", ROUTES)
    def test_largest_nodes_still_run(self, strategy, method):
        nodes = (self.LARGEST_SUM_NODES if method is Method.EXACT_SUM
                 else self.LARGEST_FLOAT_NODES)
        # D = 1e300 keeps the sum's head at a few terms
        docs = 10**300 if method is Method.EXACT_SUM else nodes
        result = analytic.expect(strategy, RecParams(1, 0, 2),
                                 SystemParams(nodes, docs), method)
        assert 0.0 < result.value < math.inf

    @pytest.mark.parametrize("nodes", [LARGEST_SUM_NODES + 1, 10**20],
                             ids=["intp-max", "1e20"])
    def test_nodes_past_intp_raise_parameter_error(self, nodes):
        # N + 1 survival terms must have an np.intp index; D = 1e300
        # keeps the head short should that check be missing
        rec, system = RecParams(1, 0, 2), SystemParams(nodes, 10**300)
        match = f"nodes must be at most {self.LARGEST_SUM_NODES} for the sum"
        for call in (
            lambda: analytic.expect(RANDOM, rec, system, Method.EXACT_SUM),
            lambda: analytic.survival_random(1, rec, system),
            lambda: analytic.survival_curve_random(rec, system),
        ):
            with pytest.raises(ParameterError, match=match):
                call()
        # the float routes still take this N
        assert analytic.expect(RANDOM, rec, system, Method.INTEGRAL).value > 0.0

    def test_survival_random_at_largest_sum_nodes(self):
        system = SystemParams(self.LARGEST_SUM_NODES, 5)
        rec = RecParams(1, 0, 2)
        assert analytic.survival_random(1, rec, system) == 1.0
        assert analytic.survival_random(system.nodes, rec, system) == 0.0

    @pytest.mark.parametrize("docs", [10**200, 10**300], ids=["1e200", "1e300"])
    def test_beta_exact_past_stirling_square(self, docs):
        # Beta(D + 1, 1/s) takes Stirling's series at an int D + 1 whose
        # square has no float; the closed form still meets the asymptotic
        # one, which its relative correction O(1/D) leaves exact here
        rec, system = RecParams(1, 0, 2), SystemParams(1000, docs)
        exact = analytic.expect(RANDOM, rec, system, Method.BETA_EXACT).value
        leading = analytic.expect(RANDOM, rec, system, Method.ASYMPTOTIC).value
        assert exact == pytest.approx(leading, rel=1e-12, abs=0.0)
        # the symmetric power N/g
        nodes = 2 * docs
        system = SystemParams(nodes, nodes)
        exact = analytic.expect(SYMMETRIC, rec, system, Method.BETA_EXACT).value
        leading = analytic.expect(SYMMETRIC, rec, system, Method.ASYMPTOTIC).value
        assert exact == pytest.approx(leading, rel=1e-12, abs=0.0)

    def test_symmetric_power_below_n_over_g_at_1e300_nodes(self):
        # 10 documents on 1e300 nodes do not wrap, so the exact routes raise
        # phi = 1 - x^2 to D = 10: (N+1) sum_k C(10, k) (-1)^k / (2k + 1)
        rec, system = RecParams(1, 0, 2), SystemParams(10**300, 10)
        integral = sum(Fraction((-1) ** k * math.comb(10, k), 2 * k + 1)
                       for k in range(11))
        expected = float((system.nodes + 1) * integral)
        for method in (Method.INTEGRAL, Method.BETA_EXACT):
            value = analytic.expect(SYMMETRIC, rec, system, method).value
            assert value == pytest.approx(expected, rel=1e-10)


class TestSemantics:
    """Every route under both loss rules, not only each strategy's default."""

    def test_default_is_per_strategy(self):
        rec = RecParams(2, 1, 2)
        for strategy, system in ((RANDOM, SystemParams(48, 5)),
                                 (SYMMETRIC, SystemParams(48, 8))):
            default = default_semantics(strategy)
            for method in (Method.INTEGRAL, Method.ASYMPTOTIC):
                assert analytic.expect(strategy, rec, system, method) == (
                    analytic.expect(strategy, rec, system, method, semantics=default)
                )

    def test_a_name_is_its_rule(self):
        rec = RecParams(2, 1, 2)
        for strategy, system in ((RANDOM, SystemParams(48, 5)),
                                 (SYMMETRIC, SystemParams(48, 8))):
            for rule in (MS, PC):
                member = analytic.expect(strategy, rec, system, Method.INTEGRAL,
                                         semantics=rule)
                assert analytic.expect(strategy, rec, system, Method.INTEGRAL,
                                       semantics=rule.value) == member
                assert analytic.expect_many(strategy, rec, [system], Method.INTEGRAL,
                                            semantics=rule.value) == [member]
        for name, run in self.RULE_READERS.items():
            assert run(MS) != run(PC), name
            for rule in (MS, PC):
                assert run(rule.value) == run(rule), (name, rule)

    # the functions that read a loss rule with no strategy to default it
    # from; each gives different results under the two rules here
    RULE_READERS = {
        "persistency": lambda rule: simulator.persistency(
            RecParams(2, 1, 2), simulator.place_symmetric(RecParams(2, 1, 2),
                                                          SystemParams(12, 2)),
            [9, 2, 7, 4, 5, 11, 0, 3, 6, 10, 8, 1], rule),
        "is_document_lost": lambda rule: is_document_lost(
            RecParams(2, 1, 2), [[True, True, False], [False, True, True]], rule),
        "group_polynomial": lambda rule: oracle.group_polynomial(
            RecParams(2, 1, 2), rule),
        "exact_symmetric_survival": lambda rule: oracle.exact_symmetric_survival(
            RecParams(2, 1, 2), SystemParams(12, 2), rule),
        "exact_symmetric_expectation": lambda rule: oracle.exact_symmetric_expectation(
            RecParams(2, 1, 2), SystemParams(12, 2), rule),
        "brute_force_symmetric": lambda rule: oracle.brute_force_symmetric(
            RecParams(2, 1, 2), SystemParams(6, 1), rule),
        "brute_force_random": lambda rule: oracle.brute_force_random(
            RecParams(2, 0, 2), SystemParams(3, 1), rule),
    }

    # every entry point that takes a loss rule: the five analytic ones,
    # whose None is the strategy's default, and the rule readers
    BY_RULE = {
        "expect": lambda rule: analytic.expect(
            RANDOM, RecParams(2, 1, 2), SystemParams(48, 5), Method.EXACT_SUM,
            semantics=rule),
        "expect_many": lambda rule: analytic.expect_many(
            SYMMETRIC, RecParams(2, 1, 2), [SystemParams(48, 8)], Method.INTEGRAL,
            semantics=rule),
        "expect_random_sum": lambda rule: analytic.expect_random_sum(
            RecParams(2, 1, 2), SystemParams(48, 5), rule),
        "survival_random": lambda rule: analytic.survival_random(
            1, RecParams(2, 1, 2), SystemParams(48, 5), rule),
        "survival_curve_random": lambda rule: analytic.survival_curve_random(
            RecParams(2, 1, 2), SystemParams(48, 5), rule),
        **RULE_READERS,
    }

    @pytest.mark.parametrize("name", BY_RULE)
    @pytest.mark.parametrize("rule", ["bogus", 3])
    def test_rejects_what_names_no_rule(self, name, rule):
        with pytest.raises(ParameterError, match="semantics must be one of"):
            self.BY_RULE[name](rule)

    @pytest.mark.parametrize("name", RULE_READERS)
    def test_a_rule_reader_has_no_default(self, name):
        with pytest.raises(ParameterError, match="semantics must be one of"):
            self.RULE_READERS[name](None)

    def test_symmetric_integral_matches_oracle(self):
        worst = 0.0
        for p, q, r in itertools.product((1, 2, 3), (0, 1, 2), (1, 2, 3)):
            rec = RecParams(p, q, r)
            g = rec.fragments
            if g > 20:
                continue
            for nodes in (g * k for k in (1, 2, 5) if g * k <= 120):
                system = SystemParams(nodes, nodes // g)
                for semantics in (MS, PC):
                    exact = float(
                        oracle.exact_symmetric_expectation(rec, system, semantics)
                    )
                    got = analytic.expect(
                        SYMMETRIC, rec, system, Method.INTEGRAL, semantics=semantics
                    ).value
                    worst = max(worst, abs(got - exact) / exact)
        assert worst <= 1e-13

    def test_per_cluster_loses_no_later(self):
        # a document alive under PER_CLUSTER is alive under MULTISET, and the
        # rules coincide at p = 1 or r = 1
        for p, q, r in ((2, 1, 2), (3, 0, 2), (2, 2, 3), (1, 1, 3), (3, 1, 1)):
            rec = RecParams(p, q, r)
            random_system = SystemParams(60, 7)
            symmetric_system = SystemParams(rec.fragments * 10, 10)
            values = {
                semantics: (
                    analytic.expect_random_sum(rec, random_system, semantics).value,
                    analytic.expect(SYMMETRIC, rec, symmetric_system,
                                    Method.INTEGRAL, semantics=semantics).value,
                )
                for semantics in (MS, PC)
            }
            for multiset, per_cluster in zip(values[MS], values[PC]):
                if p == 1 or r == 1:
                    assert per_cluster == pytest.approx(multiset, rel=1e-14)
                else:
                    assert per_cluster < multiset

    def test_random_per_cluster_integral_within_bound(self):
        for p, q, r in ((2, 1, 2), (3, 2, 2), (2, 0, 3)):
            rec = RecParams(p, q, r)
            for nodes, docs in ((12, 1), (48, 5), (96, 96)):
                system = SystemParams(nodes, docs)
                exact = analytic.expect_random_sum(rec, system, PC).value
                approx = analytic.expect(
                    RANDOM, rec, system, Method.INTEGRAL, semantics=PC
                )
                assert approx.error_bound == 1.0
                tol = 1.0 + nodes * analytic.DEFAULT_QUADRATURE_TOL
                assert abs(exact - approx.value) <= tol

    def test_asymptotic_leading_coefficient(self):
        # REC(2,3,2), s = 4: kappa = C(3,2) = 3 under MULTISET, 3^2 per cluster
        rec, gamma = RecParams(2, 1, 2), math.gamma(1.25)
        for strategy, system, power in (
            (RANDOM, SystemParams(2976, 5), 5),
            (SYMMETRIC, SystemParams(2976, 496), 496),
        ):
            for semantics, kappa in ((MS, 3), (PC, 9)):
                result = analytic.expect(
                    strategy, rec, system, Method.ASYMPTOTIC, semantics=semantics
                )
                assert result.value == pytest.approx(
                    gamma * 2976 * (kappa * power) ** -0.25, rel=1e-14
                )

    def test_tail_follows_the_thresholds(self):
        # s = hit_at lost_at and kappa = C(units, lost_at) C(length, hit_at)^lost_at
        # are the explicit r(q+1), C(p+q, q+1) and C(p+q, q+1)^r
        for p, q, r in itertools.product(range(1, 5), range(4), range(1, 5)):
            rec, kappa = RecParams(p, q, r), math.comb(p + q, q + 1)
            assert analytic._tail(rec, MS) == (r * (q + 1), kappa)
            assert analytic._tail(rec, PC) == (r * (q + 1), kappa**r)

    def test_asymptotic_is_defined_off_the_symmetric_grid(self):
        rec, system = RecParams(1, 1, 1), SystemParams(7, 7)
        with pytest.raises(ParameterError):
            analytic.expect(SYMMETRIC, rec, system, Method.INTEGRAL)
        # 7 distinct windows on 7 nodes: Gamma(3/2) * 7 / sqrt(7)
        result = analytic.expect(SYMMETRIC, rec, system, Method.ASYMPTOTIC)
        assert result.value == pytest.approx(GAMMA_3_2 * math.sqrt(7), rel=1e-14)

    def test_asymptotic_takes_d_below_n_over_g(self):
        # 5 documents on 96 nodes: the power is D = 5, not N/g = 48
        result = analytic.expect(SYMMETRIC, RecParams(1, 1, 1), SystemParams(96, 5),
                                 Method.ASYMPTOTIC)
        assert result.value == pytest.approx(GAMMA_3_2 * 96 / math.sqrt(5), rel=1e-14)

    def test_survival_curve_under_per_cluster(self):
        # one document, REC(2,2,2): a cluster dies once either chunk is
        # erased, 1 - (1-x)^2, and the document once both clusters have
        rec, system = RecParams(2, 0, 2), SystemParams(10, 1)
        curve = analytic.survival_curve_random(rec, system, PC)
        for l, prob in enumerate(curve):
            x = l / 10
            assert prob == pytest.approx(1 - (1 - (1 - x) ** 2) ** 2, abs=1e-15)
            assert prob == analytic.survival_random(l, rec, system, PC)


class TestQuadrature:
    # (strategy, rec, system) for both integral routes
    CASES = (
        (PlacementStrategy.RANDOM, RecParams(2, 1, 2), SystemParams(1000, 10**6)),
        (PlacementStrategy.SYMMETRIC, RecParams(2, 1, 2), SystemParams(1200, 200)),
    )

    @pytest.mark.parametrize(
        "tol", [math.nan, math.inf, 0.0, -1.0, 1.0, 1e-16,
                analytic.MIN_QUADRATURE_TOL / 2],
    )
    def test_tol_validation(self, tol):
        for strategy, rec, system in self.CASES:
            with pytest.raises(ParameterError, match="tol must lie"):
                analytic.expect(strategy, rec, system, Method.INTEGRAL, tol)

    @pytest.mark.parametrize("method", list(Method))
    def test_tol_validated_on_every_method(self, method):
        # one p = 1 case that every method has a route for
        with pytest.raises(ParameterError, match="tol must lie"):
            analytic.expect(PlacementStrategy.RANDOM, RecParams(1, 1, 2),
                            SystemParams(1000, 10), method, math.nan)

    def test_reports_error_and_evaluations(self):
        for strategy, rec, system in self.CASES:
            for tol in (1e-6, analytic.DEFAULT_QUADRATURE_TOL):
                result = analytic.expect(strategy, rec, system, Method.INTEGRAL, tol)
                assert result.quadrature_tolerance == tol
                assert 0.0 <= result.quadrature_error <= tol
                # at least one round: 15 nodes per panel, plus the tail's edge
                assert result.quadrature_evals >= 16
                assert result.sum_terms is None
        result = analytic.expect_random_sum(RecParams(2, 1, 2), SystemParams(100, 10))
        assert result.quadrature_error is None
        assert result.quadrature_evals is None

    def test_tighter_tol_is_at_least_as_close(self):
        rec, system = RecParams(1, 1, 1), SystemParams(96, 48)
        exact = float(oracle.exact_symmetric_expectation(
            rec, system, LossSemantics.PER_CLUSTER))
        loose = analytic.expect(SYMMETRIC, rec, system, Method.INTEGRAL, 1e-4)
        tight = analytic.expect(SYMMETRIC, rec, system, Method.INTEGRAL, 1e-13)
        assert abs(loose.value - exact) <= 1e-4 * exact
        assert abs(tight.value - exact) <= 1e-13 * exact
        assert tight.quadrature_evals >= loose.quadrature_evals

    def test_floor_is_reached_on_benchmark_grid(self):
        # the benchmark's analytic grid: random integrals depend on the code
        # and D only (N scales them), symmetric ones on the code and N
        codes = ((1, 0, 2), (1, 1, 2), (2, 1, 2), (1, 2, 1), (3, 2, 2))
        tol = analytic.MIN_QUADRATURE_TOL
        for p, q, r in codes:
            rec = RecParams(p, q, r)
            for docs in (10**3, 10**6, 10**9):
                result = analytic.expect(
                    RANDOM, rec, SystemParams(1000, docs), Method.INTEGRAL, tol
                )
                assert result.quadrature_error <= tol
            for nodes in (1200, 12000, 120000, 1200000):
                result = analytic.expect(
                    SYMMETRIC, rec, SystemParams(nodes, nodes), Method.INTEGRAL, tol
                )
                assert result.quadrature_error <= tol

    def test_many_equals_one_by_one(self, monkeypatch):
        # a panel budget of 20 at tol 1e-14 lets some integrals converge in
        # later rounds and stops others, beside points that fail the
        # symmetric preconditions; each is the integral expect gives alone
        monkeypatch.setattr(analytic, "_MAX_PANELS", 20)
        rec, tol = RecParams(3, 2, 2), 1e-14
        cases = (
            (SYMMETRIC, [SystemParams(n, max(1, n // 10))
                         for n in (6, 7, 12, 60, 600, 1200, 6000, 12000)]),
            (RANDOM, [SystemParams(n, d)
                      for n in (10, 1000) for d in (1, 10**3, 10**9)]),
        )
        kinds = set()
        for strategy, systems in cases:
            many = analytic.expect_many(
                strategy, rec, systems, Method.INTEGRAL, tol, PC
            )
            for system, got in zip(systems, many, strict=True):
                try:
                    one = analytic.expect(
                        strategy, rec, system, Method.INTEGRAL, tol, PC
                    )
                except (ParameterError, QuadratureError) as exc:
                    kinds.add(type(exc))
                    assert got is None
                    continue
                kinds.add(one.quadrature_evals > 15 * 11 + 1)
                assert got == one
                assert got.value.hex() == one.value.hex()
        assert kinds == {ParameterError, QuadratureError, True}

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """The sizes of the arrays the integral routes pass to the kernel,
        one entry a call."""
        sizes = []
        log_survival = analytic._log_survival

        def counted(x, rec, semantics):
            sizes.append(np.size(x))
            return log_survival(x, rec, semantics)

        monkeypatch.setattr(analytic, "_log_survival", counted)
        return sizes

    @pytest.mark.parametrize("preset", ["fig7", "fig9"])
    def test_sweep_column_shares_kernel_calls(self, preset, kernel_calls):
        # every integral of the 62-point grid converges in its first round,
        # so its 4 groups of _SHARED_INTEGRALS take one kernel call each
        spec = sweep.preset_spec(preset)
        systems = [SystemParams(n, spec.docs_at(n)) for n in spec.nodes]
        results = analytic.expect_many(
            spec.strategy, spec.rec, systems, Method.INTEGRAL,
            semantics=spec.semantics,
        )
        assert len(systems) == 62 and None not in results
        assert len(kernel_calls) == 4
        assert sum(kernel_calls) == sum(r.quadrature_evals for r in results)

    @pytest.mark.parametrize("tol", [analytic.DEFAULT_QUADRATURE_TOL, 1e-14])
    def test_lone_integral_calls_kernel_once_a_round(self, tol, kernel_calls):
        # a round asks for 15 nodes a new panel and the tail edge T
        result = analytic.expect(RANDOM, RecParams(3, 2, 2), SystemParams(1000, 10**9),
                                 Method.INTEGRAL, tol, PC)
        assert sum(kernel_calls) == result.quadrature_evals
        assert all(size % 15 == 1 for size in kernel_calls)
        if tol == analytic.DEFAULT_QUADRATURE_TOL:
            assert kernel_calls == [result.quadrature_evals]
        else:
            assert len(kernel_calls) > 1  # the rule splits panels

    def test_many_checks_shared_arguments(self):
        systems = [SystemParams(1200, 200)]
        with pytest.raises(ParameterError, match="tol must lie"):
            analytic.expect_many(SYMMETRIC, RecParams(2, 1, 2), systems,
                                 Method.INTEGRAL, math.nan)
        with pytest.raises(ParameterError, match="expect needs"):
            analytic.expect_many("symmetric", RecParams(2, 1, 2), systems,
                                 Method.INTEGRAL)
        # a route the strategy lacks leaves every point empty
        assert analytic.expect_many(SYMMETRIC, RecParams(2, 1, 2), systems,
                                    Method.EXACT_SUM) == [None]
        assert analytic.expect_many(SYMMETRIC, RecParams(2, 1, 2), [],
                                    Method.INTEGRAL) == []

    def test_panel_limit_raises(self, starved_quadrature):
        for strategy, rec, system in self.CASES:
            with pytest.raises(QuadratureError) as info:
                analytic.expect(strategy, rec, system, Method.INTEGRAL)
            assert info.value.requested == analytic.DEFAULT_QUADRATURE_TOL
            assert info.value.achieved > info.value.requested

    def test_nan_integrand_raises(self, monkeypatch, capsys):
        # a nan value or error splits no panel; the rule stops with a typed
        # error instead of starting an empty round
        def nan_kernel(x, a, b):
            return np.full(np.shape(x), math.nan)

        monkeypatch.setattr(analytic, "log_reg_inc_beta_complement", nan_kernel)
        for strategy, rec, system in self.CASES:
            with pytest.raises(QuadratureError):
                analytic.expect(strategy, rec, system, Method.INTEGRAL)
            assert analytic.expect_many(strategy, rec, [system, system],
                                        Method.INTEGRAL) == [None, None]
            argv = (f"analytic --strategy {strategy.value} --p {rec.p} --q {rec.q} "
                    f"--r {rec.r} --nodes {system.nodes} --docs {system.docs} "
                    "--method integral")
            assert main(argv.split()) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: quadrature reached") and "Traceback" not in err


class TestSupportBound:
    def test_replication_heavy_bound(self):
        # p=1, q=0, r=2, N=4: groups survive up to 2 erasures, curve
        # support ends at l = 3
        rec = RecParams(1, 0, 2)
        assert oracle.symmetric_survival_l_max(rec, SystemParams(4, 2)) == 3

    def test_requires_divisibility(self):
        # 5 documents wrap around 5 nodes, and g = 2 does not divide 5
        rec = RecParams(1, 0, 2)
        with pytest.raises(ParameterError, match="symmetric placement wraps"):
            oracle.symmetric_survival_l_max(rec, SystemParams(5, 5))
        # 2 do not wrap: each keeps one of its 2 nodes, and the fifth is free
        assert oracle.symmetric_survival_l_max(rec, SystemParams(5, 2)) == 4

    def test_count_past_the_bound_raises(self, monkeypatch):
        # Pr[X > l_max] = 0, so a bound two short of l_max cuts off the
        # last survival count, and that must not pass unseen
        l_max = oracle.symmetric_survival_l_max
        monkeypatch.setattr(
            oracle, "symmetric_survival_l_max",
            lambda rec, system: l_max(rec, system) - 2,
        )
        with pytest.raises(RuntimeError, match="beyond the support bound"):
            oracle.exact_symmetric_survival(
                RecParams(1, 0, 2), SystemParams(4, 2), LossSemantics.PER_CLUSTER
            )

    def test_matches_oracle_support(self):
        for p, q, r in ((1, 0, 2), (2, 1, 2), (1, 2, 1), (3, 1, 1)):
            rec = RecParams(p, q, r)
            # 3 documents fill N = 3g, and leave one node free at 3g + 1
            for nodes in (rec.fragments * 3, rec.fragments * 3 + 1):
                system = SystemParams(nodes, 3)
                curve = oracle.exact_symmetric_survival(
                    rec, system, LossSemantics.PER_CLUSTER
                )
                l_max = oracle.symmetric_survival_l_max(rec, system)
                assert len(curve) == l_max + 1
                assert curve[l_max - 1] > 0


class TestMaxOverP:
    def test_small_grid_passes(self):
        for q, r in ((0, 1), (0, 2), (1, 1), (1, 2)):
            nodes = 12 * (1 + q) * r
            assert analytic.max_over_p_check(
                q, r, SystemParams(nodes, nodes), p_max=3
            )

    def test_increase_in_p_fails(self, monkeypatch):
        # E[X] standing in as p itself grows with p under both strategies
        expect = analytic.expect
        monkeypatch.setattr(
            analytic, "expect", lambda strategy, rec, system, method: replace(
                expect(strategy, rec, system, method), value=float(rec.p)),
        )
        assert analytic.max_over_p_check(0, 1, SystemParams(12, 12), p_max=2) is False

    def test_p_max_validation(self):
        with pytest.raises(ParameterError):
            analytic.max_over_p_check(0, 1, SystemParams(12, 12), p_max=0)
        with pytest.raises(ParameterError, match="p_max must be an integer"):
            analytic.max_over_p_check(1, 1, SystemParams(12, 12), p_max=2.5)
