"""Formula layer: survival probabilities, expectations, asymptotics."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rec_persist import analytic, oracle
from rec_persist.analytic import Method
from rec_persist.errors import ParameterError, QuadratureError
from rec_persist.model import (
    LossSemantics,
    PlacementStrategy,
    RecParams,
    SystemParams,
    default_semantics,
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

    def test_precondition_violations_raise(self):
        with pytest.raises(ParameterError):
            analytic.expect(
                SYMMETRIC, RecParams(1, 1, 1), SystemParams(7, 7), Method.INTEGRAL
            )
        with pytest.raises(ParameterError):
            analytic.expect(
                SYMMETRIC, RecParams(1, 1, 1), SystemParams(8, 2), Method.INTEGRAL
            )
        with pytest.raises(ParameterError):
            analytic.expect(
                SYMMETRIC, RecParams(1, 1, 1), SystemParams(7, 7), Method.BETA_EXACT
            )


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

    def test_exact_method_is_exact(self):
        rec = RecParams(1, 0, 2)
        system = SystemParams(4, 2)
        for strategy in PlacementStrategy:
            method = analytic.EXACT_METHOD[strategy]
            assert analytic.expect(strategy, rec, system, method).error_bound == 0.0


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

    def test_rejects_non_semantics(self):
        with pytest.raises(ParameterError, match="LossSemantics"):
            analytic.expect(
                RANDOM, RecParams(2, 1, 2), SystemParams(48, 5), Method.EXACT_SUM,
                semantics="per-cluster",
            )

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
        result = analytic.expect(SYMMETRIC, rec, system, Method.ASYMPTOTIC)
        assert result.value == pytest.approx(GAMMA_3_2 * math.sqrt(2 * 7), rel=1e-14)

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

    def test_panel_limit_raises(self, starved_quadrature):
        for strategy, rec, system in self.CASES:
            with pytest.raises(QuadratureError) as info:
                analytic.expect(strategy, rec, system, Method.INTEGRAL)
            assert info.value.requested == analytic.DEFAULT_QUADRATURE_TOL
            assert info.value.achieved > info.value.requested


class TestSupportBound:
    def test_replication_heavy_bound(self):
        # p=1, q=0, r=2, N=4: groups survive up to 2 erasures, curve
        # support ends at l = 3
        assert oracle.symmetric_survival_l_max(RecParams(1, 0, 2), 4) == 3

    def test_requires_divisibility(self):
        with pytest.raises(ParameterError):
            oracle.symmetric_survival_l_max(RecParams(1, 0, 2), 5)

    def test_matches_oracle_support(self):
        for p, q, r in ((1, 0, 2), (2, 1, 2), (1, 2, 1), (3, 1, 1)):
            rec = RecParams(p, q, r)
            nodes = rec.fragments * 3
            system = SystemParams(nodes, 3)
            curve = oracle.exact_symmetric_survival(
                rec, system, LossSemantics.PER_CLUSTER
            )
            l_max = oracle.symmetric_survival_l_max(rec, nodes)
            assert len(curve) == l_max + 1
            assert curve[l_max - 1] > 0


class TestMaxOverP:
    def test_small_grid_passes(self):
        for q, r in ((0, 1), (0, 2), (1, 1), (1, 2)):
            nodes = 12 * (1 + q) * r
            assert analytic.max_over_p_check(
                q, r, SystemParams(nodes, nodes), p_max=3
            )

    def test_p_max_validation(self):
        with pytest.raises(ParameterError):
            analytic.max_over_p_check(0, 1, SystemParams(12, 12), p_max=0)
