"""Exact combinatorial baselines: group polynomials and enumerations."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from rec_persist import analytic, oracle
from rec_persist.errors import ParameterError, SizeLimitError
from rec_persist.model import (
    LossSemantics,
    PlacementStrategy,
    RecParams,
    SystemParams,
    is_document_lost,
)
from rec_persist.simulator import place_symmetric

PC = LossSemantics.PER_CLUSTER
MS = LossSemantics.MULTISET


def _enumerated_alive(rec, semantics):
    # alive counts over all 2^g erasure patterns of one group; slot (j, m),
    # replica j of chunk m, is bit j*(p+q) + m
    pq, g, need = rec.chunks, rec.fragments, rec.q + 1
    columns = [sum(1 << (j * pq + m) for j in range(rec.r)) for m in range(pq)]
    rows = [sum(1 << (j * pq + m) for m in range(pq)) for j in range(rec.r)]
    alive = [0] * (g + 1)
    for pattern in range(1 << g):
        if semantics is MS:
            lost = sum(pattern & c == c for c in columns) >= need
        else:
            lost = all((pattern & row).bit_count() >= need for row in rows)
        if not lost:
            alive[pattern.bit_count()] += 1
    return tuple(alive)


class TestGroupPolynomial:
    def test_two_replicas_one_chunk(self):
        alive = oracle.group_polynomial(RecParams(1, 0, 2), PC)
        assert alive == (1, 2, 0)
        assert len(alive) - 1 == 2
        assert math.comb(2, 2) - alive[2] == 1

    def test_one_parity_cluster(self):
        assert oracle.group_polynomial(RecParams(2, 1, 1), PC) == (1, 3, 0, 0)

    def test_semantics_agree_for_p1_and_r1(self):
        for p, q, r in ((1, 0, 3), (1, 2, 2), (2, 1, 1), (3, 0, 1), (1, 1, 1)):
            rec = RecParams(p, q, r)
            assert oracle.group_polynomial(rec, MS) == oracle.group_polynomial(
                rec, PC
            )

    def test_counts_are_subset_counts(self):
        # every coefficient is between 0 and C(g, t), and alive plus dead
        # covers all subsets
        for rec in (RecParams(2, 1, 2), RecParams(1, 1, 2), RecParams(3, 2, 1)):
            g = rec.fragments
            for sem in (MS, PC):
                alive = oracle.group_polynomial(rec, sem)
                assert len(alive) == g + 1
                assert alive[0] == 1
                assert alive[g] == 0
                for t, a_t in enumerate(alive):
                    assert 0 <= a_t <= math.comb(g, t)
                total = sum(alive) + sum(
                    math.comb(g, t) - alive[t] for t in range(g + 1)
                )
                assert total == 2**g

    def test_per_cluster_alive_never_exceeds_multiset(self):
        # per-cluster loss is easier to trigger, so it keeps fewer
        # surviving subsets at every erasure count
        for rec in (RecParams(2, 1, 2), RecParams(2, 2, 2), RecParams(3, 1, 2)):
            ms = oracle.group_polynomial(rec, MS)
            pc = oracle.group_polynomial(rec, PC)
            assert all(a <= b for a, b in zip(pc, ms))

    def test_matches_enumeration_up_to_g12(self):
        count = 0
        for chunks, r in itertools.product(range(1, 13), range(1, 13)):
            if chunks * r > 12:
                continue
            for p in range(1, chunks + 1):
                rec = RecParams(p, chunks - p, r)
                for sem in (MS, PC):
                    assert oracle.group_polynomial(rec, sem) == _enumerated_alive(
                        rec, sem
                    ), (rec, sem)
                    count += 1
        assert count == 2 * 127

    def test_multiset_beyond_enumeration(self):
        # g = 24: the rules coincide at p = 1, and REC(4,6,4) keeps the
        # subset-count invariants
        for rec in (RecParams(1, 23, 1), RecParams(1, 11, 2)):
            assert oracle.group_polynomial(rec, MS) == oracle.group_polynomial(
                rec, PC
            )
        alive = oracle.group_polynomial(RecParams(4, 2, 4), MS)
        assert len(alive) == 25 and alive[0] == 1 and alive[24] == 0
        assert all(0 <= a_t <= math.comb(24, t) for t, a_t in enumerate(alive))
        # 12 erasures kill first (3 full multisets of 4), 20 survive at most
        assert alive[:12] == tuple(math.comb(24, t) for t in range(12))
        assert alive[12] == math.comb(24, 12) - math.comb(6, 3)
        assert alive[20] == math.comb(6, 2) * 4**4 and not any(alive[21:])


class TestExactSymmetricSurvival:
    def test_curve_for_two_replicas(self):
        curve = oracle.exact_symmetric_survival(
            RecParams(1, 0, 2), SystemParams(4, 2), PC
        )
        assert curve == (
            Fraction(1),
            Fraction(1),
            Fraction(2, 3),
            Fraction(0),
        )

    def test_support_extends_past_parity_fraction(self):
        # with q=0 and r=2 the curve is positive at l=2 even though
        # the parity share of nodes is zero
        curve = oracle.exact_symmetric_survival(
            RecParams(1, 0, 2), SystemParams(4, 2), PC
        )
        assert curve[2] == Fraction(2, 3)

    def test_monotone_probabilities(self):
        for rec, nodes in (
            (RecParams(2, 1, 2), 12),
            (RecParams(1, 2, 1), 9),
            (RecParams(3, 1, 1), 16),
        ):
            system = SystemParams(nodes, nodes)
            for sem in (MS, PC):
                curve = oracle.exact_symmetric_survival(rec, system, sem)
                assert curve[0] == 1
                assert all(0 <= prob <= 1 for prob in curve)
                assert all(
                    hi >= lo for hi, lo in zip(curve, curve[1:])
                )

    def test_preconditions_enforced(self):
        # 5 documents wrap around 5 nodes, and 3 too, and g = 2 does not divide 5
        for system in (SystemParams(5, 5), SystemParams(5, 3)):
            with pytest.raises(ParameterError, match="symmetric placement wraps"):
                oracle.exact_symmetric_survival(RecParams(1, 0, 2), system, PC)
        # one document on 4 nodes: 5 integral of (1 - x^2)
        curve = oracle.exact_symmetric_survival(
            RecParams(1, 0, 2), SystemParams(4, 1), PC
        )
        assert curve == (1, 1, Fraction(5, 6), Fraction(1, 2), 0)
        assert sum(curve) == Fraction(10, 3)

    def test_node_guard(self):
        with pytest.raises(SizeLimitError):
            oracle.exact_symmetric_survival(
                RecParams(1, 0, 2), SystemParams(122, 61), PC
            )


# (code, N, D, wraps): cells on both sides of the wrap boundary; a cell
# has an exact theory unless its documents wrap and g does not divide N
WRAP_BOUNDARY = [
    ((1, 1, 1), 9, 3, False),
    ((1, 1, 1), 8, 2, False),
    ((1, 1, 1), 9, 5, True),
    ((2, 1, 1), 11, 2, False),
    ((1, 0, 2), 12, 3, False),
    ((2, 1, 2), 13, 2, False),
    ((2, 1, 2), 13, 3, True),
    ((1, 2, 1), 10, 3, False),
    ((1, 2, 1), 9, 5, False),
    ((2, 3, 1), 11, 4, True),
]


@pytest.mark.parametrize("code, nodes, docs, wraps", WRAP_BOUNDARY)
def test_wrap_boundary_against_brute_force(code, nodes, docs, wraps):
    rec, system = RecParams(*code), SystemParams(nodes, docs)
    for sem in (MS, PC):
        exact = lambda: oracle.exact_symmetric_expectation(rec, system, sem)
        integral = lambda: analytic.expect(
            PlacementStrategy.SYMMETRIC, rec, system, analytic.Method.INTEGRAL,
            semantics=sem,
        ).value
        if wraps:
            for call in (exact, integral):
                with pytest.raises(ParameterError, match="symmetric placement wraps"):
                    call()
            continue
        brute = oracle.brute_force_symmetric(rec, system, sem)
        assert exact() == brute
        assert integral() == pytest.approx(float(brute), rel=1e-12)


class TestExactSymmetricExpectation:
    def test_pinned_values(self):
        assert oracle.exact_symmetric_expectation(
            RecParams(1, 0, 2), SystemParams(4, 2), PC
        ) == Fraction(8, 3)
        assert oracle.exact_symmetric_expectation(
            RecParams(1, 1, 1), SystemParams(8, 4), PC
        ) == Fraction(128, 35)
        assert oracle.exact_symmetric_expectation(
            RecParams(2, 1, 1), SystemParams(6, 2), PC
        ) == Fraction(13, 5)
        assert oracle.exact_symmetric_expectation(
            RecParams(1, 0, 1), SystemParams(5, 5), PC
        ) == Fraction(1)

    def test_divergence_witness(self):
        rec = RecParams(2, 1, 2)
        system = SystemParams(6, 1)
        assert oracle.exact_symmetric_expectation(rec, system, PC) == Fraction(
            22, 5
        )
        assert oracle.exact_symmetric_expectation(rec, system, MS) == Fraction(
            24, 5
        )

    def test_per_cluster_below_multiset(self):
        for rec, nodes in ((RecParams(2, 1, 2), 12), (RecParams(2, 2, 2), 8)):
            system = SystemParams(nodes, nodes)
            pc = oracle.exact_symmetric_expectation(rec, system, PC)
            ms = oracle.exact_symmetric_expectation(rec, system, MS)
            assert pc <= ms

    def test_docs_do_not_matter(self):
        rec = RecParams(1, 1, 2)
        values = {
            oracle.exact_symmetric_expectation(
                rec, SystemParams(16, docs), PC
            )
            for docs in (4, 16, 100)
        }
        assert len(values) == 1


class TestBruteForceSymmetric:
    def test_matches_polynomial_exactly(self):
        cases = (
            (RecParams(1, 0, 2), 4, PC),
            (RecParams(1, 0, 2), 8, PC),
            (RecParams(1, 1, 1), 8, PC),
            (RecParams(2, 1, 1), 6, MS),
            (RecParams(2, 1, 2), 6, PC),
            (RecParams(2, 1, 2), 6, MS),
            (RecParams(1, 1, 2), 8, MS),
            (RecParams(2, 2, 1), 12, PC),
        )
        for rec, nodes, sem in cases:
            system = SystemParams(nodes, nodes // rec.fragments)
            brute = oracle.brute_force_symmetric(rec, system, sem)
            poly = oracle.exact_symmetric_expectation(rec, system, sem)
            assert brute == poly

    def test_wrapped_placement_counts_every_fragment(self):
        # below g nodes the placement wraps, and a unit can hold one node
        # twice: REC(1,1,2) on one node loses its document at the first
        # removal under both rules
        for sem in (MS, PC):
            assert oracle.brute_force_symmetric(
                RecParams(1, 0, 2), SystemParams(1, 1), sem
            ) == 1
        for rec, nodes, docs in (
            (RecParams(2, 1, 2), 4, 1), (RecParams(1, 1, 3), 5, 2),
            (RecParams(2, 0, 3), 4, 3), (RecParams(3, 1, 2), 7, 1),
        ):
            system = SystemParams(nodes, docs)
            table = place_symmetric(rec, system)
            for sem in (MS, PC):
                alive = [0] * (nodes + 1)
                for erased in itertools.chain.from_iterable(
                    itertools.combinations(range(nodes), l)
                    for l in range(nodes + 1)
                ):
                    if not any(
                        is_document_lost(rec, np.isin(doc, erased), sem)
                        for doc in table
                    ):
                        alive[len(erased)] += 1
                expected = sum(
                    Fraction(a, math.comb(nodes, l)) for l, a in enumerate(alive)
                )
                assert oracle.brute_force_symmetric(rec, system, sem) == expected

    def test_enumerates_one_period(self):
        # documents k and k + N/gcd(N, g) share their nodes, so D past one
        # period (8 documents here) changes nothing; placing and checking
        # all 80,000 documents took over a minute
        began = time.perf_counter()
        values = {
            oracle.brute_force_symmetric(RecParams(1, 0, 2), SystemParams(16, docs), PC)
            for docs in (8, 80000)
        }
        assert values == {Fraction(32768, 6435)}
        assert time.perf_counter() - began < 5

    def test_node_guard(self):
        with pytest.raises(SizeLimitError):
            oracle.brute_force_symmetric(
                RecParams(1, 0, 2), SystemParams(18, 9), PC
            )


class TestBruteForceRandom:
    def test_pinned_values(self):
        assert oracle.brute_force_random(
            RecParams(1, 0, 2), SystemParams(3, 1), MS
        ) == Fraction(22, 9)
        assert oracle.brute_force_random(
            RecParams(1, 1, 1), SystemParams(3, 1), MS
        ) == Fraction(22, 9)
        assert oracle.brute_force_random(
            RecParams(1, 0, 1), SystemParams(3, 1), MS
        ) == Fraction(2)

    def test_rules_split_at_p2_r2(self):
        # REC(2,2,2) on 3 nodes: two chunks, two replicas each
        rec, system = RecParams(2, 0, 2), SystemParams(3, 1)
        assert oracle.brute_force_random(rec, system, MS) == Fraction(170, 81)
        assert oracle.brute_force_random(rec, system, PC) == Fraction(154, 81)
        # and for p = 1 or r = 1 they coincide
        for rec in (RecParams(1, 0, 2), RecParams(2, 1, 1)):
            assert oracle.brute_force_random(
                rec, system, MS
            ) == oracle.brute_force_random(rec, system, PC)

    def test_matches_survival_sum(self):
        for p, q, r in ((1, 0, 1), (1, 0, 2), (1, 1, 1), (2, 0, 1), (2, 1, 1),
                        (1, 1, 2), (3, 0, 2), (1, 0, 3)):
            rec = RecParams(p, q, r)
            if rec.fragments > 6:
                continue
            for nodes, semantics in itertools.product((2, 4, 6), (MS, PC)):
                system = SystemParams(nodes, 1)
                brute = float(oracle.brute_force_random(rec, system, semantics))
                got = analytic.expect_random_sum(rec, system, semantics).value
                assert got == pytest.approx(brute, rel=1e-12)

    def test_requires_single_document(self):
        with pytest.raises(ParameterError):
            oracle.brute_force_random(RecParams(1, 0, 2), SystemParams(4, 2), MS)

    def test_size_guards(self):
        with pytest.raises(SizeLimitError):
            oracle.brute_force_random(RecParams(1, 0, 2), SystemParams(40, 1), MS)
        with pytest.raises(SizeLimitError):
            oracle.brute_force_random(RecParams(4, 4, 2), SystemParams(12, 1), PC)
