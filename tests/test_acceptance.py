"""Acceptance gate: every shipped claim checked at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in the
captured output on failure) and enforces its runtime budget.
"""

import math
import time
from fractions import Fraction

import numpy as np

from rec_persist import analytic, oracle
from rec_persist.analytic import Method
from rec_persist.model import (
    LossSemantics,
    PlacementStrategy,
    RecParams,
    SystemParams,
)
from rec_persist.simulator import (
    SimConfig,
    WorkloadClass,
    persistency,
    place_random,
    simulate,
)

PC = LossSemantics.PER_CLUSTER
MS = LossSemantics.MULTISET
RANDOM, SYMMETRIC = PlacementStrategy.RANDOM, PlacementStrategy.SYMMETRIC


def report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_symmetric_oracle_vs_integral():
    start = time.monotonic()
    worst = 0.0
    count = 0
    closed_case_seen = False
    for p in range(1, 4):
        for q in range(0, 3):
            for r in range(1, 4):
                rec = RecParams(p, q, r)
                g = rec.fragments
                for nodes in range(g, 121, g):
                    system = SystemParams(nodes, max(1, nodes // g))
                    exact = float(
                        oracle.exact_symmetric_expectation(rec, system, PC)
                    )
                    got = analytic.expect(SYMMETRIC, rec, system, Method.INTEGRAL).value
                    worst = max(worst, abs(got - exact) / exact)
                    count += 1
                    if (p, q, r, nodes) == (1, 0, 2, 4):
                        closed_case_seen = True
                        assert exact == float(Fraction(8, 3))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and closed_case_seen and elapsed < 60
    report(
        1,
        ok,
        f"{count} symmetric instances (N <= 120), worst rel diff "
        f"{worst:.2e} <= 1e-8, includes (1,0,2,N=4)=8/3, {elapsed:.1f}s",
    )


def test_criterion_2_brute_force_equals_polynomial():
    start = time.monotonic()
    count = 0
    for p in range(1, 4):
        for q in range(0, 3):
            for r in range(1, 4):
                rec = RecParams(p, q, r)
                g = rec.fragments
                for nodes in range(g, 13, g):
                    system = SystemParams(nodes, max(1, nodes // g))
                    for sem in (MS, PC):
                        brute = oracle.brute_force_symmetric(
                            rec, system, sem
                        )
                        poly = oracle.exact_symmetric_expectation(
                            rec, system, sem
                        )
                        assert brute == poly, (p, q, r, nodes, sem)
                        count += 1
    elapsed = time.monotonic() - start
    ok = count > 0 and elapsed < 30
    report(
        2,
        ok,
        f"{count} exact rational equalities (N <= 12, both semantics), "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_random_sum_vs_enumeration():
    start = time.monotonic()
    worst = 0.0
    count = 0
    for p in range(1, 7):
        for q in range(0, 6):
            for r in range(1, 7):
                rec = RecParams(p, q, r)
                if rec.fragments > 6:
                    continue
                for nodes in range(2, 7):
                    system = SystemParams(nodes, 1)
                    for semantics in (MS, PC):
                        brute = float(
                            oracle.brute_force_random(rec, system, semantics)
                        )
                        got = analytic.expect_random_sum(rec, system, semantics).value
                        worst = max(
                            worst, abs(got - brute) / max(1.0, abs(brute))
                        )
                        count += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12
    report(
        3,
        ok,
        f"{count} enumerated instances ((p+q)r <= 6, N <= 6, both rules), "
        f"worst rel diff {worst:.2e} <= 1e-12, {elapsed:.1f}s",
    )


def test_criterion_4_additive_error_bounds():
    tol = analytic.DEFAULT_QUADRATURE_TOL
    worst_integral = 0.0
    worst_beta = 0.0
    count = 0
    for p, q, r in ((1, 0, 2), (2, 1, 1), (3, 2, 2), (1, 2, 1)):
        rec = RecParams(p, q, r)
        for nodes in (12, 48, 96):
            for docs in (1, 5, nodes):
                system = SystemParams(nodes, docs)
                exact = analytic.expect_random_sum(rec, system).value
                integral = analytic.expect(RANDOM, rec, system, Method.INTEGRAL).value
                gap = abs(exact - integral)
                assert gap <= 1.0 + nodes * tol, (p, q, r, nodes, docs, gap)
                worst_integral = max(worst_integral, gap)
                if p == 1:
                    closed = analytic.expect(
                        RANDOM, RecParams(1, q, r), system, Method.BETA_EXACT
                    ).value
                    gap_b = abs(exact - closed)
                    assert gap_b <= 1.0, (q, r, nodes, docs, gap_b)
                    worst_beta = max(worst_beta, gap_b)
                count += 1
    report(
        4,
        True,
        f"{count} grid points: |sum-integral| <= 1+N*tol (worst "
        f"{worst_integral:.3f}), |sum-Beta| <= 1 for p=1 (worst "
        f"{worst_beta:.3f})",
    )


def test_criterion_5_monte_carlo_agreement():
    start = time.monotonic()
    rec = RecParams(1, 0, 2)
    system = SystemParams(48, 5)
    summary = simulate(
        SimConfig(
            strategy=PlacementStrategy.RANDOM,
            classes=(WorkloadClass(rec, 5),),
            nodes=48,
            trials=20000,
            master_seed=7,
        )
    )
    exact = analytic.expect_random_sum(rec, system).value
    z_random = abs(summary.mean - exact) / summary.std_error
    t_random = time.monotonic() - start
    assert z_random <= 3.0, f"random z = {z_random:.2f}"
    assert t_random < 60

    start = time.monotonic()
    rec = RecParams(1, 1, 1)
    system = SystemParams(96, 48)
    summary = simulate(
        SimConfig(
            strategy=PlacementStrategy.SYMMETRIC,
            classes=(WorkloadClass(rec, 48),),
            nodes=96,
            trials=20000,
            master_seed=8,
        )
    )
    exact = analytic.expect(SYMMETRIC, rec, system, Method.INTEGRAL).value
    z_symmetric = abs(summary.mean - exact) / summary.std_error
    t_symmetric = time.monotonic() - start
    assert z_symmetric <= 3.0, f"symmetric z = {z_symmetric:.2f}"
    assert t_symmetric < 60
    report(
        5,
        True,
        f"2e4-trial runs within 3 std errors: random z={z_random:.2f} "
        f"({t_random:.1f}s), symmetric z={z_symmetric:.2f} "
        f"({t_symmetric:.1f}s)",
    )


def test_criterion_6_figure_scale_reproduction():
    start = time.monotonic()
    summary = simulate(
        SimConfig(
            strategy=PlacementStrategy.SYMMETRIC,
            classes=(WorkloadClass(RecParams(1, 1, 1), 1488),),
            nodes=2976,
            trials=500,
            master_seed=606,
        )
    )
    target_sym = math.gamma(1.5) * math.sqrt(2 * 2976)
    dev_sym = abs(summary.mean / target_sym - 1.0)
    assert dev_sym <= 0.05, f"symmetric deviation {dev_sym:.3f}"

    summary = simulate(
        SimConfig(
            strategy=PlacementStrategy.RANDOM,
            classes=(WorkloadClass(RecParams(1, 0, 2), 5),),
            nodes=2976,
            trials=500,
            master_seed=604,
        )
    )
    target_rand = (512 / 693) / 2 * 2976
    dev_rand = abs(summary.mean / target_rand - 1.0)
    assert dev_rand <= 0.05, f"random deviation {dev_rand:.3f}"
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(
        6,
        True,
        f"N=2976, 500 trials: symmetric within {dev_sym:.1%} of "
        f"{target_sym:.1f}, random within {dev_rand:.1%} of "
        f"{target_rand:.1f}, {elapsed:.1f}s",
    )


def test_criterion_7_asymptotic_convergence():
    soft_failures = []
    details = []

    for q, r in ((0, 2), (1, 1), (2, 1)):
        s = r * (q + 1)
        deviations = []
        for docs in (10**4, 10**6):
            system = SystemParams(10**6, docs)
            exact = analytic.expect(
                RANDOM, RecParams(1, q, r), system, Method.BETA_EXACT
            ).value
            asym = analytic.expect(
                RANDOM, RecParams(1, q, r), system, Method.ASYMPTOTIC
            ).value
            dev = abs(exact / asym - 1.0)
            deviations.append(dev)
            if dev > 2.0 * docs ** (-1.0 / s):
                soft_failures.append(
                    f"random q={q} r={r} D={docs}: {dev:.2e}"
                )
        assert deviations[1] < deviations[0], (
            f"random q={q} r={r}: deviation did not shrink"
        )
        details.append(f"rand({q},{r}) {deviations[0]:.1e}->{deviations[1]:.1e}")

        g = (1 + q) * r
        deviations = []
        for base in (2**12, 2**16):
            nodes = base - base % g
            system = SystemParams(nodes, nodes)
            exact = analytic.expect(
                SYMMETRIC, RecParams(1, q, r), system, Method.BETA_EXACT
            ).value
            asym = analytic.expect(
                SYMMETRIC, RecParams(1, q, r), system, Method.ASYMPTOTIC
            ).value
            dev = abs(exact / asym - 1.0)
            deviations.append(dev)
            if dev > 2.0 * (g / nodes) ** (1.0 / s):
                soft_failures.append(
                    f"symmetric q={q} r={r} N={nodes}: {dev:.2e}"
                )
        assert deviations[1] < deviations[0], (
            f"symmetric q={q} r={r}: deviation did not shrink"
        )
        details.append(f"sym({q},{r}) {deviations[0]:.1e}->{deviations[1]:.1e}")

    for message in soft_failures:
        print(f"WARN criterion 7 bound target missed: {message}")
    report(
        7,
        True,
        "exact/asymptotic deviations shrink with D and N"
        + (
            f"; {len(soft_failures)} soft bound misses"
            if soft_failures
            else " and meet the 2*D^(-1/s), 2*(g/N)^(1/s) targets"
        )
        + f" [{'; '.join(details)}]",
    )


def test_criterion_8_p_maximality():
    start = time.monotonic()
    count = 0
    for q in range(0, 4):
        for r in range(1, 4):
            lcm = math.lcm(*(q + 1 + i for i in range(4)))
            nodes = lcm * r
            system = SystemParams(nodes, nodes)
            assert analytic.max_over_p_check(q, r, system, p_max=4), (q, r, nodes)
            count += 1
    elapsed = time.monotonic() - start
    report(
        8,
        True,
        f"E[X] nonincreasing in p over p=1..4 for {count} (q, r) pairs, "
        f"both strategies, {elapsed:.1f}s",
    )


def test_criterion_9_d_independence_and_slopes():
    a = simulate(
        SimConfig(
            strategy=PlacementStrategy.SYMMETRIC,
            classes=(WorkloadClass(RecParams(1, 1, 1), 48),),
            nodes=96,
            trials=5000,
            master_seed=903,
        )
    )
    b = simulate(
        SimConfig(
            strategy=PlacementStrategy.SYMMETRIC,
            classes=(WorkloadClass(RecParams(1, 1, 1), 96),),
            nodes=96,
            trials=5000,
            master_seed=904,
        )
    )
    z = abs(a.mean - b.mean) / math.hypot(a.std_error, b.std_error)
    assert z <= 3.0, f"D vs 2D z = {z:.2f}"

    slope_stats = []
    for p, q, r in ((1, 1, 1), (2, 2, 1), (1, 2, 1)):
        rec = RecParams(p, q, r)
        g = rec.fragments
        s = r * (q + 1)
        xs = []
        ys = []
        for k in range(1, 63):
            nodes = 48 * k
            if nodes % g:
                continue
            value = analytic.expect(
                SYMMETRIC, rec, SystemParams(nodes, max(1, nodes // g)), Method.INTEGRAL
            ).value
            xs.append(math.log(nodes))
            ys.append(math.log(value))
        mean_x = sum(xs) / len(xs)
        mean_y = sum(ys) / len(ys)
        slope = sum(
            (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
        ) / sum((x - mean_x) ** 2 for x in xs)
        target = 1.0 - 1.0 / s
        assert abs(slope - target) <= 0.02, (p, q, r, slope, target)
        slope_stats.append(f"({p},{q},{r}) {slope:.4f}~{target:.4f}")
    report(
        9,
        True,
        f"D vs 2D simulations indistinguishable (z={z:.2f}); log-log "
        f"slopes within 0.02: {', '.join(slope_stats)}",
    )


def test_criterion_10_semantics_dominance():
    rec = RecParams(2, 1, 2)
    rng = np.random.default_rng(1010)
    strict = 0
    for _ in range(1000):
        placement = place_random(rec, SystemParams(12, 2), rng)
        order = rng.permutation(12)
        x_pc = persistency(placement, order, PC)
        x_ms = persistency(placement, order, MS)
        assert x_pc <= x_ms, "per-cluster outlived multiset"
        strict += x_pc < x_ms
    assert strict >= 1
    report(
        10,
        True,
        f"1000 trials of (2,1,2): per-cluster X <= multiset X always, "
        f"strictly less in {strict}",
    )
