"""Built-in consistency checks, runnable from the CLI.

quick: special-function identities, pinned exact values, and the small
oracle suite (a few seconds).  full: adds the complete polynomial-versus-
integral sweep up to N = 120 and seeded statistical checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import analytic, oracle
from .analytic import Method, expect
from .model import LossSemantics, PlacementStrategy, RecParams, SystemParams
from .simulator import SimConfig, WorkloadClass, simulate
from .specfun import (
    beta,
    beta_real,
    log_reg_inc_beta_complement,
    reg_inc_beta,
    reg_inc_beta_complement,
)

__all__ = ["CheckResult", "run_selftest"]

RANDOM, SYMMETRIC = PlacementStrategy.RANDOM, PlacementStrategy.SYMMETRIC


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _check_beta_identity() -> CheckResult:
    worst = 0.0
    for a in range(1, 11):
        for b in range(1, 11):
            exact = beta(a, b)
            real = beta_real(float(a), float(b))
            worst = max(worst, abs(real - exact) / exact)
    return CheckResult(
        "beta-identity",
        worst <= 1e-12,
        f"binomial form vs log-Gamma form, worst rel diff {worst:.2e}",
    )


def _check_complement_identity() -> CheckResult:
    worst = 0.0
    for a in range(1, 7):
        for b in range(1, 7):
            for i in range(1, 20):
                x = i / 20
                s = reg_inc_beta(x, a, b) + reg_inc_beta_complement(x, a, b)
                worst = max(worst, abs(s - 1.0))
    return CheckResult(
        "complement-identity",
        worst <= 1e-14,
        f"I + (1-I) vs 1, worst abs diff {worst:.2e}",
    )


def _check_small_x_precision() -> CheckResult:
    # 1 - I_x(2, 1) = 1 - x^2: the log of the complement must keep its
    # relative precision where I_x is far below one ulp of 1
    got = log_reg_inc_beta_complement(1e-6, 2, 1)
    want = math.log1p(-1e-12)
    rel = abs(got - want) / abs(want)
    return CheckResult(
        "small-x-precision",
        rel <= 1e-14,
        f"ln(1 - I) at x=1e-6 vs log1p(-x^2), rel diff {rel:.2e}",
    )


def _check_monotone_shift() -> CheckResult:
    worst = 0.0
    for p in range(1, 5):
        for q in range(0, 5):
            for i in range(1, 20):
                x = i / 20
                diff = reg_inc_beta(x, q + 1, p + 1) - reg_inc_beta(x, q + 1, p)
                closed = (
                    x ** (q + 1) * (1 - x) ** p * math.comb(p + q, p)
                )
                worst = max(worst, abs(diff - closed))
                if diff < -1e-15:
                    return CheckResult(
                        "monotone-shift-identity", False,
                        f"negative shift {diff:.2e} at x={x}, p={p}, q={q}",
                    )
    return CheckResult(
        "monotone-shift-identity",
        worst <= 1e-12,
        f"shift vs closed form, worst abs diff {worst:.2e}",
    )


def _inc_beta_integral(x: Fraction, a: int, b: int) -> Fraction:
    """I_x(a, b) = integral_0^x t^(a-1) (1-t)^(b-1) dt / B(a, b), exactly.

    (1-t)^(b-1) is expanded by the binomial theorem and integrated term by
    term: sum_k C(b-1, k) (-1)^k x^(a+k) / (a+k).
    """
    integral = sum(
        Fraction((-1) ** k * math.comb(b - 1, k), a + k) * x ** (a + k)
        for k in range(b)
    )
    beta_ab = Fraction(
        math.factorial(a - 1) * math.factorial(b - 1), math.factorial(a + b - 1)
    )
    return integral / beta_ab


def _check_quadrature_consistency() -> CheckResult:
    worst = 0.0
    for a, b in ((1, 1), (2, 3), (3, 2), (5, 4), (6, 1)):
        for x in (0.1, 0.5, 0.9):
            exact = float(_inc_beta_integral(Fraction(x), a, b))
            worst = max(worst, abs(exact - reg_inc_beta(x, a, b)))
    return CheckResult(
        "incomplete-beta-quadrature",
        worst <= 1e-15,
        f"binomial sum vs exact integral definition, worst abs diff {worst:.2e}",
    )


def _check_survival_curve() -> CheckResult:
    for rec, system in (
        (RecParams(1, 0, 2), SystemParams(48, 5)),
        (RecParams(2, 1, 2), SystemParams(30, 7)),
        # several blocks of l, and the sum stops well before the curve ends
        (RecParams(2, 1, 2), SystemParams(10_000, 1000)),
    ):
        curve = analytic.survival_curve_random(rec, system)
        curve_sum = math.fsum(curve)
        total = analytic.expect_random_sum(rec, system).value
        if curve_sum != total:
            return CheckResult(
                "survival-curve-sum", False,
                f"curve sum {curve_sum!r} != exact sum {total!r}",
            )
        if any(hi < lo for hi, lo in zip(curve, curve[1:])):
            return CheckResult("survival-curve-sum", False, "curve not nonincreasing")
    return CheckResult(
        "survival-curve-sum", True, "curve sums equal the exact expectation"
    )


def _check_error_bounds() -> CheckResult:
    tol = analytic.DEFAULT_QUADRATURE_TOL
    worst = ""
    for p, q, r in ((1, 0, 2), (2, 1, 1), (3, 2, 2), (1, 2, 1)):
        rec = RecParams(p, q, r)
        for nodes, docs in ((12, 1), (48, 5), (96, 96)):
            system = SystemParams(nodes, docs)
            exact = analytic.expect_random_sum(rec, system).value
            integral = expect(RANDOM, rec, system, Method.INTEGRAL).value
            if abs(exact - integral) > 1.0 + nodes * tol:
                return CheckResult(
                    "additive-error-bounds", False,
                    f"|sum-integral| = {abs(exact - integral):.3f} at "
                    f"p={p} q={q} r={r} N={nodes} D={docs}",
                )
            if p == 1:
                closed = expect(RANDOM, rec, system, Method.BETA_EXACT).value
                if abs(exact - closed) > 1.0:
                    return CheckResult(
                        "additive-error-bounds", False,
                        f"|sum-beta| = {abs(exact - closed):.3f} at "
                        f"q={q} r={r} N={nodes} D={docs}",
                    )
    return CheckResult(
        "additive-error-bounds", True, "integral and Beta forms stay within 1"
    )


def _symmetric_pairs(limit: int):
    for p in range(1, 4):
        for q in range(0, 3):
            for r in range(1, 4):
                rec = RecParams(p, q, r)
                g = rec.fragments
                for nodes in range(g, limit + 1, g):
                    yield rec, SystemParams(nodes, nodes // g)


def _check_exact_vs_integral(limit: int, name: str) -> CheckResult:
    worst = 0.0
    count = 0
    for rec, system in _symmetric_pairs(limit):
        for semantics in LossSemantics:
            exact = float(oracle.exact_symmetric_expectation(rec, system, semantics))
            integral = expect(
                SYMMETRIC, rec, system, Method.INTEGRAL, semantics=semantics
            ).value
            worst = max(worst, abs(integral - exact) / exact)
            count += 1
    return CheckResult(
        name,
        worst <= 1e-8,
        f"{count} instances under both rules, worst rel diff {worst:.2e}",
    )


def _check_brute_vs_polynomial() -> CheckResult:
    cases = (
        (RecParams(1, 0, 2), SystemParams(4, 2), LossSemantics.PER_CLUSTER),
        (RecParams(1, 1, 1), SystemParams(8, 4), LossSemantics.PER_CLUSTER),
        (RecParams(2, 1, 2), SystemParams(6, 1), LossSemantics.PER_CLUSTER),
        (RecParams(2, 1, 2), SystemParams(6, 1), LossSemantics.MULTISET),
        (RecParams(2, 0, 1), SystemParams(8, 4), LossSemantics.MULTISET),
    )
    for rec, system, sem in cases:
        brute = oracle.brute_force_symmetric(rec, system, sem)
        poly = oracle.exact_symmetric_expectation(rec, system, sem)
        if brute != poly:
            return CheckResult(
                "brute-vs-polynomial", False,
                f"{brute} != {poly} at p={rec.p} q={rec.q} r={rec.r} "
                f"N={system.nodes} {sem.value}",
            )
    return CheckResult(
        "brute-vs-polynomial", True, f"{len(cases)} exact rational matches"
    )


def _check_brute_random() -> CheckResult:
    for rec, nodes, semantics, expected in (
        (RecParams(1, 0, 2), 3, LossSemantics.MULTISET, Fraction(22, 9)),
        (RecParams(1, 1, 1), 3, LossSemantics.MULTISET, Fraction(22, 9)),
        (RecParams(1, 0, 1), 3, LossSemantics.MULTISET, Fraction(2)),
        (RecParams(2, 0, 2), 3, LossSemantics.MULTISET, Fraction(170, 81)),
        (RecParams(2, 0, 2), 3, LossSemantics.PER_CLUSTER, Fraction(154, 81)),
    ):
        system = SystemParams(nodes, 1)
        brute = oracle.brute_force_random(rec, system, semantics)
        if brute != expected:
            return CheckResult(
                "brute-random-pinned", False,
                f"{brute} != {expected} ({semantics.value})",
            )
        exact = analytic.expect_random_sum(rec, system, semantics).value
        if abs(float(brute) - exact) > 1e-12 * max(1.0, exact):
            return CheckResult(
                "brute-random-pinned", False,
                f"enumeration {float(brute)!r} vs sum {exact!r} ({semantics.value})",
            )
    return CheckResult(
        "brute-random-pinned", True,
        "enumeration matches the survival sum under both rules",
    )


def _check_pinned_values() -> CheckResult:
    pins = (
        (
            "symmetric (1,0,2) N=4",
            float(
                oracle.exact_symmetric_expectation(
                    RecParams(1, 0, 2), SystemParams(4, 2), LossSemantics.PER_CLUSTER
                )
            ),
            8 / 3,
        ),
        (
            "symmetric (1,1,1) N=8",
            expect(
                SYMMETRIC, RecParams(1, 1, 1), SystemParams(8, 4), Method.BETA_EXACT
            ).value,
            128 / 35,
        ),
        (
            "symmetric integral (1,0,2) N=4",
            expect(
                SYMMETRIC, RecParams(1, 0, 2), SystemParams(4, 2), Method.INTEGRAL
            ).value,
            8 / 3,
        ),
    )
    for label, got, want in pins:
        if abs(got - want) > 1e-9 * want:
            return CheckResult(
                "pinned-values", False, f"{label}: {got!r} != {want!r}"
            )
    return CheckResult("pinned-values", True, f"{len(pins)} fixed points hold")


def _check_simulation_agreement() -> CheckResult:
    random_cfg = SimConfig(
        strategy=RANDOM,
        classes=(WorkloadClass(RecParams(1, 0, 2), 5),),
        nodes=48,
        trials=4000,
        master_seed=1101,
    )
    summary = simulate(random_cfg)
    exact = analytic.expect_random_sum(RecParams(1, 0, 2), SystemParams(48, 5)).value
    if abs(summary.mean - exact) > 3 * summary.std_error:
        return CheckResult(
            "simulation-agreement", False,
            f"random: |{summary.mean:.3f} - {exact:.3f}| > 3 SE",
        )
    sym_cfg = SimConfig(
        strategy=SYMMETRIC,
        classes=(WorkloadClass(RecParams(1, 1, 1), 48),),
        nodes=96,
        trials=4000,
        master_seed=1102,
    )
    summary = simulate(sym_cfg)
    exact = expect(
        SYMMETRIC, RecParams(1, 1, 1), SystemParams(96, 48), Method.INTEGRAL
    ).value
    if abs(summary.mean - exact) > 3 * summary.std_error:
        return CheckResult(
            "simulation-agreement", False,
            f"symmetric: |{summary.mean:.3f} - {exact:.3f}| > 3 SE",
        )
    return CheckResult(
        "simulation-agreement", True, "seeded runs within 3 standard errors"
    )


def _check_d_invariance() -> CheckResult:
    rec = RecParams(1, 1, 1)
    lo = expect(SYMMETRIC, rec, SystemParams(96, 48), Method.INTEGRAL).value
    hi = expect(SYMMETRIC, rec, SystemParams(96, 480), Method.INTEGRAL).value
    if lo != hi:
        return CheckResult(
            "symmetric-d-invariance", False, f"{lo!r} != {hi!r} across D"
        )
    return CheckResult(
        "symmetric-d-invariance", True, "integral identical across valid D"
    )


def run_selftest(level: str = "quick") -> list[CheckResult]:
    if level not in ("quick", "full"):
        raise ValueError(f"level must be quick or full, got {level!r}")
    results = [
        _check_beta_identity(),
        _check_complement_identity(),
        _check_small_x_precision(),
        _check_monotone_shift(),
        _check_quadrature_consistency(),
        _check_survival_curve(),
        _check_error_bounds(),
        _check_exact_vs_integral(12, "symmetric-exact-vs-integral"),
        _check_brute_vs_polynomial(),
        _check_brute_random(),
        _check_pinned_values(),
        _check_d_invariance(),
    ]
    if level == "full":
        results.append(
            _check_exact_vs_integral(120, "symmetric-exact-vs-integral-full")
        )
        results.append(_check_simulation_agreement())
    return results
