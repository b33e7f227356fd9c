"""Built-in consistency checks, runnable from the CLI.

quick: special-function identities, pinned exact values, and the small
oracle suite (a few seconds).  full: adds the complete polynomial-versus-
integral sweep up to N = 120 and seeded statistical checks.  The checks
that run the simulator import it, and numpy with it, when they run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import analytic, oracle
from .analytic import Method, expect
from .errors import ParameterError
from .model import LossSemantics, PlacementStrategy, RecParams, SystemParams
from .specfun import beta, beta_real, log_reg_inc_beta_complement, reg_inc_beta

__all__ = ["CHECKS", "CheckResult", "run_selftest"]

RANDOM, SYMMETRIC = PlacementStrategy.RANDOM, PlacementStrategy.SYMMETRIC


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _nan_max(worst: float, err: float) -> float:
    """max(worst, err), or nan once either is nan: max() drops a nan that
    follows a number, and a nan error must fail its check."""
    return worst if math.isnan(worst) or worst >= err else err


def _check_beta_identity() -> tuple[bool, str]:
    worst = 0.0
    for a in range(1, 11):
        for b in range(1, 11):
            exact = beta(a, b)
            real = beta_real(float(a), float(b))
            worst = _nan_max(worst, abs(real - exact) / exact)
    return (
        worst <= 1e-12,
        f"binomial form vs log-Gamma form, worst rel diff {worst:.2e}",
    )


def _check_small_x_precision() -> tuple[bool, str]:
    # 1 - I_x(2, 1) = 1 - x^2: the log of the complement must keep its
    # relative precision where I_x is far below one ulp of 1
    got = log_reg_inc_beta_complement(1e-6, 2, 1)
    want = math.log1p(-1e-12)
    rel = abs(got - want) / abs(want)
    return rel <= 1e-14, f"ln(1 - I) at x=1e-6 vs log1p(-x^2), rel diff {rel:.2e}"


def _check_monotone_shift() -> tuple[bool, str]:
    worst = 0.0
    for p in range(1, 5):
        for q in range(0, 5):
            for i in range(1, 20):
                x = i / 20
                diff = reg_inc_beta(x, q + 1, p + 1) - reg_inc_beta(x, q + 1, p)
                closed = (
                    x ** (q + 1) * (1 - x) ** p * math.comb(p + q, p)
                )
                worst = _nan_max(worst, abs(diff - closed))
                if diff < -1e-15:
                    return False, f"negative shift {diff:.2e} at x={x}, p={p}, q={q}"
    return worst <= 1e-12, f"shift vs closed form, worst abs diff {worst:.2e}"


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


def _check_quadrature_consistency() -> tuple[bool, str]:
    worst = 0.0
    for a, b in ((1, 1), (2, 3), (3, 2), (5, 4), (6, 1)):
        for x in (0.1, 0.5, 0.9):
            exact = float(_inc_beta_integral(Fraction(x), a, b))
            worst = _nan_max(worst, abs(exact - reg_inc_beta(x, a, b)))
    return (
        worst <= 1e-15,
        f"binomial sum vs exact integral definition, worst abs diff {worst:.2e}",
    )


def _check_survival_curve() -> tuple[bool, str]:
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
            return False, f"curve sum {curve_sum!r} != exact sum {total!r}"
        if any(hi < lo for hi, lo in zip(curve, curve[1:])):
            return False, "curve not nonincreasing"
    return True, "curve sums equal the exact expectation"


def _check_error_bounds() -> tuple[bool, str]:
    tol = analytic.DEFAULT_QUADRATURE_TOL
    for p, q, r in ((1, 0, 2), (2, 1, 1), (3, 2, 2), (1, 2, 1)):
        rec = RecParams(p, q, r)
        for nodes, docs in ((12, 1), (48, 5), (96, 96)):
            system = SystemParams(nodes, docs)
            exact = analytic.expect_random_sum(rec, system).value
            integral = expect(RANDOM, rec, system, Method.INTEGRAL).value
            if not abs(exact - integral) <= 1.0 + nodes * tol:
                return (
                    False,
                    f"|sum-integral| = {abs(exact - integral):.3f} at "
                    f"p={p} q={q} r={r} N={nodes} D={docs}",
                )
            if p == 1:
                closed = expect(RANDOM, rec, system, Method.BETA_EXACT).value
                if not abs(exact - closed) <= 1.0:
                    return (
                        False,
                        f"|sum-beta| = {abs(exact - closed):.3f} at "
                        f"q={q} r={r} N={nodes} D={docs}",
                    )
    return True, "integral and Beta forms stay within 1"


def _symmetric_pairs(limit: int):
    for p in range(1, 4):
        for q in range(0, 3):
            for r in range(1, 4):
                rec = RecParams(p, q, r)
                g = rec.fragments
                for nodes in range(g, limit + 1, g):
                    yield rec, SystemParams(nodes, nodes // g)


def _check_exact_vs_integral(limit: int) -> tuple[bool, str]:
    worst = 0.0
    count = 0
    for rec, system in _symmetric_pairs(limit):
        for semantics in LossSemantics:
            exact = float(oracle.exact_symmetric_expectation(rec, system, semantics))
            integral = expect(
                SYMMETRIC, rec, system, Method.INTEGRAL, semantics=semantics
            ).value
            worst = _nan_max(worst, abs(integral - exact) / exact)
            count += 1
    return (
        worst <= 1e-8,
        f"{count} instances under both rules, worst rel diff {worst:.2e}",
    )


def _check_brute_vs_polynomial() -> tuple[bool, str]:
    cases = (
        (RecParams(1, 0, 2), SystemParams(4, 2), LossSemantics.PER_CLUSTER),
        (RecParams(1, 1, 1), SystemParams(8, 4), LossSemantics.PER_CLUSTER),
        (RecParams(2, 1, 2), SystemParams(6, 1), LossSemantics.PER_CLUSTER),
        (RecParams(2, 1, 2), SystemParams(6, 1), LossSemantics.MULTISET),
        (RecParams(2, 0, 1), SystemParams(8, 4), LossSemantics.MULTISET),
        # g = 3 does not divide N, but the two documents do not wrap
        (RecParams(2, 1, 1), SystemParams(11, 2), LossSemantics.MULTISET),
    )
    for rec, system, sem in cases:
        brute = oracle.brute_force_symmetric(rec, system, sem)
        poly = oracle.exact_symmetric_expectation(rec, system, sem)
        if brute != poly:
            return (
                False,
                f"{brute} != {poly} at p={rec.p} q={rec.q} r={rec.r} "
                f"N={system.nodes} {sem.value}",
            )
    return True, f"{len(cases)} exact rational matches"


def _check_brute_random() -> tuple[bool, str]:
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
            return False, f"{brute} != {expected} ({semantics.value})"
        exact = analytic.expect_random_sum(rec, system, semantics).value
        if not abs(float(brute) - exact) <= 1e-12 * max(1.0, exact):
            return (
                False,
                f"enumeration {float(brute)!r} vs sum {exact!r} ({semantics.value})",
            )
    return True, "enumeration matches the survival sum under both rules"


def _check_pinned_values() -> tuple[bool, str]:
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
        if not abs(got - want) <= 1e-9 * want:
            return False, f"{label}: {got!r} != {want!r}"
    return True, f"{len(pins)} fixed points hold"


def _check_simulation_agreement() -> tuple[bool, str]:
    from . import simulator

    random_cfg = simulator.SimConfig(
        strategy=RANDOM,
        classes=(simulator.WorkloadClass(RecParams(1, 0, 2), 5),),
        nodes=48,
        trials=4000,
        master_seed=1101,
    )
    summary = simulator.simulate(random_cfg)
    exact = analytic.expect_random_sum(RecParams(1, 0, 2), SystemParams(48, 5)).value
    if not abs(summary.mean - exact) <= 3 * summary.std_error:
        return False, f"random: |{summary.mean:.3f} - {exact:.3f}| > 3 SE"
    sym_cfg = simulator.SimConfig(
        strategy=SYMMETRIC,
        classes=(simulator.WorkloadClass(RecParams(1, 1, 1), 48),),
        nodes=96,
        trials=4000,
        master_seed=1102,
    )
    summary = simulator.simulate(sym_cfg)
    exact = expect(
        SYMMETRIC, RecParams(1, 1, 1), SystemParams(96, 48), Method.INTEGRAL
    ).value
    if not abs(summary.mean - exact) <= 3 * summary.std_error:
        return False, f"symmetric: |{summary.mean:.3f} - {exact:.3f}| > 3 SE"
    return True, "seeded runs within 3 standard errors"


def _check_trial_seeds() -> tuple[bool, str]:
    import numpy as np

    from . import simulator

    # the simulator computes SeedSequence's words itself, for sweep grid
    # points as for trials, and numpy seeds PCG64 from them, so a numpy
    # that seeds otherwise would change every stream
    seeds = (0, 2**64 + 5, 2**200 + 3)
    points = [(seed, 48, 2**32) for seed in seeds] + [(seeds[1], 2**33 + 1, 5)]
    for point, word in zip(points, simulator._point_seeds(points)):
        want = np.random.SeedSequence(point).generate_state(2, np.uint64)[0]
        if word != want:
            return False, f"point seed of {point}: {word} != {want}"
    configs = [
        simulator.SimConfig(
            strategy=RANDOM,
            classes=(simulator.WorkloadClass(RecParams(1, 0, 1), 1),),
            nodes=2,
            trials=3,
            master_seed=seed,
        )
        for seed in seeds
    ]
    got = simulator._trial_seeds(configs)
    for seed in seeds:
        for trial in range(3):
            state = np.random.default_rng(next(got)).bit_generator.state
            want = np.random.default_rng(np.random.SeedSequence([seed, trial]))
            if state != want.bit_generator.state:
                return False, f"trial {trial} of seed {seed}: numpy's state differs"
    return True, (
        "9 trial states equal default_rng(SeedSequence([m, t]))'s, "
        "4 point seeds SeedSequence([s, N, D])'s"
    )


def _check_d_invariance() -> tuple[bool, str]:
    rec = RecParams(1, 1, 1)
    lo = expect(SYMMETRIC, rec, SystemParams(96, 48), Method.INTEGRAL).value
    hi = expect(SYMMETRIC, rec, SystemParams(96, 480), Method.INTEGRAL).value
    if lo != hi:
        return False, f"{lo!r} != {hi!r} across D"
    return True, "integral identical across valid D"


# (name, check) in run order; the only place a check is named
_QUICK = (
    ("beta-identity", _check_beta_identity),
    ("small-x-precision", _check_small_x_precision),
    ("monotone-shift-identity", _check_monotone_shift),
    ("incomplete-beta-quadrature", _check_quadrature_consistency),
    ("survival-curve-sum", _check_survival_curve),
    ("additive-error-bounds", _check_error_bounds),
    ("symmetric-exact-vs-integral", lambda: _check_exact_vs_integral(12)),
    ("brute-vs-polynomial", _check_brute_vs_polynomial),
    ("brute-random-pinned", _check_brute_random),
    ("pinned-values", _check_pinned_values),
    ("symmetric-d-invariance", _check_d_invariance),
    ("trial-seeds", _check_trial_seeds),
)
CHECKS = {
    "quick": _QUICK,
    "full": _QUICK + (
        ("symmetric-exact-vs-integral-full", lambda: _check_exact_vs_integral(120)),
        ("simulation-agreement", _check_simulation_agreement),
    ),
}


def _run(name: str, check) -> CheckResult:
    """check's result under name; a check that raises fails with what it raised."""
    try:
        return CheckResult(name, *check())
    except Exception as exc:
        return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")


def run_selftest(level: str = "quick") -> list[CheckResult]:
    """Run every check of level in order; a check that fails or raises
    does not stop the rest."""
    if level not in CHECKS:
        raise ParameterError(f"level must be {' or '.join(CHECKS)}, got {level!r}")
    return [_run(name, check) for name, check in CHECKS[level]]
