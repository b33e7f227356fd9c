"""Special-function layer: fixed values, identities, and properties."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rec_persist import specfun
from rec_persist.errors import ParameterError
from rec_persist.selftest import _inc_beta_integral
from rec_persist.specfun import beta, beta_real, log_reg_inc_beta_complement, reg_inc_beta


class TestBeta:
    def test_small_exact(self):
        assert beta(1, 1) == 1.0
        assert beta(2, 3) == pytest.approx(1 / 12, rel=1e-15)
        assert beta(2, 2) == pytest.approx(1 / 6, rel=1e-15)

    def test_real_half_arguments(self):
        # B(6, 1/2) = 512/693 and B(3, 1/2) = 16/15
        assert beta_real(6.0, 0.5) == pytest.approx(512 / 693, rel=1e-13)
        assert beta_real(3.0, 0.5) == pytest.approx(16 / 15, rel=1e-13)

    def test_integer_forms_agree(self):
        for a in range(1, 12):
            for b in range(1, 12):
                assert beta_real(float(a), float(b)) == pytest.approx(
                    beta(a, b), rel=1e-12
                )

    def test_validation(self):
        with pytest.raises(ParameterError):
            beta(0, 1)
        with pytest.raises(ParameterError):
            beta_real(1.0, 0.0)


class TestRegIncBeta:
    def test_power_cases(self):
        # I_x(a, 1) = x^a
        assert reg_inc_beta(0.25, 2, 1) == pytest.approx(0.0625, rel=1e-15)
        # I_x(1, b) = 1 - (1-x)^b
        assert reg_inc_beta(0.5, 1, 3) == pytest.approx(0.875, rel=1e-15)

    def test_boundaries(self):
        for a in (1, 2, 5):
            for b in (1, 3, 4):
                assert reg_inc_beta(0.0, a, b) == 0.0
                assert reg_inc_beta(1.0, a, b) == 1.0
                assert math.exp(log_reg_inc_beta_complement(0.0, a, b)) == 1.0
                assert math.exp(log_reg_inc_beta_complement(1.0, a, b)) == 0.0
        assert log_reg_inc_beta_complement(1.0, 2, 3) == -math.inf
        assert log_reg_inc_beta_complement(0.0, 2, 3) == 0.0

    def test_symmetry(self):
        # I_x(a,b) = 1 - I_{1-x}(b,a)
        for a in (1, 2, 4):
            for b in (1, 3,  5):
                for x in (0.1, 0.37, 0.8):
                    assert reg_inc_beta(x, a, b) == pytest.approx(
                        1.0 - reg_inc_beta(1.0 - x, b, a), abs=1e-14
                    )

    def test_shift_in_b_closed_form(self):
        # I_x(q+1, p+1) - I_x(q+1, p) = C(p+q, p) x^(q+1) (1-x)^p
        for p in range(1, 5):
            for q in range(0, 5):
                for i in range(1, 10):
                    x = i / 10
                    diff = reg_inc_beta(x, q + 1, p + 1) - reg_inc_beta(
                        x, q + 1, p
                    )
                    closed = (
                        math.comb(p + q, p) * x ** (q + 1) * (1 - x) ** p
                    )
                    assert diff == pytest.approx(closed, abs=1e-12)

    def test_quadrature_consistency(self):
        # the integral definition, expanded and integrated exactly
        for a, b in ((1, 1), (2, 3), (3, 2), (5, 4), (6, 1), (1, 6)):
            for x in (0.05, 0.3, 0.5, 0.77, 0.95):
                exact = _inc_beta_integral(Fraction(x), a, b)
                assert reg_inc_beta(x, a, b) == pytest.approx(
                    float(exact), rel=0.0, abs=1e-15
                )

    def test_extreme_arguments_stay_finite(self):
        # log-space evaluation must not overflow for large b
        lv = log_reg_inc_beta_complement(0.999, 3, 5000)
        assert lv < -1000
        assert reg_inc_beta(1e-12, 2, 3) >= 0.0
        # large b below the mean: C(5001, j) overflows a float for large j,
        # so the upper tail must not form those coefficients
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            ref = mpmath.log(1 - mpmath.betainc(2, 5000, 0, 1e-12, regularized=True))
        got = log_reg_inc_beta_complement(1e-12, 2, 5000)
        assert got == pytest.approx(float(ref), rel=1e-14)
        assert got < 0.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            reg_inc_beta(-0.1, 1, 1)
        with pytest.raises(ParameterError):
            reg_inc_beta(1.1, 1, 1)
        with pytest.raises(ParameterError):
            reg_inc_beta(0.5, 0, 1)


def _log_complement_reference(x: float, a: int, b: int, dps: int = 30) -> float:
    """ln(1 - I_x(a, b)) from the smaller binomial tail at dps digits."""
    mpmath = pytest.importorskip("mpmath")
    n = a + b - 1
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)

        def tail(js):
            return mpmath.fsum(math.comb(n, j) * xm**j * (1 - xm) ** (n - j) for j in js)

        if x < a / (a + b):
            return float(mpmath.log1p(-tail(range(a, n + 1))))
        return float(mpmath.log(tail(range(a))))


class TestKernelArrays:
    def test_matches_mpmath(self):
        rng = np.random.default_rng(7)
        for a in range(1, 9):
            for b in range(1, 9):
                x = np.concatenate([
                    rng.random(100),
                    10.0 ** rng.uniform(-14, 0, 100),
                    1.0 - 10.0 ** rng.uniform(-14, -1, 50),
                    [a / (a + b)],
                ])
                got = log_reg_inc_beta_complement(x, a, b)
                want = [_log_complement_reference(v, a, b) for v in x.tolist()]
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("a, b, x", [
        (600, 600, 0.3), (700, 500, 0.5), (520, 600, 0.45), (1000, 1000, 0.49),
    ])
    def test_upper_head_past_float_range(self, a, b, x):
        # C(a+b-1, a) overflows a float, so the upper tail's largest term is
        # formed in log space; the reference is the exact binomial tail, as
        # mpmath.betainc is 2.6e-5 off at (600, 600, 0.3)
        assert math.comb(a + b - 1, a) > specfun._FLOAT_MAX and x < a / (a + b)
        want = _log_complement_reference(x, a, b, dps=50)
        for got in (
            log_reg_inc_beta_complement(x, a, b),
            log_reg_inc_beta_complement(np.array([x]), a, b)[0],
        ):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_boundaries_and_shape(self):
        x = np.array([[0.0, 1.0], [0.25, 0.75]])
        got = log_reg_inc_beta_complement(x, 2, 3)
        assert got.shape == (2, 2)
        assert got[0, 0] == 0.0
        assert got[0, 1] == -math.inf
        assert got[1, 0] == log_reg_inc_beta_complement(0.25, 2, 3)
        # a float or a 0-d array goes through the same path and gives a float
        for x0 in (0.25, np.float64(0.25), np.array(0.25)):
            assert type(log_reg_inc_beta_complement(x0, 2, 3)) is float

    def test_halves_are_independent(self):
        # each half is evaluated only when it has points, and alone it gives
        # the same floats as inside a mixed array or as a float
        rng = np.random.default_rng(11)
        for a, b in ((1, 1), (3, 2), (2, 5), (6, 4)):
            x = np.sort(rng.random(64))
            below, above = x[x < a / (a + b)], x[x >= a / (a + b)]
            assert below.size and above.size
            got = log_reg_inc_beta_complement(x, a, b)
            np.testing.assert_array_equal(got, np.concatenate((
                log_reg_inc_beta_complement(below, a, b),
                log_reg_inc_beta_complement(above, a, b),
            )))
            for v, want in zip(x.tolist(), got.tolist()):
                assert log_reg_inc_beta_complement(v, a, b) == want
                assert log_reg_inc_beta_complement(np.array([v]), a, b)[0] == want

    def test_validation(self):
        with pytest.raises(ParameterError):
            log_reg_inc_beta_complement(np.array([0.5, 1.5]), 2, 3)
        with pytest.raises(ParameterError):
            log_reg_inc_beta_complement(np.array([0.5, math.nan]), 2, 3)

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, -1e-300, 1.0 + 2.0**-52]
    )
    def test_out_of_range_is_refused(self, bad):
        # as a float, alone in an array and beside points of both tails
        for x in (bad, np.array([bad]), np.array([0.1, bad, 0.9])):
            with pytest.raises(ParameterError):
                log_reg_inc_beta_complement(x, 3, 2)

    def test_ends_are_accepted(self):
        for x in (-0.0, 0.0):
            assert log_reg_inc_beta_complement(x, 3, 2) == 0.0
        assert log_reg_inc_beta_complement(1.0, 3, 2) == -math.inf
        got = log_reg_inc_beta_complement(np.array([-0.0, 0.0, 1.0]), 3, 2)
        assert got.tolist() == [0.0, 0.0, -math.inf]

    def test_empty_array(self):
        for shape in ((0,), (2, 0)):
            got = log_reg_inc_beta_complement(np.empty(shape), 3, 2)
            assert isinstance(got, np.ndarray) and got.shape == shape

    def test_pinned_bits(self):
        # the kernel's floats, both tails and the switch point a/(a+b) = 0.6,
        # as a float and as one array; any change to its arithmetic shows here
        x = [x for x, _ in _PINNED_KERNEL]
        got = log_reg_inc_beta_complement(np.array(x), 3, 2).tolist()
        for (v, want), from_array in zip(_PINNED_KERNEL, got):
            assert log_reg_inc_beta_complement(v, 3, 2).hex() == want
            assert from_array.hex() == want


# ln(1 - I_x(3, 2)) as float.hex
_PINNED_KERNEL = (
    (0.0, "-0x0.0p+0"),
    (1e-100, "-0x1.56e1fc2f8f359p-995"),
    (1e-08, "-0x1.357c297397b4cp-78"),
    (0.001, "-0x1.12abf7bf1f842p-28"),
    (0.1, "-0x1.e5dda5881b796p-9"),
    (0.45, "-0x1.1b0564a426a15p-2"),
    (math.nextafter(0.6, 0.0), "-0x1.4a1b1ac430a93p-1"),
    (0.6, "-0x1.4a1b1ac430a96p-1"),
    (0.75, "-0x1.572a03748a306p+0"),
    (0.9, "-0x1.79b277c7ee056p+1"),
    (1 - 1e-12, "-0x1.abc33ace3cce5p+5"),
    (1.0, "-inf"),
)


@settings(deadline=None, max_examples=120)
@given(
    x=st.floats(min_value=0.0, max_value=1.0),
    a=st.integers(min_value=1, max_value=30),
    b=st.integers(min_value=1, max_value=30),
)
def test_reg_inc_beta_in_unit_interval(x, a, b):
    value = reg_inc_beta(x, a, b)
    assert 0.0 <= value <= 1.0
    assert math.exp(log_reg_inc_beta_complement(x, a, b)) == pytest.approx(
        1.0 - value, abs=1e-12
    )


@settings(deadline=None, max_examples=120)
@given(
    x=st.floats(min_value=0.0, max_value=0.98),
    dx=st.floats(min_value=1e-6, max_value=0.02),
    a=st.integers(min_value=1, max_value=20),
    b=st.integers(min_value=1, max_value=20),
)
def test_reg_inc_beta_monotone_in_x(x, dx, a, b):
    assert reg_inc_beta(x + dx, a, b) >= reg_inc_beta(x, a, b) - 1e-14


@settings(deadline=None, max_examples=120)
@given(
    x=st.floats(min_value=0.01, max_value=0.99),
    a=st.integers(min_value=1, max_value=15),
    b=st.integers(min_value=1, max_value=15),
)
def test_reg_inc_beta_monotone_in_b(x, a, b):
    # more mass left of x as b grows
    assert reg_inc_beta(x, a, b + 1) >= reg_inc_beta(x, a, b) - 1e-14

