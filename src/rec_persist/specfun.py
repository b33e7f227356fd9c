"""Special functions for persistency formulas, stable at integer parameters.

Survival probabilities of replicated erasure codes reduce to the regularized
incomplete Beta function I_x(a, b) with integer a, b >= 1.  For integer
parameters it is a binomial tail with n = a + b - 1 trials,

    I_x(a, b)     = sum_{j=a}^{n}   C(n, j) x^j (1-x)^(n-j),
    1 - I_x(a, b) = sum_{j=0}^{a-1} C(n, j) x^j (1-x)^(n-j),

two sums of purely positive terms.  The kernel returns the natural log of
the complement: expected-persistency formulas raise the complement to
powers as large as the document count, so downstream code wants
exp(D * log_complement) rather than (1 - I)^D.  An absolute error of one
ulp in that log is multiplied by D, so the kernel always sums the smaller
tail (DiDonato & Morris, ACM TOMS 18, 1992): below x = a/(a+b) it sums I
and returns log1p(-I), otherwise it returns the log of the complement sum.

beta and beta_real are plain math.  The kernel and its tail helpers
import numpy when they run, so importing this module loads no numpy.
"""

from __future__ import annotations

import math
import sys

from .errors import ParameterError, require_int

# typing's flag without loading typing; type checkers take it as true
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "beta",
    "beta_real",
    "reg_inc_beta",
    "log_reg_inc_beta_complement",
]

_FLOAT_MAX = sys.float_info.max


def beta(a: int, b: int) -> float:
    """Beta(a, b) = 1 / (C(a+b-2, a-1) * (a+b-1)) for integers a, b >= 1.

    The binomial coefficient is evaluated exactly, so the only rounding is
    the final division.
    """
    a = require_int(a, "a", 1)
    b = require_int(b, "b", 1)
    return 1.0 / (math.comb(a + b - 2, a - 1) * (a + b - 1))


# B_2k / (2k (2k-1)) for k = 1..8: lgamma(z) - ((z-1/2) ln z - z + ln(2 pi)/2)
# is sum_k c_k z^(1-2k); at z >= 10 the first omitted term is below 2e-18
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
             -691 / 360360, 1 / 156, -3617 / 122400)


def _stirling_series(z: float) -> float:
    try:
        w = 1.0 / (z * z)
    except OverflowError:
        # an int z past about 1.34e154, whose square has no float: 1/z^2
        # is far below an ulp of every coefficient, and a float z, whose
        # square is inf there, gets the same 0.0
        w = 0.0
    total = 0.0
    for c in reversed(_STIRLING):
        total = total * w + c
    return total / z


def beta_real(a: float, b: float) -> float:
    """Beta(a, b) for real a, b > 0 via the log-Gamma route.

    lgamma(a) - lgamma(a+b) cancels when a is large and b small (as in the
    p = 1 closed forms, a ~ D or N and b = 1/(r(q+1))): each lgamma carries
    an absolute error of about an ulp of a ln a.  From a = 10 the difference
    is taken from Stirling's series instead, where it is
    -(a-1/2) log1p(b/a) - b ln(a+b) + b plus the difference of the series
    tails, none of which is larger than b ln(a+b).
    """
    if not (a > 0 and b > 0):
        raise ParameterError(f"beta_real requires a, b > 0, got a={a!r}, b={b!r}")
    if a < 10:
        return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    diff = (
        -(a - 0.5) * math.log1p(b / a)
        - b * math.log(a + b)
        + b
        + _stirling_series(a)
        - _stirling_series(a + b)
    )
    return math.exp(math.lgamma(b) + diff)


def _upper_head(n: int, a: int, x: np.ndarray, log1mx: np.ndarray) -> np.ndarray:
    """C(n, a) x^a (1-x)^(n-a), the largest term of I_x(a, n+1-a) below its mean."""
    import numpy as np

    c = math.comb(n, a)
    if c <= _FLOAT_MAX:
        return c * x**a * np.exp((n - a) * log1mx)
    # only when a and b both run into the hundreds
    return np.exp(math.log(c) + a * np.log(x) + (n - a) * log1mx)


def _upper_tail(n: int, a: int, xs: np.ndarray) -> np.ndarray:
    """I_x(a, n+1-a) for x below a/(n+1): the tail from its largest term up."""
    import numpy as np

    term = _upper_head(n, a, xs, np.log1p(-xs))
    total = term.copy()
    ratio = xs / (1.0 - xs)
    for j in range(a, n):
        term *= (n - j) / (j + 1) * ratio
        grown = total + term
        if (grown == total).all():
            break
        total = grown
    return total


def _log_lower_tail(n: int, a: int, b: int, xs: np.ndarray) -> np.ndarray:
    """ln(1 - I_x(a, b)) for x from a/(a+b) up: the complement from j = a-1 down."""
    import numpy as np

    ratio = (1.0 - xs) / xs
    term = np.ones_like(xs)
    total = term.copy()
    for j in range(a - 1, 0, -1):
        term *= j / (n - j + 1) * ratio
        grown = total + term
        if (grown == total).all():
            break
        total = grown
    return (
        math.log(math.comb(n, a - 1)) + (a - 1) * np.log(xs) + b * np.log1p(-xs)
        + np.log(total)
    )


def log_reg_inc_beta_complement(x, a: int, b: int):
    """ln(1 - I_x(a, b)) for integer a, b >= 1, elementwise over x.

    Below x = a/(a+b) the upper tail I = sum_{j>=a} is the smaller one: it
    starts from its largest term C(n, a) x^a (1-x)^(n-a) (exact integer
    coefficient) and adds the next terms by the ratio recurrence
    t_{j+1} = t_j (n-j)/(j+1) x/(1-x) until they no longer change the sum,
    so no coefficient C(n, j) is ever formed for large j.  The result is
    log1p(-I), accurate in relative terms however small I is.  From a/(a+b)
    up, the complement sum_{j<a} runs down from j = a-1 the same way and is
    carried in log space, so it stays finite far below float underflow.
    Exact 0.0 at x = 0 and -inf at x = 1.

    x may be an array or a float; a float (or 0-d array) gives a float.
    """
    import numpy as np

    a = require_int(a, "a", 1)
    b = require_int(b, "b", 1)
    n = a + b - 1
    arr = np.asarray(x, dtype=float)
    if not arr.size:
        return np.empty_like(arr)
    lo, hi = arr.min(), arr.max()
    if not (lo >= 0.0 and hi <= 1.0):  # also nan, which min and max propagate
        raise ParameterError(f"x must lie in [0, 1], got {x!r}")
    switch = a / (a + b)
    # a tail runs on all of x when every point is on its side: the boolean
    # gather and scatter would cost more than the tail on a short array.
    # x is taken 1-d, so a float runs the same array arithmetic as an element
    flat = arr.reshape(-1)
    with np.errstate(divide="ignore"):
        if hi < switch:
            out = np.log1p(-_upper_tail(n, a, flat))
        elif lo >= switch:
            out = _log_lower_tail(n, a, b, flat)
        else:
            out = np.empty_like(flat)
            upper = flat < switch
            lower = ~upper
            out[upper] = np.log1p(-_upper_tail(n, a, flat[upper]))
            out[lower] = _log_lower_tail(n, a, b, flat[lower])
    return out.reshape(arr.shape) if arr.ndim else float(out[0])


def reg_inc_beta(x: float, a: int, b: int) -> float:
    """Regularized incomplete Beta I_x(a, b) for integer a, b >= 1."""
    return -math.expm1(log_reg_inc_beta_complement(x, a, b)) + 0.0
