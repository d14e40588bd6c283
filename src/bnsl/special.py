"""Tail probabilities for the chi-squared, Student-t and normal distributions.

Built on in-house regularized incomplete gamma/beta functions so p-values do
not depend on an external statistics library. The continued-fraction and
series expansions below converge to ~1e-14 relative accuracy, comfortably
inside the 1e-10 target for the derived p-values.
"""

from __future__ import annotations

import math

import numpy as np

_MAX_ITER = 1000
# The Lentz fractions replace a value in (-_FPMIN, _FPMIN) by _FPMIN. They stop at a
# step of exactly 1.0, which is |step - 1| < 1e-17: |step - 1.0| is 0 or at least 2^-53.
_FPMIN = 1e-300


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a).

    An infinite a or x gives the limit, 1 or 0; both infinite is a ValueError.
    """
    if not a > 0:
        raise ValueError("a is NaN" if math.isnan(a) else "a must be positive")
    if not x >= 0:
        raise ValueError("x is NaN" if math.isnan(x) else "x must be nonnegative")
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        if math.isinf(a):
            raise ValueError("a and x are both infinite")
        return 0.0
    if math.isinf(a):
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    if x == a:
        # here a + 1 rounds to a (a >= 2^53), so the fraction would start by
        # dividing by x + 1 - a = 0. Temme's uniform expansion at x = a is
        # 1/2 - (1/3 + 1/(540 a) + ...) / sqrt(2 pi a), whose terms past the
        # first are below 1e-27 at such a
        return 0.5 - 1.0 / (3.0 * math.sqrt(2.0 * math.pi * a))
    return _gamma_contfrac(a, x)


def _gamma_series(a: float, x: float) -> float:
    # series representation, converges fast for x < a + 1
    ap = a
    total = term = 1.0 / a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if term < total * 1e-17:  # both are positive here
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_contfrac(a: float, x: float) -> float:
    # modified Lentz continued fraction for Q(a, x), x >= a + 1
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    low = -_FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if low < d < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if low < c < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if delta == 1.0:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def regularized_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b).

    For 0 < x < 1 an infinite a or b gives the limit, 0 or 1; both infinite
    is a ValueError.
    """
    if not (a > 0 and b > 0):
        raise ValueError("a is NaN" if math.isnan(a) else "b is NaN" if math.isnan(b)
                         else "a and b must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x is NaN" if math.isnan(x) else "x must be in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if math.isinf(a):
        if math.isinf(b):
            raise ValueError("a and b are both infinite")
        return 0.0
    if math.isinf(b):
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    # symmetry keeps the continued fraction in its fast-converging region
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_contfrac(a, b, x) / a
    return 1.0 - front * _beta_contfrac(b, a, 1.0 - x) / b


def _beta_contfrac(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    low = -_FPMIN
    d = 1.0 - qab * x / qap
    if low < d < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if low < d < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if low < c < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if low < d < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if low < c < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if delta == 1.0:
            break
    return h


def _check_statistic(s: float) -> None:
    # a NaN would compare false everywhere and come out as a NaN p-value
    if math.isnan(s):
        raise ValueError("test statistic is NaN")


def chi2_sf(x: float, df: float) -> float:
    """Survival function of the chi-squared distribution."""
    if not df > 0:
        raise ValueError("df is NaN" if math.isnan(df) else "df must be positive")
    _check_statistic(x)
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    return regularized_gamma_q(df / 2.0, x / 2.0)


def student_t_two_sided(t: float, df: float) -> float:
    """P(|T| >= t) for Student's t with df degrees of freedom."""
    if not df > 0:
        raise ValueError("df is NaN" if math.isnan(df) else "df must be positive")
    _check_statistic(t)
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    if df == math.inf:  # the normal limit; the beta form would divide inf by inf
        return normal_two_sided(t)
    return regularized_beta(df / 2.0, 0.5, df / (df + t * t))


def normal_two_sided(z: float) -> float:
    """P(|Z| >= z) for a standard normal variable."""
    _check_statistic(z)
    if math.isinf(z):
        return 0.0
    return math.erfc(abs(z) / math.sqrt(2.0))


# Lanczos approximation (g = 7, 9 terms), valid for positive arguments after
# reflection; used to vectorize log-gamma over count arrays.
_LANCZOS_G = 7.0
_LANCZOS_COEF = np.array([
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])


def lgamma_array(x) -> np.ndarray:
    """Elementwise log-gamma for arrays of positive reals (lgamma(inf) = inf)."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):  # also rejects NaN
        raise ValueError("lgamma_array requires positive arguments")
    out = np.empty_like(x)
    small = x < 0.5
    # reflection: lgamma(x) = log(pi / sin(pi x)) - lgamma(1 - x)
    if np.any(small):
        xs = x[small]
        with np.errstate(over="ignore"):
            quotient = np.pi / np.sin(np.pi * xs)
        # below about 1e-308 the quotient overflows; there sin(pi x) is pi x,
        # so the log of the quotient is -log(x)
        reflected = np.where(np.isinf(quotient), -np.log(xs), np.log(quotient))
        out[small] = reflected - _lanczos(1.0 - xs)
    infinite = x == np.inf
    out[infinite] = np.inf
    rest = ~(small | infinite)
    if np.any(rest):
        out[rest] = _lanczos(x[rest])
    return out


def _lanczos(x: np.ndarray) -> np.ndarray:
    z = x - 1.0
    acc = np.full_like(z, _LANCZOS_COEF[0])
    for i in range(1, len(_LANCZOS_COEF)):
        acc = acc + _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * np.log(t) - t + np.log(acc)
