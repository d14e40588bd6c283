"""Conditional independence tests for discrete and Gaussian data.

Discrete statistics are functions of the contingency counts n_ijk of x and y
within each observed configuration of the conditioning set; Gaussian
statistics are transformations of the partial correlation. Every asymptotic
test has a Monte Carlo permutation twin (labels mc-*) whose null replicates
permute x within conditioning strata (discrete) or permute the residuals of
x on z (continuous).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import ContingencyTable, DataError, Dataset, _regress, \
    contingency_counts, joint_config_codes, partial_correlation
from .special import chi2_sf, normal_two_sided, student_t_two_sided

DISCRETE_TESTS = ("mi", "mc-mi", "x2", "mc-x2", "fmi", "aict")
CONTINUOUS_TESTS = ("cor", "mc-cor", "zf", "mc-zf", "mi-g", "mc-mi-g")
TEST_LABELS = DISCRETE_TESTS + CONTINUOUS_TESTS

TEST_NAMES = {
    "mi": "Mutual Information (discrete)",
    "mc-mi": "Mutual Information (discrete, Monte Carlo)",
    "x2": "Pearson's X^2",
    "mc-x2": "Pearson's X^2 (Monte Carlo)",
    "fmi": "Fast Mutual Information",
    "aict": "AIC-based Conditional Independence Test",
    "cor": "Pearson's Linear Correlation",
    "mc-cor": "Pearson's Linear Correlation (Monte Carlo)",
    "zf": "Fisher's Z",
    "mc-zf": "Fisher's Z (Monte Carlo)",
    "mi-g": "Mutual Information (Gaussian)",
    "mc-mi-g": "Mutual Information (Gaussian, Monte Carlo)",
}


class TestError(ValueError):
    """Unknown test label or a test/data mismatch."""


@dataclass(frozen=True)
class TestResult:
    """Statistic, degrees of freedom or replicate count, and p-value."""

    label: str
    statistic: float
    p_value: float
    df: float | None = None
    replicates: int | None = None
    degenerate: bool = False  # statistic was infinite or untestable


# -- discrete statistics ---------------------------------------------------------

def _mi_from_counts(counts: np.ndarray, n: int) -> float:
    nik = counts.sum(axis=1, keepdims=True)      # n_{i+k}
    njk = counts.sum(axis=0, keepdims=True)      # n_{+jk}
    nk = counts.sum(axis=(0, 1), keepdims=True)  # n_{++k}
    num = counts.astype(float) * nk
    den = nik.astype(float) * njk
    ratio = np.divide(num, den, out=np.ones_like(num, dtype=float),
                      where=counts > 0)
    terms = np.where(counts > 0, counts * np.log(ratio), 0.0)
    return float(terms.sum() / n)


def _x2_from_counts(counts: np.ndarray) -> float:
    nik = counts.sum(axis=1, keepdims=True).astype(float)
    njk = counts.sum(axis=0, keepdims=True).astype(float)
    nk = counts.sum(axis=(0, 1), keepdims=True).astype(float)
    m = np.divide(nik * njk, nk, out=np.zeros_like(nik * njk), where=nk > 0)
    terms = np.divide((counts - m) ** 2, m, out=np.zeros_like(m), where=m > 0)
    return float(terms.sum())


def table_df(t: ContingencyTable) -> int:
    return (t.R - 1) * (t.C - 1) * t.L


def mi_discrete(t: ContingencyTable) -> float:
    """Mutual information of the table; 0 log 0 counts as 0."""
    if t.n <= 0:
        raise TestError("empty contingency table")
    return _mi_from_counts(t.counts, t.n)


def x2_discrete(t: ContingencyTable) -> float:
    """Pearson's X^2 statistic; cells with zero expected count contribute 0."""
    if t.n <= 0:
        raise TestError("empty contingency table")
    return _x2_from_counts(t.counts)


def fmi_statistic(t: ContingencyTable, n: int) -> float:
    """Mutual information, zeroed when there are under five data per parameter."""
    if n < 5 * table_df(t):
        return 0.0
    return mi_discrete(t)


def aic_test(t: ContingencyTable, n: int) -> bool:
    """Dependence decision: mutual information at or above df/n."""
    return mi_discrete(t) >= table_df(t) / n


def table_test(t: ContingencyTable, kind: str) -> TestResult:
    """Asymptotic TestResult for one of the discrete labels."""
    df = table_df(t)
    if kind == "mi":
        stat = 2.0 * t.n * mi_discrete(t)
        return TestResult("mi", stat, chi2_sf(stat, df), df=df)
    if kind == "x2":
        stat = x2_discrete(t)
        return TestResult("x2", stat, chi2_sf(stat, df), df=df)
    if kind == "fmi":
        stat = 2.0 * t.n * fmi_statistic(t, t.n)
        return TestResult("fmi", stat, chi2_sf(stat, df) if stat > 0 else 1.0, df=df)
    if kind == "aict":
        dependent = aic_test(t, t.n)
        return TestResult("aict", 2.0 * t.n * mi_discrete(t),
                          0.0 if dependent else 1.0, df=df)
    raise TestError(f"unknown discrete test {kind!r}")


# -- Gaussian statistics ------------------------------------------------------------

def gaussian_statistic(rho: float, n: int, zsize: int, kind: str) -> TestResult:
    """Asymptotic test of a partial correlation with |z| = zsize."""
    if abs(rho) > 1.0 + 1e-12:
        raise TestError("|rho| must not exceed 1")
    rho = max(-1.0, min(1.0, rho))
    if kind == "cor":
        df = n - zsize - 2
        if df <= 0:
            raise TestError("cor requires n > |z| + 2")
        if abs(rho) == 1.0:
            return TestResult("cor", math.inf, 0.0, df=df, degenerate=True)
        t = rho * math.sqrt(df / (1.0 - rho * rho))
        return TestResult("cor", t, student_t_two_sided(t, df), df=df)
    if kind == "zf":
        if n - zsize - 3 <= 0:
            raise TestError("zf requires n > |z| + 3")
        if abs(rho) == 1.0:
            return TestResult("zf", math.copysign(math.inf, rho), 0.0,
                              df=float(n - zsize - 3), degenerate=True)
        z = 0.5 * math.sqrt(n - zsize - 3) * math.log((1.0 + rho) / (1.0 - rho))
        return TestResult("zf", z, normal_two_sided(z), df=float(n - zsize - 3))
    if kind == "mi-g":
        if abs(rho) == 1.0:
            return TestResult("mi-g", math.inf, 0.0, df=1.0, degenerate=True)
        stat = 2.0 * n * (-0.5 * math.log1p(-rho * rho))
        return TestResult("mi-g", stat, chi2_sf(stat, 1.0), df=1.0)
    raise TestError(f"unknown Gaussian test {kind!r}")


# -- Monte Carlo permutation tests -----------------------------------------------------

def _discrete_perm_stat(kind: str):
    if kind == "mc-mi":
        return lambda counts, n: 2.0 * n * _mi_from_counts(counts, n)
    if kind == "mc-x2":
        return lambda counts, n: _x2_from_counts(counts)
    raise TestError(f"unknown discrete permutation test {kind!r}")


def _residual_corr(rx: np.ndarray, ry: np.ndarray) -> float:
    sx = math.sqrt(float(rx @ rx))
    sy = math.sqrt(float(ry @ ry))
    if sx <= 0.0 or sy <= 0.0:
        return 0.0
    return float(np.clip(rx @ ry / (sx * sy), -1.0, 1.0))


def _gaussian_perm_stat(kind: str, n: int, zsize: int):
    if kind == "mc-cor":
        df = n - zsize - 2

        def stat(rho):
            if abs(rho) >= 1.0:
                return math.inf
            return abs(rho) * math.sqrt(df / (1.0 - rho * rho))
        if df <= 0:
            raise TestError("mc-cor requires n > |z| + 2")
        return stat
    if kind == "mc-zf":
        if n - zsize - 3 <= 0:
            raise TestError("mc-zf requires n > |z| + 3")

        def stat(rho):
            if abs(rho) >= 1.0:
                return math.inf
            return 0.5 * math.sqrt(n - zsize - 3) * abs(math.log((1 + rho) / (1 - rho)))
        return stat
    if kind == "mc-mi-g":
        def stat(rho):
            if abs(rho) >= 1.0:
                return math.inf
            return 2.0 * n * (-0.5 * math.log1p(-rho * rho))
        return stat
    raise TestError(f"unknown Gaussian permutation test {kind!r}")


def permutation_pvalue(d: Dataset, x: str, y: str, z=(), kind: str = "mc-mi",
                       B: int = 1000, seed=0) -> TestResult:
    """Stratified/residual permutation test; p = (1 + #{s_b >= s0}) / (1 + B)."""
    if B < 1:
        raise TestError("B must be at least 1")
    rng = np.random.default_rng(seed)
    z = list(z)
    if kind in ("mc-mi", "mc-x2"):
        if not d.discrete:
            raise TestError(f"{kind} requires discrete data")
        stat_fn = _discrete_perm_stat(kind)
        xc = d.codes(x)
        yc = d.codes(y)
        R = len(d.levels(x))
        C = len(d.levels(y))
        zidx, L = joint_config_codes(d, z)
        order = np.argsort(zidx, kind="stable")
        bounds = np.searchsorted(zidx[order], np.arange(L + 1))
        xs = xc[order]
        ys = yc[order]
        flat_base = ys * L + zidx[order]
        s0 = stat_fn(np.bincount((xs * C + ys) * L + zidx[order],
                                 minlength=R * C * L).reshape(R, C, L), d.n)
        exceed = 0
        xp = xs.copy()
        for _ in range(B):
            for k in range(L):
                lo, hi = bounds[k], bounds[k + 1]
                if hi - lo > 1:
                    xp[lo:hi] = xs[lo:hi][rng.permutation(hi - lo)]
            counts = np.bincount(xp * (C * L) + flat_base,
                                 minlength=R * C * L).reshape(R, C, L)
            if stat_fn(counts, d.n) >= s0:
                exceed += 1
        return TestResult(kind, s0, (1 + exceed) / (1 + B), replicates=B)

    if kind in ("mc-cor", "mc-zf", "mc-mi-g"):
        if d.discrete:
            raise TestError(f"{kind} requires continuous data")
        stat_fn = _gaussian_perm_stat(kind, d.n, len(z))
        _, rx = _regress(d, x, z)
        _, ry = _regress(d, y, z)
        s0 = stat_fn(_residual_corr(rx, ry))
        exceed = 0
        for _ in range(B):
            perm = rng.permutation(d.n)
            if stat_fn(_residual_corr(rx[perm], ry)) >= s0:
                exceed += 1
        return TestResult(kind, s0, (1 + exceed) / (1 + B), replicates=B)

    raise TestError(f"unknown permutation test {kind!r}")


# -- dispatcher -------------------------------------------------------------------------

def default_test(d: Dataset) -> str:
    return "mi" if d.discrete else "cor"


def ci_test(d: Dataset, x: str, y: str, z=(), test: str | None = None,
            B: int | None = None, seed=0) -> TestResult:
    """Run the named conditional independence test of x and y given z."""
    label = test or default_test(d)
    if label not in TEST_LABELS:
        raise TestError(f"unknown test label {label!r}")
    z = list(z)
    if label in DISCRETE_TESTS and not d.discrete:
        raise TestError(f"test {label!r} requires discrete data")
    if label in CONTINUOUS_TESTS and d.discrete:
        raise TestError(f"test {label!r} requires continuous data")
    if label.startswith("mc-"):
        return permutation_pvalue(d, x, y, z, kind=label, B=B or 1000, seed=seed)
    if label in DISCRETE_TESTS:
        return table_test(contingency_counts(d, x, y, z), label)
    try:
        rho = partial_correlation(d, x, y, z)
    except DataError:
        # unidentifiable conditioning set: cannot establish dependence
        return TestResult(label, 0.0, 1.0, degenerate=True)
    return gaussian_statistic(rho, d.n, len(z), label)
