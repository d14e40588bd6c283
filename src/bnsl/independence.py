"""Conditional independence tests for discrete and Gaussian data.

Discrete statistics are functions of the contingency counts n_ijk of x and y
within each observed configuration of the conditioning set; Gaussian
statistics are transformations of the partial correlation. Every asymptotic
test has a Monte Carlo permutation twin (labels mc-*) whose null replicates
permute x within conditioning strata (discrete, drawn directly as tables with
the observed margins in every stratum) or permute the residuals of x on z
(continuous).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .data import ContingencyTable, DataError, Dataset, _regress, \
    contingency_counts, partial_correlation
# re-exported: the benchmark's tracer (perfbench/tracing.py) wraps this name here
from .data import joint_config_codes  # noqa: F401
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

# The kernels take counts of shape (..., R, C, L), so one call scores a single
# table or a whole batch of Monte Carlo replicates.

def _mi_from_counts(counts: np.ndarray, n: int) -> np.ndarray:
    nik = counts.sum(axis=-2, keepdims=True)          # n_{i+k}
    njk = counts.sum(axis=-3, keepdims=True)          # n_{+jk}
    nk = counts.sum(axis=(-3, -2), keepdims=True)     # n_{++k}
    num = counts.astype(float) * nk
    den = nik.astype(float) * njk
    ratio = np.divide(num, den, out=np.ones_like(num, dtype=float),
                      where=counts > 0)
    terms = np.where(counts > 0, counts * np.log(ratio), 0.0)
    return terms.sum(axis=(-3, -2, -1)) / n


def _x2_from_counts(counts: np.ndarray) -> np.ndarray:
    nik = counts.sum(axis=-2, keepdims=True).astype(float)
    njk = counts.sum(axis=-3, keepdims=True).astype(float)
    nk = counts.sum(axis=(-3, -2), keepdims=True).astype(float)
    m = np.divide(nik * njk, nk, out=np.zeros_like(nik * njk), where=nk > 0)
    terms = np.divide((counts - m) ** 2, m, out=np.zeros_like(m), where=m > 0)
    return terms.sum(axis=(-3, -2, -1))


def table_df(t: ContingencyTable) -> int:
    return (t.R - 1) * (t.C - 1) * t.L


def mi_discrete(t: ContingencyTable) -> float:
    """Mutual information of the table; 0 log 0 counts as 0."""
    if t.n <= 0:
        raise TestError("empty contingency table")
    return float(_mi_from_counts(t.counts, t.n))


def x2_discrete(t: ContingencyTable) -> float:
    """Pearson's X^2 statistic; cells with zero expected count contribute 0."""
    if t.n <= 0:
        raise TestError("empty contingency table")
    return float(_x2_from_counts(t.counts))


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

# Replicates are drawn in chunks whose working arrays hold about this many
# elements, so memory stays fixed whatever B is.
_CHUNK_ELEMENTS = 2 ** 14


def _check_replicates(B) -> None:
    if isinstance(B, bool) or not isinstance(B, numbers.Integral) or B < 1:
        raise TestError(f"B must be an integer of at least 1, got {B!r}")


def _null_tables(rng: np.random.Generator, rows: np.ndarray, cols: np.ndarray,
                 b: int) -> np.ndarray:
    """b random tables with the given margins in every stratum, shape (b, R, C, L).

    rows is n_{i+k} (R, L) and cols n_{+jk} (C, L). Permuting x within each
    stratum yields exactly this multivariate hypergeometric distribution; each
    table is filled row by row, cell (i, j) drawn conditionally on the cells
    before it (Patefield 1981, AS 159).
    """
    R, L = rows.shape
    C = cols.shape[0]
    tables = np.empty((b, R, C, L), dtype=np.int64)
    col_rem = np.repeat(cols[None], b, axis=0)
    for i in range(R - 1):
        row_rem = np.repeat(rows[None, i], b, axis=0)
        later = col_rem.sum(axis=1)
        for j in range(C - 1):
            later -= col_rem[:, j]
            cell = rng.hypergeometric(col_rem[:, j], later, row_rem)
            tables[:, i, j] = cell
            row_rem -= cell
            col_rem[:, j] -= cell
        tables[:, i, C - 1] = row_rem
        col_rem[:, C - 1] -= row_rem
    tables[:, R - 1] = col_rem
    return tables


def _chunks(B: int, per_replicate: int):
    size = max(1, _CHUNK_ELEMENTS // per_replicate)
    for start in range(0, B, size):
        yield min(size, B - start)


def permutation_pvalue(d: Dataset, x: str, y: str, z=(), kind: str = "mc-mi",
                       B: int = 1000, seed=0) -> TestResult:
    """Stratified/residual permutation test; p = (1 + #{s_b >= s0}) / (1 + B)."""
    _check_replicates(B)
    rng = np.random.default_rng(seed)
    z = list(z)
    if kind in ("mc-mi", "mc-x2"):
        if not d.discrete:
            raise TestError(f"{kind} requires discrete data")
        t = contingency_counts(d, x, y, z)
        if kind == "mc-mi":
            def stat(counts):
                return 2.0 * t.n * _mi_from_counts(counts, t.n)
        else:
            stat = _x2_from_counts
        s0 = stat(t.counts[None])[0]
        rows, cols = t.margin_x(), t.margin_y()
        exceed = 0
        for b in _chunks(B, t.counts.size):
            exceed += int(np.count_nonzero(stat(_null_tables(rng, rows, cols, b)) >= s0))
        return TestResult(kind, float(s0), (1 + exceed) / (1 + B), replicates=B)

    if kind in ("mc-cor", "mc-zf", "mc-mi-g"):
        if d.discrete:
            raise TestError(f"{kind} requires continuous data")
        _, rx = _regress(d, x, z)
        _, ry = _regress(d, y, z)
        norm = math.sqrt(float(rx @ rx)) * math.sqrt(float(ry @ ry))
        rho0 = float(np.clip(rx @ ry / norm, -1.0, 1.0)) if norm > 0.0 else 0.0
        s0 = abs(gaussian_statistic(rho0, d.n, len(z), kind[3:]).statistic)
        if norm <= 0.0:
            return TestResult(kind, s0, 1.0, replicates=B)
        # every statistic grows with |rho|, so replicates compare on |rho| alone;
        # permuted() draws exactly what successive rng.permutation(n) calls do
        identity = np.arange(d.n)
        exceed = 0
        for b in _chunks(B, d.n):
            perms = rng.permuted(np.broadcast_to(identity, (b, d.n)), axis=1)
            rho = np.clip(rx[perms] @ ry / norm, -1.0, 1.0)
            exceed += int(np.count_nonzero(np.abs(rho) >= abs(rho0)))
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
        return permutation_pvalue(d, x, y, z, kind=label,
                                  B=1000 if B is None else B, seed=seed)
    if label in DISCRETE_TESTS:
        return table_test(contingency_counts(d, x, y, z), label)
    try:
        rho = partial_correlation(d, x, y, z)
    except DataError:
        # unidentifiable conditioning set: cannot establish dependence
        return TestResult(label, 0.0, 1.0, degenerate=True)
    return gaussian_statistic(rho, d.n, len(z), label)
