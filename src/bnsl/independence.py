"""Conditional independence tests for discrete and Gaussian data.

Discrete statistics are functions of the contingency counts n_ijk of x and y
within each observed configuration of the conditioning set; Gaussian
statistics are transformations of the partial correlation. Every asymptotic
test has a Monte Carlo permutation twin (labels mc-*) whose null replicates
permute x within conditioning strata (discrete, drawn directly as tables with
the observed margins in every stratum) or permute the residuals of x on z
(continuous). From a dataset's second asymptotic discrete test of two
distinct columns with an empty conditioning set on, such a test reads its
statistic from one stacked kernel pass over the joint tables of every column
pair (_pair_statistic); the pass asks for those tables itself, the first test
counts its own table with one bincount, and a refused test never asks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import ContingencyTable, DataError, Dataset, _check_integer, \
    _check_variables, _name_list, _pair_stacks, _regress, contingency_counts, \
    partial_correlation
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
    # the table turns float once; its margins are sums of integers below 2^53,
    # so they are exact whatever the order of the additions
    f = counts.astype(float)
    nik = f.sum(axis=-2, keepdims=True)               # n_{i+k}
    njk = f.sum(axis=-3, keepdims=True)               # n_{+jk}
    nk = njk.sum(axis=-2, keepdims=True)              # n_{++k}
    # where a count is 0 the numerator (0) and the denominator both become the
    # denominator plus 1, so the ratio is exactly 1 and the cell adds +0.0;
    # elsewhere both gain +0.0 and keep their values
    unseen = counts == 0
    den = nik * njk
    den += unseen
    terms = f * nk
    terms += den * unseen
    # one buffer takes the ratio, its log and the terms
    terms /= den
    np.log(terms, out=terms)
    terms *= f
    return terms.sum(axis=(-3, -2, -1)) / n


def _x2_from_counts(counts: np.ndarray) -> np.ndarray:
    # the table turns float once and its margins are exact, as in _mi_from_counts
    f = counts.astype(float)
    nik = f.sum(axis=-2, keepdims=True)               # n_{i+k}
    njk = f.sum(axis=-3, keepdims=True)               # n_{+jk}
    nk = njk.sum(axis=-2, keepdims=True)              # n_{++k}
    nk += nk == 0  # an empty stratum's products are 0, and 0 / 1 expects 0
    expected = nik * njk
    expected /= nk
    terms = f - expected
    terms *= terms
    # a cell that expects 0 counts 0, so its term is 0 / 1 = +0.0
    expected += expected == 0
    terms /= expected
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


# The statistic each asymptotic discrete label reads from its table.
_KERNELS = {"mi": "mi", "fmi": "mi", "aict": "mi", "x2": "x2"}


def table_test(t: ContingencyTable, kind: str) -> TestResult:
    """Asymptotic TestResult for one of the discrete labels."""
    if kind not in _KERNELS:
        raise TestError(f"unknown discrete test {kind!r}")
    # fmi does not compute the mutual information it would zero
    statistic = x2_discrete(t) if kind == "x2" else \
        fmi_statistic(t, t.n) if kind == "fmi" else mi_discrete(t)
    return _discrete_result(kind, table_df(t), t.n, statistic)


def _discrete_result(kind: str, df: int, n: int, statistic: float) -> TestResult:
    """The rules of the discrete labels, on a table's statistic from either source.

    statistic is the table's X^2 for x2 and its mutual information otherwise
    (_KERNELS), from the table itself (table_test) or from the stacked pass
    over the pair tables (_pair_statistic). fmi zeroes the mutual
    information under five data per parameter.
    """
    if kind == "x2":
        return TestResult("x2", statistic, chi2_sf(statistic, df), df=df)
    mi = 0.0 if kind == "fmi" and n < 5 * df else statistic
    stat = 2.0 * n * mi
    if kind == "mi":
        return TestResult("mi", stat, chi2_sf(stat, df), df=df)
    if kind == "fmi":
        return TestResult("fmi", stat, chi2_sf(stat, df) if stat > 0 else 1.0, df=df)
    return TestResult("aict", stat, 0.0 if mi >= df / n else 1.0, df=df)


def _pair_statistic(d: Dataset, x: str, y: str, kernel: str) -> float | None:
    """The kernel's statistic of the joint table of x and y, from one pass over all pairs.

    kernel is "mi" or "x2" (_KERNELS). Until a kernel's values are kept, each
    call asks for the pair tables once (data._pair_stacks), so the second
    ask on a fresh dataset computes them. The first call that gets them runs
    the kernel on the tables of every column pair, one call per stack of
    same-shape tables (about _CHUNK_ELEMENTS cells each); a table in a stack
    gets the same bits as a call on it alone. The values are kept in the
    dataset's memo, one entry per kernel. None before the tables exist, past
    their bound, and for a dataset without rows (which never asks). x and y
    are two distinct columns: ci_test sends no other pair.
    """
    key = ("pair-statistics", kernel)
    stats = d._memo.get(key)
    if stats is None:
        stacks = _pair_stacks(d, _CHUNK_ELEMENTS) if d.n else None
        if stacks is None:
            return None
        values = np.empty((len(d.names), len(d.names)))
        for ix, iy, counts in stacks:
            values[np.ix_(ix, iy)] = (_x2_from_counts(counts) if kernel == "x2"
                                      else _mi_from_counts(counts, d.n))
        index = {name: i for i, name in enumerate(d.names)}
        stats = d._memo[key] = index, values.tolist()
    index, rows = stats
    return rows[index[x]][index[y]]


# -- Gaussian statistics ------------------------------------------------------------

# A Gaussian test needs n > |z| + k rows, k per label (an mc-* label as its twin).
_EXTRA_ROWS = {"cor": 2, "zf": 3, "mi-g": 2}


def gaussian_statistic(rho: float, n: int, zsize: int, kind: str) -> TestResult:
    """Asymptotic test of a partial correlation with |z| = zsize."""
    if math.isnan(rho):
        raise TestError("partial correlation is NaN")
    if abs(rho) > 1.0 + 1e-12:
        raise TestError("|rho| must not exceed 1")
    if kind not in _EXTRA_ROWS:
        raise TestError(f"unknown Gaussian test {kind!r}")
    if n <= zsize + _EXTRA_ROWS[kind]:
        raise TestError(f"{kind} requires n > |z| + {_EXTRA_ROWS[kind]}")
    rho = max(-1.0, min(1.0, rho))
    df = {"cor": n - zsize - 2, "zf": float(n - zsize - 3), "mi-g": 1.0}[kind]
    if abs(rho) == 1.0:  # cor and zf keep the sign of rho; mi-g is a magnitude
        stat = math.inf if kind == "mi-g" else math.copysign(math.inf, rho)
        return TestResult(kind, stat, 0.0, df=df, degenerate=True)
    if kind == "cor":
        t = rho * math.sqrt(df / (1.0 - rho * rho))
        return TestResult("cor", t, student_t_two_sided(t, df), df=df)
    if kind == "zf":
        z = 0.5 * math.sqrt(df) * math.log((1.0 + rho) / (1.0 - rho))
        return TestResult("zf", z, normal_two_sided(z), df=df)
    stat = 2.0 * n * (-0.5 * math.log1p(-rho * rho))
    return TestResult("mi-g", stat, chi2_sf(stat, df), df=df)


# -- Monte Carlo permutation tests -----------------------------------------------------

# Replicates are drawn in chunks whose working arrays hold about this many
# elements, so memory stays fixed whatever B is; the pass over the pair
# tables (_pair_statistic) scores its stacks in chunks of this many cells.
_CHUNK_ELEMENTS = 2 ** 14

# Replicates per Monte Carlo test when B is not given.
_DEFAULT_REPLICATES = 1000


def _check_seed(seed) -> None:
    """A seed is an integer of at least 0, a SeedSequence or a Generator."""
    if not isinstance(seed, (np.random.SeedSequence, np.random.Generator)):
        _check_integer("seed", seed, 0, TestError)


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
                       B: int = _DEFAULT_REPLICATES, seed=0) -> TestResult:
    """Permutation twin of an asymptotic test; p = (1 + #{s_b >= s0}) / (1 + B).

    The twin (kind without "mc-") decides whether the test can run and gives
    s0 as a magnitude; an untestable twin is returned as it is, under kind.
    """
    _check_integer("B", B, 1, TestError)
    _check_seed(seed)
    if not (isinstance(kind, str) and kind.startswith("mc-")):
        raise TestError(f"unknown permutation test {kind!r}")
    z = _name_list(z)
    twin, t = _asymptotic_test(d, x, y, z, _resolve_test(d, kind)[3:])
    if t is None:
        return replace(twin, label=kind)
    s0 = abs(twin.statistic)
    rng = np.random.default_rng(seed)
    exceed = 0
    if isinstance(t, ContingencyTable):
        if kind == "mc-mi":
            def stat(counts):
                return 2.0 * t.n * _mi_from_counts(counts, t.n)
        else:
            stat = _x2_from_counts
        rows, cols = t.margin_x(), t.margin_y()
        for b in _chunks(B, t.counts.size):
            exceed += int(np.count_nonzero(stat(_null_tables(rng, rows, cols, b)) >= s0))
    elif t == 0.0:  # a zero partial correlation: every replicate ties with it
        exceed = B
    else:
        _, rx = _regress(d, x, z)
        _, ry = _regress(d, y, z)
        norm = math.sqrt(float(rx @ rx)) * math.sqrt(float(ry @ ry))
        rho0 = abs(float(np.clip(rx @ ry / norm, -1.0, 1.0)))
        # every statistic grows with |rho|, so replicates compare on the residuals'
        # |rho|; permuted() draws exactly what successive rng.permutation(n) calls
        # do, whatever it shuffles, so it permutes the residuals themselves
        for b in _chunks(B, d.n):
            rho = np.clip(rng.permuted(np.broadcast_to(rx, (b, d.n)), axis=1) @ ry / norm,
                          -1.0, 1.0)
            exceed += int(np.count_nonzero(np.abs(rho) >= rho0))
    return TestResult(kind, s0, (1 + exceed) / (1 + B), replicates=B)


# -- dispatcher -------------------------------------------------------------------------

def default_test(d: Dataset) -> str:
    return "mi" if d.discrete else "cor"


def _resolve_test(d: Dataset, test: str | None) -> str:
    """The label to run on d (its default when test is None), checked against the data."""
    label = test or default_test(d)
    if label not in TEST_LABELS:
        raise TestError(f"unknown test label {label!r}")
    if label in DISCRETE_TESTS and not d.discrete:
        raise TestError(f"test {label!r} requires discrete data")
    if label in CONTINUOUS_TESTS and d.discrete:
        raise TestError(f"test {label!r} requires continuous data")
    return label


def _asymptotic_test(d: Dataset, x: str, y: str, z: list[str], label: str) -> tuple:
    """An asymptotic test's result and its contingency table or partial correlation.

    A Gaussian test is untestable for exactly two reasons, too few rows for the
    label or a zero-variance column; it then gives p = 1 and None.
    """
    if label in DISCRETE_TESTS:
        t = contingency_counts(d, x, y, z)
        return table_test(t, label), t
    rho = None
    if d.n > len(z) + _EXTRA_ROWS[label]:
        try:
            rho = partial_correlation(d, x, y, z)
        except DataError:  # a zero-variance column
            pass
    if rho is None:
        # a repeated or unknown variable is the caller's error, not a degenerate test
        _check_variables(d, x, y, z)
        return TestResult(label, 0.0, 1.0, degenerate=True), None
    return gaussian_statistic(rho, d.n, len(z), label), rho


def ci_test(d: Dataset, x: str, y: str, z=(), test: str | None = None,
            B: int | None = None, seed=0) -> TestResult:
    """Run the named conditional independence test of x and y given z.

    An mc-* label differs from its asymptotic twin only in the p-value. seed
    and a given B are checked whatever the label.
    """
    if B is not None:
        _check_integer("B", B, 1, TestError)
    _check_seed(seed)
    label = _resolve_test(d, test)
    if label.startswith("mc-"):
        return permutation_pvalue(d, x, y, z, kind=label,
                                  B=_DEFAULT_REPLICATES if B is None else B, seed=seed)
    z = _name_list(z)
    # two distinct columns read the pair's statistic, once the pair pass has it
    if not z and label in _KERNELS and x != y and d.columns.keys() >= {x, y}:
        statistic = _pair_statistic(d, x, y, _KERNELS[label])
        if statistic is not None:
            df = (len(d.columns[x].levels) - 1) * (len(d.columns[y].levels) - 1)
            return _discrete_result(label, df, d.n, statistic)
    return _asymptotic_test(d, x, y, z, label)[0]
