"""Tabular data, sufficient statistics, local-parameter fitting and sampling.

Datasets are homogeneous: either every column is categorical (discrete
networks) or every column is numeric (Gaussian networks). A Dataset's
columns never change after construction: their arrays are read-only.
Derived statistics that several callers reuse (Gaussian moments, the
correlation matrix, log-gamma tables, recent configuration codes, which
columns have every level observed) are filled in lazily, on first use, in
its private memo; the joint tables of every
column pair, one exact int64 product, are filled in once the dataset has
been asked for two pair tables in all (_pair_tables). They serve
hill-climbing's parentless rows and the stacked pass of empty-z test
statistics, not contingency_counts.

Reading a file parses the stripped cells of a numeric column with float()
and codes each other column by its distinct cell texts, each stripped and
checked once.
A discrete test builds its cell index in one buffer and counts it with one
bincount. The codes of its conditioning set (joint_config_codes) are a
column's own codes when the set is one column all of whose levels occur;
otherwise they come from the cache of recent sets, or are one more digit on
the cached codes of the set's first m - 1 columns, or, failing both, are
numbered from the columns.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import numbers
from bisect import bisect_left
from collections import Counter, OrderedDict
from dataclasses import dataclass

import numpy as np

from .graph import Graph, GraphError, topological_order


class DataError(ValueError):
    """Unusable input data or an ill-posed statistic request."""


def _check_integer(name: str, value, least: int, error: type[Exception]) -> None:
    """Raise error unless value is an integer (not a bool) of at least least."""
    if type(value) is int and value >= least:  # the common case, without the ABC check
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise error(f"{name} must be an integer of at least {least}, got {value!r}")


@dataclass(frozen=True)
class CategoricalColumn:
    levels: tuple[str, ...]
    codes: np.ndarray  # int64 indices into levels


@dataclass(frozen=True)
class NumericColumn:
    values: np.ndarray  # float64


def _read_only(array: np.ndarray, given) -> np.ndarray:
    """array made read-only, or a read-only copy when the caller could still write it.

    given is the object the caller passed in. array is kept when it owns its
    memory and is either new (not given) or already read-only, so a Dataset
    built from another one's columns shares their arrays.
    """
    if array.base is not None or array is given and array.flags.writeable:
        array = array.copy()
    array.flags.writeable = False
    return array


class Dataset:
    """Column-typed table, all categorical or all numeric."""

    __slots__ = ("names", "columns", "n", "discrete", "_memo")

    def __init__(self, names, columns):
        names = tuple(names)
        if len(set(names)) != len(names):
            dup = next(n for i, n in enumerate(names) if n in names[:i])
            raise DataError(f"duplicate column name {dup!r}")
        if not names:
            raise DataError("dataset has no columns")
        cols = {}
        kinds = {}  # "categorical"/"numeric" -> the first column of that kind
        length = None
        for name in names:
            try:
                col = columns[name]
            except KeyError:
                raise DataError(f"no data for column {name!r}") from None
            if isinstance(col, CategoricalColumn):
                kinds.setdefault("categorical", name)
                m = len(col.levels)
                if m < 2:
                    raise DataError(f"column {name!r} has fewer than 2 levels")
                if len(set(col.levels)) != m:
                    raise DataError(f"column {name!r} has duplicate levels")
                codes = np.asarray(col.codes)
                if not (codes.dtype.kind in "biu" or codes.dtype.kind == "f"
                        and np.array_equal(codes, np.trunc(codes))):
                    raise DataError(f"column {name!r} has non-integer codes")
                if codes.size and (codes.min() < 0 or codes.max() >= m):
                    raise DataError(f"column {name!r} has out-of-range codes")
                col = CategoricalColumn(tuple(col.levels), _read_only(
                    codes.astype(np.int64, copy=False), col.codes))
            elif isinstance(col, NumericColumn):
                kinds.setdefault("numeric", name)
                col = NumericColumn(_read_only(np.asarray(col.values, dtype=np.float64),
                                               col.values))
                bad = np.flatnonzero(~np.isfinite(col.values))
                if bad.size:
                    raise DataError(f"column {name!r} has a non-finite value "
                                    f"at row {bad[0]}")
            else:
                raise DataError(f"column {name!r} has unsupported type")
            array = col.codes if isinstance(col, CategoricalColumn) else col.values
            if array.ndim != 1:
                raise DataError(f"column {name!r} is not one-dimensional: "
                                f"its shape is {array.shape}")
            if length is None:
                length = array.size
            elif array.size != length:
                raise DataError("columns have differing lengths")
            cols[name] = col
        if len(kinds) > 1:
            raise DataError(f"mixed data unsupported: column {kinds['categorical']!r} "
                            f"is categorical and column {kinds['numeric']!r} is numeric")
        self.names = names
        self.columns = cols
        self.n = int(length)
        self.discrete = "categorical" in kinds
        self._memo = {}

    def levels(self, name: str) -> tuple[str, ...]:
        return self._col(name, CategoricalColumn).levels

    def codes(self, name: str) -> np.ndarray:
        return self._col(name, CategoricalColumn).codes

    def values(self, name: str) -> np.ndarray:
        return self._col(name, NumericColumn).values

    def _col(self, name: str, kind=object):
        try:
            col = self.columns[name]
        except KeyError:
            raise DataError(f"unknown column {name!r}") from None
        if not isinstance(col, kind):
            wanted = "categorical" if kind is CategoricalColumn else "numeric"
            raise DataError(f"column {name!r} is not {wanted}")
        return col

    def reorder(self, names) -> "Dataset":
        """Same data with columns permuted."""
        names = tuple(names)
        if set(names) != set(self.names):
            raise DataError("reorder must use the same column names")
        return Dataset(names, self.columns)

    @classmethod
    def from_codes(cls, names, levels, codes) -> "Dataset":
        cols = {n: CategoricalColumn(tuple(levels[n]), np.asarray(codes[n]))
                for n in names}
        return cls(names, cols)

    @classmethod
    def from_values(cls, names, values) -> "Dataset":
        cols = {n: NumericColumn(np.asarray(values[n], dtype=float)) for n in names}
        return cls(names, cols)


# -- ingestion -------------------------------------------------------------------

_DELIMITERS = (",", "\t", ";")


def _detect_delimiter(header_line: str) -> str:
    best, hits = ",", 0
    for cand in _DELIMITERS:
        k = header_line.count(cand)
        if k > hits:
            best, hits = cand, k
    return best


def _check_delimiter(delimiter) -> None:
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise DataError(f"delimiter must be a single character, got {delimiter!r}")


def _read_text(path) -> str:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports lead with
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        at = exc.start + len(raw) - len(exc.object)  # the codec saw raw minus its mark
        raise DataError(f"cannot read {path}: not UTF-8 text "
                        f"(byte 0x{raw[at]:02x} at offset {at})") from None


def _read_columns(text: str, path, what: str, delimiter: str | None = None):
    """Header, columns (each a tuple of its raw cells) and each row's file line.

    Blank rows are skipped. Text with no other row, an empty header field and
    a ragged row are rejected; the message names the file as a `what`
    ("data", "arc") file. Cells keep their surrounding spaces: _code_cells
    strips each distinct one, and load_table each cell it parses as a number.
    """
    if delimiter is None:
        delimiter = _detect_delimiter(next((line for line in text.splitlines()
                                            if line.strip()), ""))
    _check_delimiter(delimiter)
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    rows, lines = [], []  # non-blank rows and the file line each ends on
    for row in reader:
        if any(map(str.strip, row)):
            rows.append(row)
            lines.append(reader.line_num)
    del reader  # its copy of the text goes before the columns are built
    if not rows:
        raise DataError(f"{what} file {path} is empty")
    header = [h.strip() for h in rows[0]]
    if "" in header:
        raise DataError(f"empty column name in header field {header.index('') + 1}, "
                        f"in {what} file {path}")
    ncol = len(header)
    body, lines = rows[1:], lines[1:]
    widths = list(map(len, body))
    if widths.count(ncol) != len(widths):
        i = next(i for i, w in enumerate(widths) if w != ncol)
        raise DataError(f"ragged row {lines[i]}: expected {ncol} fields, got {widths[i]}, "
                        f"in {what} file {path}")
    return header, list(zip(*body)) if body else [()] * ncol, lines


def _code_cells(cells, name: str, lines, what: str,
                path) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted distinct stripped texts of cells and each row's int64 code into them.

    Each distinct cell is stripped once, in the order of its first row, so
    no result depends on set order. An empty cell is rejected with the file
    line of its first row.
    """
    index = dict(zip(dict.fromkeys(cells), itertools.count()))
    texts = [cell.strip() for cell in index]
    ids = np.fromiter(map(index.__getitem__, cells), dtype=np.int64, count=len(cells))
    if "" in texts:  # the first empty text in the list is the first one in the rows
        row = int(np.argmax(ids == texts.index("")))
        raise DataError(f"empty cell in row {lines[row]}, "
                        f"column {name!r}, in {what} file {path}")
    levels = tuple(sorted(set(texts)))
    rank = {level: i for i, level in enumerate(levels)}
    return levels, np.array([rank[t] for t in texts], dtype=np.int64)[ids]


def load_table(path, type_hint: str | None = None, delimiter: str | None = None) -> Dataset:
    """Read a delimited text file with a header row into a Dataset.

    Columns whose every entry parses as a number become numeric unless
    type_hint="discrete" forces categorical treatment; level lists are the
    sorted distinct values.
    """
    if type_hint not in (None, "discrete", "continuous"):
        raise DataError(f"unknown type hint {type_hint!r}")
    header, raw, lines = _read_columns(_read_text(path), path, "data", delimiter)
    # every column's empty cells are reported before any other error in the file
    parsed = []  # (values, None) of a numeric column, (None, (levels, codes)) of the others
    for name, cells in zip(header, raw):
        values = None
        if type_hint != "discrete":
            try:  # float() alone would keep the separators \x1c-\x1f that strip() drops
                values = np.fromiter(map(float, map(str.strip, cells)), dtype=float,
                                     count=len(cells))
            except ValueError:
                pass
        parsed.append((values, None if values is not None
                       else _code_cells(cells, name, lines, "data", path)))
    if not lines:
        raise DataError(f"data file {path} has no data rows")
    for j, name in enumerate(header):
        if name in header[:j]:
            raise DataError(f"duplicate column name {name!r} in header fields "
                            f"{header.index(name) + 1} and {j + 1}, in data file {path}")
    columns = {}
    for name, cells, (values, coded) in zip(header, raw, parsed):
        if values is not None:
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise DataError(f"non-finite value {cells[bad[0]].strip()!r} in row "
                                f"{lines[bad[0]]}, column {name!r}")
            values.flags.writeable = False  # the Dataset keeps it without a copy
            columns[name] = NumericColumn(values)
        else:
            if type_hint == "continuous":
                raise DataError(f"column {name!r} is not numeric")
            levels, codes = coded
            if len(levels) < 2:
                raise DataError(f"column {name!r} has a single level")
            codes.flags.writeable = False
            columns[name] = CategoricalColumn(levels, codes)
    return Dataset(tuple(header), columns)  # rejects mixed data


def write_table(d: Dataset, path_or_file, delimiter: str = ",") -> None:
    """Write a Dataset back out as delimited text with a header row."""
    _check_delimiter(delimiter)
    own = isinstance(path_or_file, (str, bytes))
    fh = open(path_or_file, "w", newline="", encoding="utf-8") if own else path_or_file
    try:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(d.names)
        if d.discrete:
            cols = [np.asarray(d.levels(n), dtype=object)[d.codes(n)] for n in d.names]
        else:
            cols = [[repr(float(v)) for v in d.values(n)] for n in d.names]
        for row in zip(*cols):
            writer.writerow(row)
    finally:
        if own:
            fh.close()


# -- sufficient statistics ----------------------------------------------------------

@dataclass(frozen=True)
class ContingencyTable:
    """Counts over (x level, y level, observed configuration of z)."""

    counts: np.ndarray  # (R, C, L) int64
    R: int
    C: int
    L: int
    n: int

    def margin_x(self) -> np.ndarray:
        return self.counts.sum(axis=1)  # n_{i+k}, shape (R, L)

    def margin_y(self) -> np.ndarray:
        return self.counts.sum(axis=0)  # n_{+jk}, shape (C, L)


def _names(names) -> tuple[str, ...]:
    """Column names as a tuple, a given tuple itself; a single string names one column."""
    return (names,) if isinstance(names, str) else tuple(names)


def _check_variables(d: Dataset, x: str, y: str, z) -> None:
    """Reject a test of x and y given z whose variables repeat or are unknown."""
    labels = [x, y, *z]
    distinct = set(labels)
    if len(distinct) != len(labels):
        raise DataError("x, y and z must be distinct")
    if not d.columns.keys() >= distinct:
        unknown = next(name for name in labels if name not in d.columns)
        raise DataError(f"unknown column {unknown!r}")


# Configuration spaces of at most this many codes per row, plus the base, are
# numbered by marking the observed codes in a table of the whole space;
# larger spaces are sorted.
_CODE_SPACE_PER_ROW = 4
_CODE_SPACE_BASE = 1024


# Each dataset keeps the codes of its most recently used column tuples in at
# most this many bytes: about 52 tuples at n = 5000.
_CODE_CACHE_BYTES = 2 << 20


def joint_config_codes(d: Dataset, names) -> tuple[np.ndarray, int]:
    """Dense 0..L-1 codes of the observed configurations of the given columns.

    Codes follow the mixed-radix order of the configurations (first column
    most significant), as np.unique would number them. The codes are
    read-only. A single column all of whose levels occur is its own codes:
    its array and level count are returned as they are, never cached. The
    codes of every other tuple of names are kept, for the most recently used
    tuples, in a cache of at most _CODE_CACHE_BYTES; a cached tuple returns
    the same array. A tuple of m >= 2 columns whose first m - 1 are cached,
    or are such a column, is numbered from their codes with one more digit;
    any other is numbered from the columns (_config_codes).
    """
    key = tuple(names)
    hit = _cached_codes(d, key)
    if hit is not None:
        return hit
    prefix = _cached_codes(d, key[:-1]) if len(key) > 1 else None
    if prefix is None:
        codes, L = _config_codes(d, key)
    else:
        column = d._col(key[-1], CategoricalColumn)
        r = len(column.levels)
        code = prefix[0] * r
        code += column.codes
        codes, L = _dense_codes(code, prefix[1] * r, d.n)
    codes.flags.writeable = False
    cache = d._memo["config-codes"]  # made by the first _cached_codes call that missed
    capacity = _CODE_CACHE_BYTES // max(codes.nbytes, 1)
    if capacity:
        cache[key] = codes, L
        if len(cache) > capacity:
            cache.popitem(last=False)
    return codes, L


def _cached_codes(d: Dataset, key: tuple) -> tuple[np.ndarray, int] | None:
    """The codes of the tuple of names key when they need no numbering, else None.

    A single column all of whose levels occur gives its own codes; whether
    they all occur is decided once per column of the dataset. Any other key
    is looked up in the cache, where a hit counts as the latest use. A
    single column that is unknown or not categorical raises DataError.
    """
    if len(key) == 1:
        full = d._memo.get("full-columns")
        if full is None:
            full = d._memo["full-columns"] = {}
        name = key[0]
        hit = full.get(name, False)
        if hit is False:
            column = d._col(name, CategoricalColumn)
            r = len(column.levels)
            hit = full[name] = ((column.codes, r)
                                if np.bincount(column.codes, minlength=r).all() else None)
        if hit is not None:
            return hit
    cache = d._memo.get("config-codes")
    if cache is None:
        cache = d._memo["config-codes"] = OrderedDict()
    hit = cache.get(key)
    if hit is not None:
        cache.move_to_end(key)
    return hit


def _config_codes(d: Dataset, names) -> tuple[np.ndarray, int]:
    """joint_config_codes numbered from the columns, without the cache.

    The mixed-radix codes of a space of at most _CODE_SPACE_PER_ROW * n +
    _CODE_SPACE_BASE codes are built in one buffer; in a larger space the
    running code is made dense before it would pass 2^62. _dense_codes then
    numbers them.
    """
    names = list(names)
    if not names:
        return np.zeros(d.n, dtype=np.int64), 1
    columns = [d._col(name, CategoricalColumn) for name in names]
    radix = [len(c.levels) for c in columns]
    space = math.prod(radix)
    if space <= _CODE_SPACE_PER_ROW * d.n + _CODE_SPACE_BASE:
        code = _parent_config_index(radix, [c.codes for c in columns], d.n)
    else:
        code = columns[0].codes.copy()
        for c, r in zip(columns[1:], radix[1:]):
            if code.max(initial=0) > (2**62) // r:
                _, code = np.unique(code, return_inverse=True)
            code = code * r + c.codes
    return _dense_codes(code, space, d.n)


def _dense_codes(code: np.ndarray, space: int, n: int) -> tuple[np.ndarray, int]:
    """Dense 0..L-1 numbers of the n int64 codes in [0, space), in their order.

    A space of at most _CODE_SPACE_PER_ROW * n + _CODE_SPACE_BASE codes is
    numbered by marking the codes that occur and ranking them; when every
    code occurs the rank is the identity, so code itself is returned. A
    larger space is sorted.
    """
    if space <= _CODE_SPACE_PER_ROW * n + _CODE_SPACE_BASE:
        seen = np.bincount(code, minlength=space) > 0
        if seen.all():
            return code, space
        rank = np.cumsum(seen) - 1
        return rank[code], int(rank[-1]) + 1
    uniq, dense = np.unique(code, return_inverse=True)
    return dense.astype(np.int64), int(uniq.size)


def contingency_counts(d: Dataset, x: str, y: str, z=()) -> ContingencyTable:
    """Exact n_ijk counts of x versus y within each observed z configuration.

    The cell index (x * C + y) * L + z of every row is built in one int64
    buffer and counted with one bincount, whether z is empty or not; this
    never reads the dataset's pair tables. An asymptotic test with z empty
    reads its statistic from one stacked pass over them instead, once they
    exist (independence._pair_statistic). A table of more than 2^24 cells,
    the cap on a family's parent configurations, is a DataError.
    """
    if not d.discrete:
        raise DataError("contingency tables require a discrete dataset")
    z = _names(z)
    _check_variables(d, x, y, z)
    cx, cy = d.columns[x], d.columns[y]
    R, C = len(cx.levels), len(cy.levels)
    zidx, L = joint_config_codes(d, z) if z else (None, 1)
    cells = R * C * L
    if cells > _MAX_PARENT_CONFIGS:
        raise DataError(f"the contingency table of {x!r} and {y!r} has {cells} cells, "
                        f"more than {_MAX_PARENT_CONFIGS}")
    flat = cx.codes * C
    flat += cy.codes
    if z:
        flat *= L
        flat += zidx
    counts = np.bincount(flat, minlength=cells)
    return ContingencyTable(counts.reshape(R, C, L), R, C, L, d.n)


# The pair tables are one product while the columns' level counts sum to at
# most this (a kept table of at most 32 MiB); wider datasets count each pair
# with a bincount.
_PAIR_LEVELS = 2048
# Rows coded at a time, so the one-hot block stays small whatever n is.
_PAIR_CHUNK_ROWS = 1024


def _pair_tables(d: Dataset, asks: int):
    """Each column's span of levels and the joint table of every column pair, or None.

    asks is how many pair tables the caller wants. A lone table costs one
    bincount, so the tables are computed once the dataset has been asked
    for two in all: at the second lone ask, or at once for a hill-climbing
    row of several. Before that this is None, and the asks are added up in
    the dataset's memo; this is the only code that reads or writes them or
    the tables.

    The tables are X^T X for the one-hot coding X of the data: n rows and one
    column per level of every column, so block (x, y) of the product counts
    the rows with each pair of levels of x and y. It is computed once per
    dataset, in blocks of at most _PAIR_CHUNK_ROWS rows whose float32
    products hold counts of at most that many, so each is exact; each is
    added in place into one int64 table, which is kept read-only.
    A dataset whose level counts sum to more than _PAIR_LEVELS keeps None,
    and its callers count each pair with a bincount.
    """
    if "pair-tables" in d._memo:
        return d._memo["pair-tables"]
    asked = d._memo["pair-asks"] = d._memo.get("pair-asks", 0) + asks
    if asked < 2:
        return None
    columns = [d._col(name, CategoricalColumn) for name in d.names]
    radix = np.array([len(c.levels) for c in columns])
    starts = np.cumsum(radix) - radix
    width = int(radix.sum())
    tables = None
    if width <= _PAIR_LEVELS:
        gram = np.zeros((width, width), np.int64)
        # the flat place of each row's level of each column in a block
        places = np.arange(0, _PAIR_CHUNK_ROWS * width, width)[:, None] + starts
        for lo in range(0, d.n, _PAIR_CHUNK_ROWS):
            hot = np.stack([c.codes[lo:lo + _PAIR_CHUNK_ROWS] for c in columns], axis=1)
            hot += places[:len(hot)]
            onehot = np.zeros((len(hot), width), np.float32)
            onehot.reshape(-1)[hot] = 1
            np.add(gram, onehot.T @ onehot, out=gram, casting="unsafe")
        gram.flags.writeable = False
        tables = {name: slice(a, a + r) for name, a, r in zip(d.names, starts, radix)}, gram
    d._memo["pair-tables"] = tables
    return tables


def _pair_stacks(d: Dataset, cells: int):
    """The joint tables of every column pair, in stacks of one shape, or None.

    Yields (ix, iy, counts) for one pair of level counts (R, C) at a time: ix
    and iy are the places in d.names of columns of R and of C levels, and
    counts[i, j] is the (R, C, 1) table of columns ix[i] and iy[j], equal to
    its block of the pair tables (a column meets itself too). A stack holds
    as many whole rows of tables as fit in about `cells` cells, at least one,
    so memory stays bounded however many columns there are. Each stack is
    C-contiguous: every table in it is laid out as a lone copy is. The call
    is one ask of _pair_tables, which may compute the tables; before its
    ask rule has, and past their bound, this is None.
    """
    tables = _pair_tables(d, 1)
    if tables is None:
        return None
    span, product = tables
    starts = np.array([span[name].start for name in d.names])
    radix = np.array([span[name].stop - span[name].start for name in d.names])
    # not np.unique: its first call in a process imports numpy.ma (about 1.7 MB)
    shapes = sorted(set(radix.tolist()))

    def stacks():
        for R in shapes:
            ix = np.flatnonzero(radix == R)
            for C in shapes:
                iy = np.flatnonzero(radix == C)
                columns = (starts[iy, None] + np.arange(C)).ravel()
                step = max(1, cells // (len(iy) * R * C))
                for lo in range(0, len(ix), step):
                    part = ix[lo:lo + step]
                    rows = (starts[part, None] + np.arange(R)).ravel()
                    block = product[rows[:, None], columns]
                    counts = block.reshape(len(part), R, len(iy), C).transpose(0, 2, 1, 3)
                    yield part, iy, np.ascontiguousarray(counts)[..., None]

    return stacks()


def _gaussian_moments(d: Dataset):
    """[index, means, sds, scatter, correlations, certified, constant], once per Dataset.

    scatter is centered.T @ centered, which numpy forms as a symmetric
    rank-n update, so scatter and correlations are exactly symmetric
    (_certified relies on that). constant holds the names of the
    zero-variance columns; their correlations are non-finite, and callers
    reject such columns before reading them. certified is None until a test
    first conditions on a nonempty z (_certified).
    """
    moments = d._memo.get("gaussian-moments")
    if moments is None:
        mat = np.column_stack([d.values(c) for c in d.names])
        means = mat.mean(axis=0)
        centered = mat - means
        index = {c: i for i, c in enumerate(d.names)}
        sds = centered.std(axis=0)
        scatter = centered.T @ centered
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = scatter / (d.n * np.outer(sds, sds))
        np.fill_diagonal(corr, 1.0)
        constant = frozenset(c for c, sd in zip(d.names, sds) if not sd)
        moments = [index, means, sds, scatter, np.clip(corr, -1.0, 1.0), None, constant]
        d._memo["gaussian-moments"] = moments
    return moments


# A conditioned test trusts its Cholesky factor when its correlation matrix's
# 2-norm condition number, read from the spectrum, is below this.
_MAX_CONDITION = 1e12

# The margin of the certificate (_certified). Let C be the correlations of the
# k nonconstant columns and S (m x m, m <= k) a test's matrix: a principal
# submatrix of C in some order. Their entries lie in [-1, 1], so
# ||S||_F <= m <= k, and likewise ||C||_F <= k.
# - eigvalsh is backward stable (Householder tridiagonalisation, Higham,
#   Accuracy and Stability of Numerical Algorithms, ch. 19): its eigenvalues
#   are exact for a symmetric matrix within c0 k^2 u ||.||_F <= c0 k^3 u of
#   the one given, u = 2^-53, so by Weyl each is within c0 k^3 u of the exact
#   one. _CERTIFICATE_SLACK = 2 c0 with c0 = 500, far above the small
#   constants of those bounds.
# - By Cauchy interlacing (Horn & Johnson, Matrix Analysis, Thm 4.3.28) the
#   exact spectrum of S lies in [lambda_min(C), lambda_max(C)], and
#   lambda_max(C) <= ||C||_F <= k.
# So a computed lambda_min(C) = l puts the computed spectrum of S in
# [l - 2 c0 k^3 u, k + c0 k^3 u]. If l > 2 c0 k^3 u + 2 k / _MAX_CONDITION,
# the lower end exceeds 2 k / _MAX_CONDITION > 0; the upper end is below 2 k,
# since C's exact eigenvalues average 1, so l <= 1 + c0 k^3 u and
# c0 k^3 u < 1. The ratio is then below _MAX_CONDITION: S passes the check.
_CERTIFICATE_SLACK = 1000


def _certified(d: Dataset) -> bool:
    """Whether every conditioned test of d passes the condition check, decided once.

    The check is _well_conditioned on the test's correlation matrix. A
    test touching a constant column raises DataError before the check, so
    the certificate reads the spectrum of the correlations of the nonconstant
    columns only; it holds when their smallest eigenvalue clears the margin
    derived above. With at least n such columns the matrix is singular
    (centred columns span at most n - 1 dimensions), so the spectrum is not
    computed and each test takes its own check. The answer is kept in the
    Gaussian moments' memo entry.
    """
    moments = _gaussian_moments(d)
    if moments[5] is None:
        keep = np.flatnonzero(moments[2])  # the nonconstant columns
        k = len(keep)
        margin = _CERTIFICATE_SLACK * k ** 3 * 2.0 ** -53 + 2 * k / _MAX_CONDITION
        moments[5] = k < d.n and float(
            np.linalg.eigvalsh(moments[4][keep[:, None], keep]).min()) > margin
    return moments[5]


def _well_conditioned(corr: np.ndarray) -> bool:
    """Whether corr's 2-norm condition number, from its spectrum, is below _MAX_CONDITION."""
    lam = np.abs(np.linalg.eigvalsh(corr))
    smallest = float(lam.min())
    return smallest > 0.0 and float(lam.max()) / smallest < _MAX_CONDITION


def correlation_matrix(d: Dataset, names) -> np.ndarray:
    """Pearson correlations of the given numeric columns."""
    if d.discrete:
        raise DataError("correlations require a numeric dataset")
    names = _names(names)
    if d.n < 2:
        raise DataError("need at least 2 rows")
    index, _, _, _, corr, _, constant = _gaussian_moments(d)
    try:
        idx = np.array([index[c] for c in names], dtype=np.intp)
    except KeyError as exc:
        raise DataError(f"unknown column {exc.args[0]!r}") from None
    if constant and not constant.isdisjoint(names):
        raise DataError(f"zero-variance column {next(c for c in names if c in constant)!r}")
    return corr.take(idx, 0).take(idx, 1)  # as corr[idx[:, None], idx], in half the time


def partial_correlation(d: Dataset, x: str, y: str, z=()) -> float:
    """Partial correlation of x and y given z.

    The correlation matrix of z + [a, b] (a, b = x, y in label order) factors
    as L L^T; the last 2 x 2 block of L factors the covariance of a and b given
    z, so rho = l21 / sqrt(l21^2 + l22^2). Exactly symmetric in x and y. The
    factor is trusted only when the matrix's 2-norm condition number, read
    from its eigenvalues, is below 1e12. That check is decided once per
    dataset when the smallest eigenvalue of the correlations of all its
    nonconstant columns clears a rounding margin (_certified): every test's
    matrix is a principal submatrix of those, so every test passes it. Other
    datasets (collinear or nearly so, or with at least n nonconstant columns)
    check each test's matrix. An untrusted factor gives way to the
    correlation of the residuals of a and b on z: 0 when either residual
    vanishes (x or y is a linear function of z), and the partial correlation
    given the span of z when z is singular. For every z, empty or not, |rho|
    within 5e-13 of 1 reads as an exact linear relation of x and y and is
    reported as +-1.
    """
    z = _names(z)
    _check_variables(d, x, y, z)
    if d.n <= len(z) + 2:
        raise DataError("not enough rows for the conditioning set")
    a, b = (x, y) if x <= y else (y, x)
    corr = correlation_matrix(d, (*z, a, b))
    if not z:
        rho = float(corr[0, 1])
    # a near-singular matrix can still factor; its pivots alone do not show
    # it, so the guard reads the condition number from the spectrum. A
    # decided certificate is read from the memo entry correlation_matrix made.
    elif d._memo["gaussian-moments"][5] or _certified(d) or _well_conditioned(corr):
        chol = np.linalg.cholesky(corr)
        l21, l22 = float(chol[-1, -2]), float(chol[-1, -1])
        rho = l21 / math.sqrt(l21 * l21 + l22 * l22)
    else:
        ra, rb = (_regress(d, name, z)[1] for name in (a, b))
        for name, resid in ((a, ra), (b, rb)):
            vals = d.values(name)
            scale = max(np.linalg.norm(vals - vals.mean()), 1e-30)
            if np.linalg.norm(resid) <= 1e-6 * scale:
                return 0.0
        rho = float(ra @ rb) / math.sqrt(float(ra @ ra) * float(rb @ rb))
    # an exact x-y relation (one residual leaves at most 1e-6 of the other's norm)
    # or rounding past +-1; a trusted factor has 1 - rho^2 >= 1 / cond > 1e-12
    return math.copysign(1.0, rho) if 1.0 - rho * rho <= 1e-12 else rho


def _regress(d: Dataset, name: str, z) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fit of a numeric column on an intercept and the columns z.

    Returns the coefficients (intercept first) and the residuals.
    """
    y = d.values(name)
    design = np.column_stack([np.ones(d.n)] + [d.values(c) for c in z])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    return beta, y - design @ beta


def _parent_config_index(level_counts, parent_codes, n: int) -> np.ndarray:
    """Mixed-radix index of n parent configurations, first parent most significant."""
    if not parent_codes:
        return np.zeros(n, dtype=np.int64)
    idx = np.array(parent_codes[0], dtype=np.int64)  # a copy, then built in place
    for r, codes in zip(level_counts[1:], parent_codes[1:]):
        idx *= r
        idx += codes
    return idx


_MAX_PARENT_CONFIGS = 1 << 24


def family_counts(d: Dataset, node: str, parents) -> tuple[np.ndarray, int]:
    """Counts (node levels x all q parent configurations, mixed radix) and q."""
    column = d._col(node, CategoricalColumn)
    columns = [d._col(p, CategoricalColumn) for p in parents]
    R = len(column.levels)
    radix = [len(c.levels) for c in columns]
    q = math.prod(radix)
    if q > _MAX_PARENT_CONFIGS:
        raise DataError(f"parent configuration space of {node!r} is too large")
    # the node is the most significant digit: index = node * q + configuration
    idx = _parent_config_index([R] + radix, [column.codes] + [c.codes for c in columns],
                               d.n)
    return np.bincount(idx, minlength=R * q).reshape(R, q), q


def _toggle_family_counts(d: Dataset, node: str, parents: list[str],
                          others) -> list[tuple[np.ndarray, int]]:
    """family_counts(d, node, sorted(parents ^ {u})) for each u in others.

    parents is sorted. The index of the node and its parents is built once:
    an added u is one more (least significant) digit of it, and its axis then
    moves to u's sorted place; a deleted parent sums the base table over its
    axis, with no pass over the data. A row with no parents makes no pass
    either: each family is a fresh, writable copy of the joint table of the
    node and u, read from the dataset's pair tables (_pair_tables, asked for
    one table per family), or, where they do not serve it, one more digit
    of the node's codes like any added parent.
    The row reads its node, parents and added columns first, so an unknown
    column raises as in family_counts; a row whose widest family passes the
    configuration cap then raises family_counts' own error. Hill-climbing
    scores the base family before a row, so each row it sends raises what
    its first failing family raises alone.
    """
    place = {p: j for j, p in enumerate(parents)}
    column = d._col(node, CategoricalColumn)
    columns = [d._col(p, CategoricalColumn) for p in parents]
    widest = max((len(d._col(u, CategoricalColumn).levels)
                  for u in others if u not in place), default=1)
    radix = [len(c.levels) for c in columns]
    q = math.prod(radix)
    if q * widest > _MAX_PARENT_CONFIGS:
        raise DataError(f"parent configuration space of {node!r} is too large")
    tables = None if parents else _pair_tables(d, len(others))
    if tables is not None:
        span, product = tables
        return [(product[span[node], span[u]].copy(), len(d.columns[u].levels))
                for u in others]
    R = len(column.levels)
    shape = (R, *radix)
    idx = _parent_config_index(shape, [column.codes] + [c.codes for c in columns], d.n)
    table = None
    scaled = {}  # idx * r, shared by the added parents of r levels
    out = []
    for u in others:
        j = place.get(u)
        if j is None:
            col = d.columns[u]
            r = len(col.levels)
            if r not in scaled:
                scaled[r] = idx * r
            counts = np.bincount(scaled[r] + col.codes, minlength=R * q * r)
            at = bisect_left(parents, u) + 1
            axes = (*range(at), len(shape), *range(at, len(shape)))
            counts = counts.reshape(*shape, r).transpose(axes).reshape(R, q * r)
            out.append((counts, q * r))
        else:
            if table is None:
                table = np.bincount(idx, minlength=R * q).reshape(shape)
            out.append((table.sum(axis=j + 1).reshape(R, q // radix[j]), q // radix[j]))
    return out


# -- fitted networks ------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteCPT:
    levels: tuple[str, ...]
    parents: tuple[str, ...]
    parent_levels: tuple[tuple[str, ...], ...]
    table: np.ndarray  # (len(levels), prod parent level counts); columns sum to 1


@dataclass(frozen=True)
class LinearGaussian:
    parents: tuple[str, ...]
    intercept: float
    coefficients: np.ndarray  # aligned with parents
    sd: float


class FittedNetwork:
    """Completely directed structure plus per-node local parameters."""

    __slots__ = ("graph", "locals", "discrete")

    def __init__(self, graph: Graph, local_params: dict):
        if graph.undirected_arcs:
            raise GraphError("fitted networks require a completely directed graph")
        if set(local_params) != set(graph.nodes):
            raise DataError("local parameters must cover exactly the graph's nodes")
        kinds = {type(v) for v in local_params.values()}
        if kinds == {DiscreteCPT}:
            self.discrete = True
        elif kinds == {LinearGaussian}:
            self.discrete = False
        else:
            raise DataError("local parameters must be all CPTs or all linear-Gaussian")
        for node, loc in local_params.items():
            if set(loc.parents) != set(graph.parents(node)):
                raise DataError(f"parameter parents for {node!r} do not match the graph")
            if self.discrete:
                if (tuple(map(tuple, loc.parent_levels))
                        != tuple(tuple(local_params[p].levels) for p in loc.parents)):
                    raise DataError(f"parent_levels of {node!r} do not match "
                                    f"the levels of its parents")
                shape = (len(loc.levels), math.prod(map(len, loc.parent_levels)))
                if np.shape(loc.table) != shape:
                    raise DataError(f"cpt of {node!r} has shape {np.shape(loc.table)}, "
                                    f"not levels x parent configurations {shape}")
                sums = loc.table.sum(axis=0)
                if not np.allclose(sums, 1.0, atol=1e-9):
                    raise DataError(f"CPT rows for {node!r} do not sum to 1")
                if np.any(loc.table < 0):
                    raise DataError(f"negative CPT entry for {node!r}")
            else:
                if np.shape(loc.coefficients) != (len(loc.parents),):
                    raise DataError(f"coefficients of {node!r} must hold one value "
                                    f"per parent, got {np.shape(loc.coefficients)}")
                for field, finite in (("intercept", math.isfinite(loc.intercept)),
                                      ("coefficients", np.isfinite(loc.coefficients).all()),
                                      ("sd", math.isfinite(loc.sd))):
                    if not finite:
                        raise DataError(f"{field} of {node!r} must be finite")
                if not loc.sd > 0:
                    raise DataError(f"residual sd for {node!r} must be positive")
        self.graph = graph
        self.locals = dict(local_params)

    # serialization used by the CLI sample subcommand
    def to_json(self) -> str:
        nodes = []
        for name in self.graph.nodes:
            loc = self.locals[name]
            if self.discrete:
                nodes.append({
                    "name": name,
                    "levels": list(loc.levels),
                    "parents": list(loc.parents),
                    "parent_levels": [list(ls) for ls in loc.parent_levels],
                    "cpt": loc.table.tolist(),
                })
            else:
                nodes.append({
                    "name": name,
                    "parents": list(loc.parents),
                    "intercept": loc.intercept,
                    "coefficients": list(map(float, loc.coefficients)),
                    "sd": loc.sd,
                })
        return json.dumps({"type": "discrete" if self.discrete else "continuous",
                           "nodes": nodes}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FittedNetwork":
        try:
            payload = json.loads(text)
            kind = payload["type"]
            entries = payload["nodes"]
            names = [e["name"] for e in entries]
            repeated = next((n for n, k in Counter(names).items() if k > 1), None)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DataError(f"malformed fitted network: {exc}") from None
        if repeated is not None:
            raise DataError(f"node {repeated!r} is listed twice")
        if kind not in ("discrete", "continuous"):
            raise DataError(f"unknown fitted-network type {kind!r}: "
                            f"expected 'discrete' or 'continuous'")
        local_params = {}
        for name, e in zip(names, entries):
            try:
                if kind == "discrete":
                    local_params[name] = DiscreteCPT(
                        tuple(e["levels"]), tuple(e["parents"]),
                        tuple(tuple(ls) for ls in e["parent_levels"]),
                        np.asarray(e["cpt"], dtype=float))
                else:
                    local_params[name] = LinearGaussian(
                        tuple(e["parents"]), float(e["intercept"]),
                        np.asarray(e["coefficients"], dtype=float), float(e["sd"]))
            except KeyError as exc:
                raise DataError(f"node {name!r} has no {exc.args[0]!r} field") from None
            except (TypeError, ValueError) as exc:
                raise DataError(f"node {name!r} has a malformed field: {exc}") from None
        arcs = [(p, name) for name, loc in local_params.items() for p in loc.parents]
        return cls(Graph(names, arcs), local_params)


def fit_mle(g: Graph, d: Dataset) -> FittedNetwork:
    """Maximum-likelihood local parameters for every node given its parents.

    Discrete nodes get conditional probability tables with a uniform fallback
    for parent configurations never observed; numeric nodes get least-squares
    linear-Gaussian coefficients.
    """
    if g.undirected_arcs:
        raise GraphError("fit_mle requires a completely directed graph")
    if set(g.nodes) != set(d.names):
        raise GraphError("graph nodes and dataset columns do not match")
    local_params = {}
    for node in g.nodes:
        parents = tuple(sorted(g.parents(node)))
        if d.discrete:
            levels = d.levels(node)
            counts = family_counts(d, node, parents)[0].astype(float)
            totals = counts.sum(axis=0)
            table = np.where(totals > 0, counts / np.where(totals > 0, totals, 1.0),
                             1.0 / len(levels))
            local_params[node] = DiscreteCPT(levels, parents,
                                             tuple(d.levels(p) for p in parents), table)
        else:
            beta, resid = _regress(d, node, parents)
            sd = float(np.sqrt(np.mean(resid ** 2)))
            if sd <= 0.0:
                sd = 1e-12  # degenerate fit; keep the sampler well defined
            local_params[node] = LinearGaussian(parents, float(beta[0]),
                                                beta[1:].copy(), sd)
    return FittedNetwork(g, local_params)


def forward_sample(f: FittedNetwork, n: int, seed: int) -> Dataset:
    """Ancestral sampling in topological order; deterministic given the seed."""
    _check_integer("n", n, 1, DataError)
    _check_integer("seed", seed, 0, DataError)
    rng = np.random.default_rng(seed)
    order = topological_order(f.graph)
    columns: dict[str, object] = {}
    if f.discrete:
        sampled: dict[str, np.ndarray] = {}
        for node in order:
            loc = f.locals[node]
            cfg = _parent_config_index([len(ls) for ls in loc.parent_levels],
                                       [sampled[p] for p in loc.parents], n)
            cum = np.cumsum(loc.table.T[cfg], axis=1)
            u = rng.random(n)
            codes = np.minimum((u[:, None] > cum).sum(axis=1),
                               len(loc.levels) - 1).astype(np.int64)
            codes.flags.writeable = False  # the Dataset keeps it without a copy
            sampled[node] = codes
            columns[node] = CategoricalColumn(loc.levels, codes)
    else:
        values: dict[str, np.ndarray] = {}
        for node in order:
            loc = f.locals[node]
            mean = np.full(n, loc.intercept)
            for p, c in zip(loc.parents, loc.coefficients):
                mean += c * values[p]
            values[node] = mean + loc.sd * rng.standard_normal(n)
            values[node].flags.writeable = False
            columns[node] = NumericColumn(values[node])
    return Dataset(f.graph.nodes, columns)
