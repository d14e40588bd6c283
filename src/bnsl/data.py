"""Tabular data, sufficient statistics, local-parameter fitting and sampling.

Datasets are homogeneous: either every column is categorical (discrete
networks) or every column is numeric (Gaussian networks). Instances are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, GraphError, topological_order


class DataError(ValueError):
    """Unusable input data or an ill-posed statistic request."""


@dataclass(frozen=True)
class CategoricalColumn:
    levels: tuple[str, ...]
    codes: np.ndarray  # int64 indices into levels


@dataclass(frozen=True)
class NumericColumn:
    values: np.ndarray  # float64


class Dataset:
    """Column-typed table, all categorical or all numeric."""

    __slots__ = ("names", "columns", "n", "discrete", "_memo")

    def __init__(self, names, columns):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise DataError("duplicate column names")
        if not names:
            raise DataError("dataset has no columns")
        cols = {}
        kinds = set()
        length = None
        for name in names:
            col = columns[name]
            if isinstance(col, CategoricalColumn):
                kinds.add("categorical")
                m = len(col.levels)
                if m < 2:
                    raise DataError(f"column {name!r} has fewer than 2 levels")
                if len(set(col.levels)) != m:
                    raise DataError(f"column {name!r} has duplicate levels")
                codes = np.asarray(col.codes, dtype=np.int64)
                if codes.size and (codes.min() < 0 or codes.max() >= m):
                    raise DataError(f"column {name!r} has out-of-range codes")
                col = CategoricalColumn(tuple(col.levels), codes)
            elif isinstance(col, NumericColumn):
                kinds.add("numeric")
                col = NumericColumn(np.asarray(col.values, dtype=np.float64))
            else:
                raise DataError(f"column {name!r} has unsupported type")
            size = col.codes.size if isinstance(col, CategoricalColumn) else col.values.size
            if length is None:
                length = size
            elif size != length:
                raise DataError("columns have differing lengths")
            cols[name] = col
        if len(kinds) > 1:
            raise DataError("mixed data unsupported")
        self.names = names
        self.columns = cols
        self.n = int(length)
        self.discrete = kinds == {"categorical"}
        self._memo = {}

    def levels(self, name: str) -> tuple[str, ...]:
        col = self._col(name)
        if not isinstance(col, CategoricalColumn):
            raise DataError(f"column {name!r} is not categorical")
        return col.levels

    def codes(self, name: str) -> np.ndarray:
        col = self._col(name)
        if not isinstance(col, CategoricalColumn):
            raise DataError(f"column {name!r} is not categorical")
        return col.codes

    def values(self, name: str) -> np.ndarray:
        col = self._col(name)
        if not isinstance(col, NumericColumn):
            raise DataError(f"column {name!r} is not numeric")
        return col.values

    def _col(self, name: str):
        try:
            return self.columns[name]
        except KeyError:
            raise DataError(f"unknown column {name!r}") from None

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


def load_table(path, type_hint: str | None = None, delimiter: str | None = None) -> Dataset:
    """Read a delimited text file with a header row into a Dataset.

    Columns whose every entry parses as a number become numeric unless
    type_hint="discrete" forces categorical treatment; level lists are the
    sorted distinct values.
    """
    if type_hint not in (None, "discrete", "continuous"):
        raise DataError(f"unknown type hint {type_hint!r}")
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    if not text.strip():
        raise DataError(f"data file {path} is empty")
    if delimiter is None:
        delimiter = _detect_delimiter(text.splitlines()[0])
    rows = [row for row in csv.reader(io.StringIO(text), delimiter=delimiter)
            if any(field.strip() for field in row)]
    header = [h.strip() for h in rows[0]]
    ncol = len(header)
    if len(rows) < 2:
        raise DataError("no data rows")
    body = rows[1:]
    for i, row in enumerate(body):
        if len(row) != ncol:
            raise DataError(f"ragged row {i + 2}: expected {ncol} fields, got {len(row)}")
    raw = [[row[j].strip() for row in body] for j in range(ncol)]

    def numeric(colvals):
        try:
            return np.array([float(v) for v in colvals], dtype=float)
        except ValueError:
            return None

    columns = {}
    kinds = []
    for name, colvals in zip(header, raw):
        vals = None if type_hint == "discrete" else numeric(colvals)
        if vals is not None:
            columns[name] = NumericColumn(vals)
            kinds.append("numeric")
        else:
            if type_hint == "continuous":
                raise DataError(f"column {name!r} is not numeric")
            levels = tuple(sorted(set(colvals)))
            if len(levels) < 2:
                raise DataError(f"column {name!r} has a single level")
            index = {lv: i for i, lv in enumerate(levels)}
            codes = np.fromiter((index[v] for v in colvals), dtype=np.int64,
                                count=len(colvals))
            columns[name] = CategoricalColumn(levels, codes)
            kinds.append("categorical")
    if len(set(kinds)) > 1:
        raise DataError("mixed data unsupported")
    return Dataset(tuple(header), columns)


def write_table(d: Dataset, path_or_file, delimiter: str = ",") -> None:
    """Write a Dataset back out as delimited text with a header row."""
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

    def margin_z(self) -> np.ndarray:
        return self.counts.sum(axis=(0, 1))  # n_{++k}, shape (L,)


def joint_config_codes(d: Dataset, names) -> tuple[np.ndarray, int]:
    """Dense 0..L-1 codes of the observed configurations of the given columns."""
    names = list(names)
    if not names:
        return np.zeros(d.n, dtype=np.int64), 1
    combined = d.codes(names[0]).copy()
    for name in names[1:]:
        r = len(d.levels(name))
        if combined.max(initial=0) > (2**62) // max(r, 1):
            _, combined = np.unique(combined, return_inverse=True)
        combined = combined * r + d.codes(name)
    uniq, dense = np.unique(combined, return_inverse=True)
    return dense.astype(np.int64), int(uniq.size)


def contingency_counts(d: Dataset, x: str, y: str, z=()) -> ContingencyTable:
    """Exact n_ijk counts of x versus y within each observed z configuration."""
    if not d.discrete:
        raise DataError("contingency tables require a discrete dataset")
    z = list(z)
    labels = [x, y] + z
    if len(set(labels)) != len(labels):
        raise DataError("x, y and z must be distinct")
    xc = d.codes(x)
    yc = d.codes(y)
    R = len(d.levels(x))
    C = len(d.levels(y))
    zidx, L = joint_config_codes(d, z)
    flat = (xc * C + yc) * L + zidx
    counts = np.bincount(flat, minlength=R * C * L).reshape(R, C, L)
    return ContingencyTable(counts, R, C, L, d.n)


def correlation_matrix(d: Dataset, names) -> np.ndarray:
    """Pearson correlations of the given numeric columns."""
    if d.discrete:
        raise DataError("correlations require a numeric dataset")
    names = list(names)
    if d.n < 2:
        raise DataError("need at least 2 rows")
    mat = np.column_stack([d.values(n) for n in names])
    centered = mat - mat.mean(axis=0)
    sd = centered.std(axis=0)
    bad = np.flatnonzero(sd == 0.0)
    if bad.size:
        raise DataError(f"zero-variance column {names[bad[0]]!r}")
    c = (centered / sd).T @ (centered / sd) / d.n
    np.fill_diagonal(c, 1.0)
    return np.clip(c, -1.0, 1.0)


def partial_correlation(d: Dataset, x: str, y: str, z=()) -> float:
    """Partial correlation of x and y given z via correlation-matrix inversion.

    Exactly symmetric in x and y. When the submatrix is singular because x
    or y is a deterministic linear function of z, the vanishing residuals
    define a zero partial correlation; other singularities are reported.
    """
    z = list(z)
    if d.n <= len(z) + 2:
        raise DataError("not enough rows for the conditioning set")
    a, b = (x, y) if x <= y else (y, x)
    corr = correlation_matrix(d, [a, b] + z)
    if not z:
        return float(corr[0, 1])
    try:
        # a numerically singular matrix can "invert" into garbage; guard on
        # conditioning before trusting the result
        if np.linalg.cond(corr) < 1e12:
            omega = np.linalg.inv(corr)
            rho = -omega[0, 1] / math.sqrt(omega[0, 0] * omega[1, 1])
            if math.isfinite(rho):
                return float(np.clip(rho, -1.0, 1.0))
    except (np.linalg.LinAlgError, ValueError):
        pass
    for name in (a, b):
        vals = d.values(name)
        _, resid = _regress(d, name, z)
        if np.linalg.norm(resid) <= 1e-6 * max(np.linalg.norm(vals - vals.mean()), 1e-30):
            return 0.0
    raise DataError("singular correlation submatrix")


def _regress(d: Dataset, name: str, z) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fit of a numeric column on an intercept and the columns z.

    Returns the coefficients (intercept first) and the residuals.
    """
    y = d.values(name)
    design = np.column_stack([np.ones(d.n)] + [d.values(c) for c in z])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    return beta, y - design @ beta


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
                sums = loc.table.sum(axis=0)
                if not np.allclose(sums, 1.0, atol=1e-9):
                    raise DataError(f"CPT rows for {node!r} do not sum to 1")
                if np.any(loc.table < 0):
                    raise DataError(f"negative CPT entry for {node!r}")
            else:
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
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DataError(f"malformed fitted-network file: {exc}") from None
        names = [e["name"] for e in entries]
        arcs = [(p, e["name"]) for e in entries for p in e["parents"]]
        graph = Graph(names, arcs)
        local_params = {}
        for e in entries:
            if kind == "discrete":
                local_params[e["name"]] = DiscreteCPT(
                    tuple(e["levels"]), tuple(e["parents"]),
                    tuple(tuple(ls) for ls in e["parent_levels"]),
                    np.asarray(e["cpt"], dtype=float))
            else:
                local_params[e["name"]] = LinearGaussian(
                    tuple(e["parents"]), float(e["intercept"]),
                    np.asarray(e["coefficients"], dtype=float), float(e["sd"]))
        return cls(graph, local_params)


def _parent_config_index(level_counts, parent_codes) -> np.ndarray:
    """Mixed-radix index of parent configurations, first parent most significant."""
    idx = np.zeros_like(parent_codes[0])
    for r, codes in zip(level_counts, parent_codes):
        idx = idx * r + codes
    return idx


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
            R = len(levels)
            plevels = tuple(d.levels(p) for p in parents)
            q = 1
            for ls in plevels:
                q *= len(ls)
            cfg = _parent_config_index([len(ls) for ls in plevels],
                                       [d.codes(p) for p in parents]) \
                if parents else np.zeros(d.n, dtype=np.int64)
            counts = np.bincount(d.codes(node) * q + cfg, minlength=R * q)
            counts = counts.reshape(R, q).astype(float)
            totals = counts.sum(axis=0)
            table = np.where(totals > 0, counts / np.where(totals > 0, totals, 1.0),
                             1.0 / R)
            local_params[node] = DiscreteCPT(levels, parents, plevels, table)
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
    if n < 1:
        raise DataError("sample size must be positive")
    rng = np.random.default_rng(seed)
    order = topological_order(f.graph, by_label=True)
    columns: dict[str, object] = {}
    if f.discrete:
        sampled: dict[str, np.ndarray] = {}
        for node in order:
            loc = f.locals[node]
            if loc.parents:
                cfg = _parent_config_index([len(ls) for ls in loc.parent_levels],
                                           [sampled[p] for p in loc.parents])
            else:
                cfg = np.zeros(n, dtype=np.int64)
            cum = np.cumsum(loc.table.T[cfg], axis=1)
            u = rng.random(n)
            codes = np.minimum((u[:, None] > cum).sum(axis=1),
                               len(loc.levels) - 1).astype(np.int64)
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
            columns[node] = NumericColumn(values[node])
    return Dataset(f.graph.nodes, columns)
