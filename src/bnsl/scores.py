"""Decomposable network scores for discrete and Gaussian Bayesian networks.

Every score is a sum of per-node terms that depend only on the node and its
parent set, which is what makes delta scoring and caching possible during
hill-climbing. Discrete scores: lik, loglik, aic, bic, bde (Dirichlet
marginal likelihood) and k2; the Gaussian score is bge (normal-Wishart
marginal likelihood, computed from set marginals so that score equivalence
holds by construction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, _gaussian_moments, _toggle_family_counts, family_counts
from .graph import Graph, GraphError
from .special import lgamma_array

SCORE_LABELS = ("lik", "loglik", "aic", "bic", "bde", "k2", "bge")
DISCRETE_SCORES = ("lik", "loglik", "aic", "bic", "bde", "k2")
CONTINUOUS_SCORES = ("bge",)

SCORE_NAMES = {
    "lik": "Likelihood",
    "loglik": "Log-Likelihood",
    "aic": "Akaike Information Criterion",
    "bic": "Bayesian Information Criterion",
    "bde": "Bayesian Dirichlet (BDe)",
    "k2": "K2",
    "bge": "Bayesian Gaussian (BGe)",
}


class ScoreError(ValueError):
    """Unknown score label, score/data mismatch or numeric failure."""


@dataclass(frozen=True)
class ScoreSpec:
    """Which score to compute and its hyperparameters.

    penalty multiplies the parameter count: default 1 for aic and
    log(n)/2 for bic (resolved against the dataset at scoring time).
    iss is the equivalent sample size of the bde/bge priors; bge_dof
    defaults to |V| + 2.
    """

    kind: str = "bic"
    penalty: float | None = None
    iss: float = 1.0
    bge_dof: float | None = None

    def __post_init__(self):
        if self.kind not in SCORE_LABELS:
            raise ScoreError(f"unknown score label {self.kind!r}")
        if not (math.isfinite(self.iss) and self.iss > 0):
            raise ScoreError(f"iss must be finite and positive, got {self.iss!r}")
        if self.penalty is not None and not (math.isfinite(self.penalty)
                                             and self.penalty >= 0):
            raise ScoreError(f"penalty must be finite and non-negative, got {self.penalty!r}")
        if self.bge_dof is not None and not math.isfinite(self.bge_dof):
            raise ScoreError(f"bge_dof must be finite, got {self.bge_dof!r}")

    def effective_penalty(self, n: int) -> float:
        if self.penalty is not None:
            return self.penalty
        return 1.0 if self.kind == "aic" else 0.5 * math.log(n)


class ScoreCache:
    """Cache of local scores keyed by (node, parent set).

    Valid for one dataset and one spec: a key always maps to the value that
    local_score would compute for it.
    """

    def __init__(self):
        self._store: dict[tuple[str, frozenset], float] = {}
        self.hits = 0
        self.misses = 0

    def get(self, node: str, parents) -> float | None:
        value = self._store.get((node, frozenset(parents)))
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, node: str, parents, value: float) -> None:
        self._store[(node, frozenset(parents))] = value

    def __len__(self) -> int:
        return len(self._store)


def default_score(d: Dataset) -> str:
    return "bic" if d.discrete else "bge"


def _check_spec(d: Dataset, spec: ScoreSpec) -> None:
    if d.discrete and spec.kind not in DISCRETE_SCORES:
        raise ScoreError(f"score {spec.kind!r} requires continuous data")
    if not d.discrete and spec.kind not in CONTINUOUS_SCORES:
        raise ScoreError(f"score {spec.kind!r} requires discrete data")


def _loglik_local(counts: np.ndarray) -> np.ndarray:
    """Log-likelihoods of a stack of same-shape (R, q) family tables, one per item.

    Each item's sum runs over the item alone, so it equals the sum over that
    table on its own bit for bit.
    """
    totals = counts.sum(axis=1, keepdims=True).astype(float)
    # ratio is 1 where a count is 0, so those cells add exactly +0.0
    ratio = np.divide(counts, totals, out=np.ones_like(counts, dtype=float),
                      where=counts > 0)
    return (counts * np.log(ratio)).reshape(len(counts), -1).sum(axis=1)


# Log-gamma tables longer than this (512 KB of float64) are not built; larger
# datasets evaluate lgamma_array on the counts directly.
_LGAMMA_TABLE_CAP = 1 << 16


def _lgamma_shifted(d: Dataset, counts: np.ndarray, a: float) -> np.ndarray:
    """lgamma(counts + a) for counts in 0..d.n, read from a per-dataset table.

    The table lgamma_array(0..n + a) is built once per (dataset, a), so each
    entry is exactly what lgamma_array(counts + a) would return.
    """
    if d.n + 1 > _LGAMMA_TABLE_CAP:
        return lgamma_array(counts + a)
    key = ("lgamma", a)
    table = d._memo.get(key)
    if table is None:
        table = lgamma_array(np.arange(d.n + 1) + a)
        d._memo[key] = table
    return table[counts]


def _dirichlet_scores(d: Dataset, counts: np.ndarray, a_cell: float,
                      a_col: float) -> np.ndarray:
    """Log marginal likelihoods of a stack of same-shape (R, q) family tables
    under a Dirichlet prior of a_cell per cell and a_col per parent
    configuration: bde, and k2 with a_cell = 1, a_col = R.

    Unseen parent configurations contribute 0. Each item's seen cells are
    summed column by column, the order in which numpy sums a lone table's
    F-ordered counts[:, seen], with one sum per group of items with the same
    number of seen configurations; so an item's score does not depend on
    the stack it is in.
    """
    totals = counts.sum(axis=1)
    seen = totals > 0
    nseen = seen.sum(axis=1)
    # row s holds the R cells of the s-th seen configuration, item by item
    cells = _lgamma_shifted(d, counts.transpose(0, 2, 1)[seen], a_cell)
    margins = _lgamma_shifted(d, totals[seen], a_col)
    starts = np.cumsum(nseen) - nseen
    R = counts.shape[1]
    out = np.empty(len(counts))
    for k in set(nseen.tolist()):
        members = np.flatnonzero(nseen == k)
        rows = starts[members][:, None] + np.arange(k)
        out[members] = (cells[rows].reshape(len(members), k * R).sum(axis=1)
                        - (R * k) * math.lgamma(a_cell) + k * math.lgamma(a_col)
                        - margins[rows].sum(axis=1))
    return out


# -- bge ---------------------------------------------------------------------------

class _BgeContext:
    """Posterior matrix and hyperparameters shared by all bge local scores."""

    def __init__(self, d: Dataset, spec: ScoreSpec):
        index, xbar, _, scatter, *_ = _gaussian_moments(d)
        nvar = len(index)
        n = d.n
        alpha_mu = spec.iss
        alpha_w = spec.bge_dof if spec.bge_dof is not None else nvar + 2.0
        if alpha_w <= nvar + 1:
            raise ScoreError("bge degrees of freedom must exceed |V| + 1")
        t_scale = alpha_mu * (alpha_w - nvar - 1.0) / (alpha_mu + 1.0)
        self.index = index
        self.n = n
        self.nvar = nvar
        self.alpha_mu = alpha_mu
        self.alpha_w = alpha_w
        self.log_t = math.log(t_scale)
        # prior mean is the zero vector
        self.posterior = (t_scale * np.eye(nvar) + scatter
                          + (n * alpha_mu / (n + alpha_mu)) * np.outer(xbar, xbar))
        self._set_cache: dict[frozenset, float] = {}
        self._size_terms: dict[int, float] = {}

    def _log_multigamma(self, p: int, a: float) -> float:
        return (p * (p - 1) / 4.0) * math.log(math.pi) + sum(
            math.lgamma(a + (1 - j) / 2.0) for j in range(1, p + 1))

    def _size_term(self, l: int) -> float:
        """The part of a set marginal that depends only on the set size l."""
        value = self._size_terms.get(l)
        if value is None:
            a = self.alpha_w - self.nvar + l
            value = (-(l * self.n / 2.0) * math.log(math.pi)
                     + (l / 2.0) * math.log(self.alpha_mu / (self.alpha_mu + self.n))
                     + self._log_multigamma(l, (a + self.n) / 2.0)
                     - self._log_multigamma(l, a / 2.0)
                     + (a / 2.0) * l * self.log_t)
            self._size_terms[l] = value
        return value

    def log_set_marginals(self, subsets) -> list[float]:
        """The log marginal likelihood of each subset's columns; the uncached
        sets of one size share one stacked slogdet, which gives each set its
        own slogdet bit for bit."""
        keys = [frozenset(s) for s in subsets]
        todo: dict[int, dict[frozenset, None]] = {}
        for key in keys:
            if key and key not in self._set_cache:
                todo.setdefault(len(key), {})[key] = None
        for l, group in todo.items():
            idx = np.array([sorted(self.index[c] for c in key) for key in group],
                           dtype=np.intp)
            sign, logdet = np.linalg.slogdet(self.posterior[idx[:, :, None], idx[:, None, :]])
            if (sign <= 0).any():
                raise ScoreError("bge posterior submatrix is not positive definite")
            a = self.alpha_w - self.nvar + l
            term, half = self._size_term(l), (a + self.n) / 2.0
            for key, value in zip(group, logdet.tolist()):
                self._set_cache[key] = term - half * value
        return [self._set_cache[key] if key else 0.0 for key in keys]


def _bge_context(d: Dataset, spec: ScoreSpec) -> _BgeContext:
    key = ("bge-context", spec.iss, spec.bge_dof)
    ctx = d._memo.get(key)
    if ctx is None:
        ctx = _BgeContext(d, spec)
        d._memo[key] = ctx
    return ctx


# -- public operations ------------------------------------------------------------------

def _parent_list(node: str, parents) -> list[str]:
    """parents in label order; ScoreError if node is one of them or one repeats."""
    parents = sorted(parents)
    if node in parents:
        raise ScoreError("a node cannot be its own parent")
    if len(set(parents)) < len(parents):
        repeated = next(a for a, b in zip(parents, parents[1:]) if a == b)
        raise ScoreError(f"parent {repeated!r} of {node!r} is listed twice")
    return parents


def local_score(node: str, parents, d: Dataset, spec: ScoreSpec) -> float:
    """Per-node score contribution of node given the parent set."""
    parents = _parent_list(node, parents)
    _check_spec(d, spec)
    if spec.kind == "bge":
        return _bge_scores(node, [parents], d, spec)[0]
    return _discrete_scores(node, [family_counts(d, node, parents)], d, spec)[0]


def _toggle_scores(node: str, parents, others, d: Dataset, spec: ScoreSpec) -> list[float]:
    """local_score(node, parents ^ {u}) for each u in others, bit for bit.

    The row's discrete families share one count pass, and its bge sets one
    stacked determinant per set size.
    """
    parents = _parent_list(node, parents)
    if node in others:
        raise ScoreError("a node cannot be its own parent")
    _check_spec(d, spec)
    if spec.kind == "bge":
        return _bge_scores(node, [sorted(set(parents) ^ {u}) for u in others], d, spec)
    return _discrete_scores(node, _toggle_family_counts(d, node, parents, others),
                            d, spec)


def _discrete_scores(node: str, tables: list[tuple[np.ndarray, int]], d: Dataset,
                     spec: ScoreSpec) -> list[float]:
    """Local scores of one node's (counts, q) family tables.

    The tables that share q are scored as one stack, each item as it would
    be alone, bit for bit.
    """
    if not tables:
        return []
    R = tables[0][0].shape[0]
    same_q: dict[int, list[int]] = {}
    for i, (_, q) in enumerate(tables):
        same_q.setdefault(q, []).append(i)
    values = [0.0] * len(tables)
    for q, members in same_q.items():
        stack = np.stack([tables[i][0] for i in members])
        if spec.kind == "k2":
            scored = _dirichlet_scores(d, stack, 1.0, float(R))
        elif spec.kind == "bde":
            a_cell = spec.iss / (R * q)
            if a_cell == 0.0:
                raise ScoreError(f"iss {spec.iss!r} is too small for node {node!r}: "
                                 f"its bde prior count per cell, iss / {R * q}, is 0")
            scored = _dirichlet_scores(d, stack, a_cell, spec.iss / q)
        else:
            scored = _loglik_local(stack)
        for i, value in zip(members, scored.tolist()):
            values[i] = value
    if spec.kind in ("loglik", "bde", "k2"):
        return values
    if spec.kind == "lik":
        return [_likelihood(ll) for ll in values]
    penalty = spec.effective_penalty(d.n)
    return [ll - penalty * ((R - 1) * q) for ll, (_, q) in zip(values, tables)]


def _bge_scores(node: str, families: list[list[str]], d: Dataset,
                spec: ScoreSpec) -> list[float]:
    """bge local scores of node given each sorted parent list in families."""
    for pa in families:
        for name in (node, *pa):
            d._col(name)  # DataError for an unknown column, as the discrete scores
    marginals = _bge_context(d, spec).log_set_marginals(
        s for pa in families for s in (pa + [node], pa))
    return [marginals[i] - marginals[i + 1] for i in range(0, len(marginals), 2)]


def network_score(g: Graph, d: Dataset, spec: ScoreSpec,
                  cache: ScoreCache | None = None) -> float:
    """Whole-network score: the sum of local scores over all nodes."""
    if g.undirected_arcs:
        raise GraphError("network scores are defined on completely directed graphs")
    if set(g.nodes) != set(d.names):
        raise ScoreError("graph nodes and dataset columns do not match")
    if spec.kind == "lik":
        return _likelihood(network_score(g, d, replace(spec, kind="loglik"), cache))
    total = 0.0
    for node in g.nodes:
        total += _cached_local(node, g.parents(node), d, spec, cache)
    return total


def _likelihood(loglik: float) -> float:
    """The lik score exp(loglik), refused where it would overflow a float."""
    if loglik > 700.0:
        raise ScoreError("likelihood overflows; use loglik")
    return math.exp(loglik)


def _cached_local(node: str, parents, d: Dataset, spec: ScoreSpec,
                  cache: ScoreCache | None) -> float:
    if cache is None:
        return local_score(node, parents, d, spec)
    value = cache.get(node, parents)
    if value is None:
        value = local_score(node, parents, d, spec)
        cache.put(node, parents, value)
    return value


def _check_move(g: Graph, move) -> tuple[str, str, str]:
    """(kind, from, to) of a move g admits: an add joins two unjoined nodes."""
    kind, u, v = move
    if kind not in ("add", "delete", "reverse"):
        raise ScoreError(f"unknown move kind {kind!r}")
    if u == v or ((u, v) in g.directed_arcs) == (kind == "add") or (v, u) in g.directed_arcs:
        raise ScoreError(f"illegal {kind} {u} -> {v}")
    return kind, u, v


def score_delta(g: Graph, move, d: Dataset, spec: ScoreSpec,
                cache: ScoreCache | None = None) -> float:
    """Score change of a single-arc move, from at most two local recomputations.

    move is (kind, from, to) with kind one of add, delete, reverse.
    """
    if spec.kind == "lik":
        raise ScoreError("delta scoring works on the log scale; use loglik")
    kind, u, v = _check_move(g, move)

    def toggle(node, other):  # the gain of toggling other in node's parents
        pa = g.parents(node)
        return (_cached_local(node, pa ^ {other}, d, spec, cache)
                - _cached_local(node, pa, d, spec, cache))

    if kind == "reverse":
        return toggle(v, u) + toggle(u, v)
    return toggle(v, u)
