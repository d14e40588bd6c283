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

from .data import Dataset, _gaussian_moments, family_counts
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


def _loglik_local(counts: np.ndarray) -> float:
    totals = counts.sum(axis=0, keepdims=True).astype(float)
    # ratio is 1 where a count is 0, so those cells add exactly +0.0
    ratio = np.divide(counts, totals, out=np.ones_like(counts, dtype=float),
                      where=counts > 0)
    return float((counts * np.log(ratio)).sum())


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


def _dirichlet_local(d: Dataset, counts: np.ndarray, a_cell: float, a_col: float) -> float:
    """Log marginal likelihood of a family under a Dirichlet prior of a_cell per
    cell and a_col per parent configuration: bde, and k2 with a_cell = 1, a_col = R."""
    totals = counts.sum(axis=0)
    seen = totals > 0  # unseen parent configurations contribute 0
    value = float(_lgamma_shifted(d, counts[:, seen], a_cell).sum())
    value -= counts[:, seen].size * math.lgamma(a_cell)
    value += int(seen.sum()) * math.lgamma(a_col)
    value -= float(_lgamma_shifted(d, totals[seen], a_col).sum())
    return value


# -- bge ---------------------------------------------------------------------------

class _BgeContext:
    """Posterior matrix and hyperparameters shared by all bge local scores."""

    def __init__(self, d: Dataset, spec: ScoreSpec):
        index, xbar, _, scatter = _gaussian_moments(d)
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

    def log_set_marginal(self, subset) -> float:
        key = frozenset(subset)
        cached = self._set_cache.get(key)
        if cached is not None:
            return cached
        l = len(key)
        if l == 0:
            return 0.0
        idx = np.array(sorted(self.index[c] for c in key), dtype=np.intp)
        sign, logdet = np.linalg.slogdet(self.posterior[idx[:, None], idx])
        if sign <= 0:
            raise ScoreError("bge posterior submatrix is not positive definite")
        a = self.alpha_w - self.nvar + l
        value = self._size_term(l) - ((a + self.n) / 2.0) * logdet
        self._set_cache[key] = value
        return value


def _bge_context(d: Dataset, spec: ScoreSpec) -> _BgeContext:
    key = ("bge-context", spec.iss, spec.bge_dof)
    ctx = d._memo.get(key)
    if ctx is None:
        ctx = _BgeContext(d, spec)
        d._memo[key] = ctx
    return ctx


# -- public operations ------------------------------------------------------------------

def local_score(node: str, parents, d: Dataset, spec: ScoreSpec) -> float:
    """Per-node score contribution of node given the parent set."""
    parents = sorted(parents)
    if node in parents:
        raise ScoreError("a node cannot be its own parent")
    _check_spec(d, spec)
    if spec.kind == "bge":
        ctx = _bge_context(d, spec)
        return (ctx.log_set_marginal(list(parents) + [node])
                - ctx.log_set_marginal(parents))
    counts, q = family_counts(d, node, parents)
    if spec.kind in ("lik", "loglik", "aic", "bic"):
        ll = _loglik_local(counts)
        if spec.kind == "loglik":
            return ll
        if spec.kind == "lik":
            if ll > 700.0:
                raise ScoreError("likelihood overflows; use loglik")
            return math.exp(ll)
        dim = (counts.shape[0] - 1) * q
        return ll - spec.effective_penalty(d.n) * dim
    R = counts.shape[0]
    if spec.kind == "k2":
        return _dirichlet_local(d, counts, 1.0, float(R))
    return _dirichlet_local(d, counts, spec.iss / (R * q), spec.iss / q)


def network_score(g: Graph, d: Dataset, spec: ScoreSpec,
                  cache: ScoreCache | None = None) -> float:
    """Whole-network score: the sum of local scores over all nodes."""
    if g.undirected_arcs:
        raise GraphError("network scores are defined on completely directed graphs")
    if set(g.nodes) != set(d.names):
        raise ScoreError("graph nodes and dataset columns do not match")
    if spec.kind == "lik":
        total = network_score(g, d, replace(spec, kind="loglik"), cache)
        if total > 700.0:
            raise ScoreError("likelihood overflows; use loglik")
        return math.exp(total)
    total = 0.0
    for node in g.nodes:
        total += _cached_local(node, g.parents(node), d, spec, cache)
    return total


def _cached_local(node: str, parents, d: Dataset, spec: ScoreSpec,
                  cache: ScoreCache | None) -> float:
    if cache is None:
        return local_score(node, parents, d, spec)
    value = cache.get(node, parents)
    if value is None:
        value = local_score(node, parents, d, spec)
        cache.put(node, parents, value)
    return value


def score_delta(g: Graph, move, d: Dataset, spec: ScoreSpec,
                cache: ScoreCache | None = None) -> float:
    """Score change of a single-arc move, from at most two local recomputations.

    move is (kind, from, to) with kind one of add, delete, reverse.
    """
    kind, u, v = move
    if spec.kind == "lik":
        raise ScoreError("delta scoring works on the log scale; use loglik")
    if kind not in ("add", "delete", "reverse"):
        raise ScoreError(f"unknown move kind {kind!r}")
    if u == v or ((u, v) in g.directed_arcs) == (kind == "add"):
        raise ScoreError(f"illegal {kind} {u} -> {v}")

    def toggle(node, other):  # the gain of toggling other in node's parents
        pa = g.parents(node)
        return (_cached_local(node, pa ^ {other}, d, spec, cache)
                - _cached_local(node, pa, d, spec, cache))

    if kind == "reverse":
        return toggle(v, u) + toggle(u, v)
    return toggle(v, u)
