"""Greedy hill-climbing over directed acyclic graphs with delta scoring.

Each iteration evaluates every legal single-arc move (add, delete, reverse)
against the priors and the acyclicity constraint, then applies the move with
the largest positive score delta. Ties break on a canonical move order so
runs are exactly reproducible. Random restarts perturb the local optimum
with random legal moves and climb again, keeping the best graph seen.

A move changes the parent sets of one node (add, delete) or two (reverse),
so the search keeps an n×n array of the gains of toggling each u in or out
of each v's parent set, and clears only the rows of the nodes a move
touched. A stale row is refilled by one call to the score layer, which
shares one count pass (and, for bge, one stacked determinant per set size)
among the row's families and scores the discrete families of one shape as
one stack. Legal moves are boolean masks built from the adjacency, the
reachability (recomputed once per applied move) and the priors; one rule
serves enumerate_moves, the perturbations and the climb.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, _check_integer
from .graph import CycleError, Graph, GraphError, Provenance, empty_graph
from .priors import Constraints, PriorKnowledge, PriorError, normalize_priors
from .scores import ScoreCache, ScoreError, ScoreSpec, _cached_local, _check_move, \
    _toggle_scores, default_score, network_score
from .trace import LearnTrace, TraceEvent

# The benchmark's traced run (perfbench/tracing.py) wraps these names on this
# module, and fails when one is missing; the search no longer calls them.
from .graph import _has_directed_path  # noqa: F401
from .scores import score_delta  # noqa: F401

_IMPROVEMENT_EPS = 1e-10
_TIE_EPS = 1e-8  # deltas closer than this are ties; the canonical move wins
_KINDS = ("add", "delete", "reverse")  # canonical order of the move kinds
_ADD, _DELETE, _REVERSE = range(3)


@dataclass
class HillClimbConfig:
    """Options for the hill-climbing search; score None means the data's default."""

    score: ScoreSpec | str | None = None
    priors: PriorKnowledge | None = None
    start: Graph | None = None
    restarts: int = 0
    perturb: int = 1
    max_iterations: int = 10000
    seed: int = 0
    debug: bool = False

    def __post_init__(self):
        if isinstance(self.score, str):
            self.score = ScoreSpec(kind=self.score)
        if self.score is not None and self.score.kind == "lik":
            raise ScoreError("hill-climbing maximizes loglik, not its exponential")
        _check_integer("restarts", self.restarts, 0, ScoreError)
        _check_integer("perturb", self.perturb, 0, ScoreError)
        _check_integer("max_iterations", self.max_iterations, 1, ScoreError)
        _check_integer("seed", self.seed, 0, ScoreError)
        if self.restarts > 0 and self.perturb < 1:
            raise ScoreError("perturb must be at least 1 when restarting")


class _Dag:
    """A fully directed acyclic graph that the search edits in place.

    Nodes are numbered in label order. A[u, v] holds the arc u -> v and
    R[a, b] says that b is a proper descendant of a; R is recomputed once
    per applied move. The prior masks say which adds the priors allow and
    which arcs may not be deleted or reversed.
    """

    def __init__(self, g: Graph, cons: Constraints | None):
        if g.undirected_arcs:
            raise GraphError("hill-climbing operates on completely directed graphs")
        self.names = names = sorted(g.nodes)
        index = {name: i for i, name in enumerate(names)}
        k = len(names)

        def mask(arcs) -> np.ndarray:
            m = np.zeros((k, k), dtype=bool)
            for u, v in arcs:
                for x in (u, v):
                    if x not in index:
                        raise PriorError(f"priors name {x!r}, which is not a node "
                                         "of the graph")
                m[index[u], index[v]] = True
            return m

        if cons is None:
            cons = normalize_priors(None, names)
        forbidden = mask(cons.forbidden_arcs)
        required = mask(cons.required_edges)
        self.allowed = ~forbidden & ~np.eye(k, dtype=bool)  # prior-allowed adds
        self.undeletable = mask(cons.forced_arcs) | required | required.T
        self.irreversible = forbidden.T  # reversing u -> v makes the arc v -> u
        self.A = mask(g.directed_arcs)
        self._reach()

    def _reach(self) -> None:
        # transitive closure by squaring: each pass doubles the path length
        R = self.A.copy()
        while True:
            f = R.astype(np.float32)
            closer = R | (f @ f > 0)
            if np.array_equal(closer, R):
                break
            R = closer
        self.R = R

    def legal(self) -> np.ndarray:
        """Legal moves as a (kind, from, to) boolean array over node numbers.

        Its row-major nonzero entries list the moves in the canonical order.
        An add u -> v is legal when u and v are not adjacent and v does not
        reach u; a reverse of u -> v when no other child of u reaches v.
        """
        A, R = self.A, self.R
        add = self.allowed & ~(A | A.T) & ~R.T
        delete = A & ~self.undeletable
        # bypassed[u, v]: some child of u reaches v (float32, so BLAS multiplies)
        bypassed = A.astype(np.float32) @ R.astype(np.float32) > 0
        reverse = A & ~self.irreversible & ~bypassed
        return np.stack([add, delete, reverse])

    def apply(self, kind: int, u: int, v: int) -> None:
        self.A[u, v] = kind == _ADD  # a delete or a reverse takes u -> v away
        if kind == _REVERSE:
            self.A[v, u] = True
        self._reach()

    def parent_labels(self, v: int) -> set[str]:
        return {self.names[u] for u in np.flatnonzero(self.A[:, v]).tolist()}

    def graph(self, g: Graph) -> Graph:
        names = self.names
        return Graph(g.nodes, [(names[u], names[v])
                               for u, v in np.argwhere(self.A).tolist()], (), g.provenance)


def enumerate_moves(g: Graph, cons: Constraints | None = None) -> list[tuple[str, str, str]]:
    """Legal (kind, from, to) moves on a fully directed acyclic graph.

    Adds respect the blacklist and acyclicity; whitelisted arcs are immune
    to deletion and to reversal out of their forced direction; required
    edges (whitelisted in both directions) may be reversed but not deleted.
    """
    dag = _Dag(g, cons)
    names = dag.names
    return [(_KINDS[kind], names[u], names[v])
            for kind, u, v in np.argwhere(dag.legal()).tolist()]


def apply_move(g: Graph, move: tuple[str, str, str]) -> Graph:
    """The graph after a (kind, from, to) move; ScoreError if g does not admit it."""
    kind, u, v = _check_move(g, move)
    directed = set(g.directed_arcs) ^ {(u, v)}  # add it, or take it away
    if kind == "reverse":
        directed.add((v, u))
    return Graph(g.nodes, directed, (), g.provenance)


def perturb_graph(g: Graph, k: int, cons: Constraints | None,
                  seed) -> tuple[Graph, int]:
    """Apply k uniformly random legal moves; returns the graph and how many applied.

    seed is an integer of at least 0 or a numpy Generator, which is drawn
    from in place. Fewer than k moves means the move set ran dry (flagged
    via the count).
    """
    _check_integer("k", k, 1, ScoreError)
    if not isinstance(seed, np.random.Generator):
        _check_integer("seed", seed, 0, ScoreError)
    rng = np.random.default_rng(seed)
    applied = 0
    for _ in range(k):
        moves = enumerate_moves(g, cons)
        if not moves:
            break
        g = apply_move(g, moves[rng.integers(len(moves))])
        applied += 1
    return g, applied


def _climb(g: Graph, d: Dataset, spec: ScoreSpec, cons: Constraints,
           cache: ScoreCache, trace: LearnTrace,
           max_iterations: int) -> tuple[Graph, float]:
    dag = _Dag(g, cons)
    names = dag.names
    k = len(names)
    # gain[v, u] = local(v, pa(v) ^ {u}) - local(v, pa(v)), NaN until filled
    gain = np.full((k, k), np.nan)
    # one immutable test event per move, made the first time the move is legal
    events = np.empty((3, k, k), dtype=object)
    made = np.zeros((3, k, k), dtype=bool)
    # score-equivalent moves differ only by rounding noise; requiring a clear
    # margin over the best delta so far keeps the canonical (first) move
    opening = _IMPROVEMENT_EPS + _TIE_EPS * max(1.0, _IMPROVEMENT_EPS)

    def refill(v: int, us: list[int]) -> None:
        parents = dag.parent_labels(v)
        base = _cached_local(names[v], parents, d, spec, cache)
        keys = [parents ^ {names[u]} for u in us]
        values = [cache.get(names[v], key) for key in keys]
        todo = [i for i, value in enumerate(values) if value is None]
        if todo:
            scored = _toggle_scores(names[v], parents, [names[us[i]] for i in todo],
                                    d, spec)
            for i, value in zip(todo, scored):
                cache.put(names[v], keys[i], value)
                values[i] = value
        gain[v, us] = np.array(values) - base

    for _ in range(max_iterations):
        legal = dag.legal()
        # refill, row by row, the entries the legal moves read that are still
        # NaN: gain[v, u] for every move u -> v, and gain[u, v] too for a reverse
        stale = (legal.any(axis=0).T | legal[_REVERSE]) & np.isnan(gain)
        for v in np.flatnonzero(stale.any(axis=1)).tolist():
            refill(v, np.flatnonzero(stale[v]).tolist())
        new = legal & ~made
        for kind, u, v in np.argwhere(new).tolist():
            events[kind, u, v] = TraceEvent("test", names[u], names[v],
                                            note=_KINDS[kind])
        made |= new
        trace.add_tests(events[legal].tolist())

        kinds, us, vs = np.nonzero(legal)
        # same operand order as score_delta, so deltas are bit-identical
        deltas = gain[vs, us]
        reverse = kinds == _REVERSE
        deltas[reverse] += gain[us[reverse], vs[reverse]]
        best, best_delta, threshold = None, _IMPROVEMENT_EPS, opening
        for i in np.flatnonzero(deltas > opening).tolist():
            delta = float(deltas[i])
            if delta > threshold:
                best, best_delta = i, delta
                threshold = best_delta + _TIE_EPS * max(1.0, abs(best_delta))
        if best is None:
            break
        kind, u, v = int(kinds[best]), int(us[best]), int(vs[best])
        dag.apply(kind, u, v)
        gain[v] = np.nan
        if kind == _REVERSE:
            gain[u] = np.nan
        trace.add("move", names[u], names[v], p_value=best_delta, note=_KINDS[kind])
        if trace.debug:
            trace.say(f"* applying {_KINDS[kind]} {names[u]} -> {names[v]} "
                      f"( delta: {best_delta:g} )")
    g = dag.graph(g)
    return g, network_score(g, d, spec, cache)


def _starting_graph(d: Dataset, cfg: HillClimbConfig, cons: Constraints) -> Graph:
    g = cfg.start if cfg.start is not None else empty_graph(d.names)
    if set(g.nodes) != set(d.names):
        raise GraphError("start graph nodes and dataset columns do not match")
    if g.undirected_arcs:
        raise GraphError("the start graph must be completely directed")
    banned = [(u, v) for u, v in g.directed_arcs if not cons.arc_allowed(u, v)]
    if banned:
        u, v = min(banned)  # the message never depends on set order
        raise PriorError(f"start graph violates the blacklist on {u} -> {v}")
    directed = set(g.directed_arcs) | cons.forced_arcs
    try:
        Graph(d.names, directed)
    except GraphError as exc:
        raise PriorError(f"priors conflict with the start graph: {exc}") from None
    # a required edge a - b (normalize_priors forbids neither orientation)
    # becomes a -> b unless b already reaches a; then b -> a closes no cycle
    for a, b in sorted(cons.required_edges):
        if (a, b) in directed or (b, a) in directed:
            continue
        try:
            Graph(d.names, directed | {(a, b)})
        except CycleError:
            a, b = b, a
        directed.add((a, b))
    return Graph(d.names, directed)


def hill_climb(d: Dataset, cfg: HillClimbConfig) -> tuple[Graph, LearnTrace]:
    """Greedy search for a high-scoring DAG; deterministic given the seed."""
    spec = cfg.score if cfg.score is not None else ScoreSpec(kind=default_score(d))
    cons = normalize_priors(cfg.priors, d.names)
    trace = LearnTrace(cfg.debug)
    cache = ScoreCache()
    rng = np.random.default_rng(cfg.seed)

    current = _starting_graph(d, cfg, cons)
    best, best_score = _climb(current, d, spec, cons, cache, trace,
                              cfg.max_iterations)
    for _ in range(cfg.restarts):
        perturbed, applied = perturb_graph(best, cfg.perturb, cons, rng)
        if applied == 0:
            trace.add("restart", note="no legal perturbation")
            continue
        trace.add("restart", note=f"perturbed by {applied} moves")
        candidate, cand_score = _climb(perturbed, d, spec, cons, cache, trace,
                                       cfg.max_iterations)
        if cand_score > best_score:
            best, best_score = candidate, cand_score

    provenance = Provenance(
        method="score", algorithm="Hill-Climbing", score=spec.kind,
        penalty=spec.effective_penalty(d.n) if spec.kind in ("aic", "bic") else None,
        iss=spec.iss if spec.kind in ("bde", "bge") else None,
        ntests=trace.test_counter, optimized=True)
    return best.with_provenance(provenance), trace
