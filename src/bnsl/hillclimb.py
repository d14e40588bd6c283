"""Greedy hill-climbing over directed acyclic graphs with delta scoring.

Each iteration evaluates every legal single-arc move (add, delete, reverse)
against the priors and the acyclicity constraint, then applies the move with
the largest positive score delta. Ties break on a canonical move order so
runs are exactly reproducible. Random restarts perturb the local optimum
with random legal moves and climb again, keeping the best graph seen.

A move changes the parent sets of one node (add, delete) or two (reverse),
so the search keeps, for every node v, the gains of toggling each u in or
out of v's parent set and drops only the rows of the nodes a move touched.
Legality is read from descendant bitmasks, recomputed once per applied move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, _check_integer
from .graph import CycleError, Graph, GraphError, Provenance, empty_graph
from .priors import Constraints, PriorKnowledge, PriorError, normalize_priors
from .scores import ScoreCache, ScoreError, ScoreSpec, _cached_local, network_score
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
    """Options for the hill-climbing search."""

    score: ScoreSpec | str = "bic"
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
        if self.score.kind == "lik":
            raise ScoreError("hill-climbing maximizes loglik, not its exponential")
        _check_integer("restarts", self.restarts, 0, ScoreError)
        _check_integer("perturb", self.perturb, 0, ScoreError)
        _check_integer("max_iterations", self.max_iterations, 1, ScoreError)
        _check_integer("seed", self.seed, 0, ScoreError)
        if self.restarts > 0 and self.perturb < 1:
            raise ScoreError("perturb must be at least 1 when restarting")


class _Dag:
    """A fully directed acyclic graph that the search edits in place.

    Nodes are numbered in label order, so walking moves by kind, then by
    (from, to) number, walks them in the canonical order. desc[x] is the
    bitmask of x's proper descendants and adj[x] that of its neighbours.
    """

    def __init__(self, g: Graph, cons: Constraints | None):
        if g.undirected_arcs:
            raise GraphError("hill-climbing operates on completely directed graphs")
        self.names = names = sorted(g.nodes)
        index = {name: i for i, name in enumerate(names)}
        k = len(names)
        self.parents = [g.parents(name) for name in names]  # labels, for scoring
        self.children = [{index[c] for c in g.children(name)} for name in names]
        self.adj = [0] * k
        self.arcs = set()
        for u, v in g.directed_arcs:
            self._link(index[u], index[v])

        if cons is None:
            cons = normalize_priors(None, names)
        forbidden = {(index[u], index[v]) for u, v in cons.forbidden_arcs}
        # prior-allowed add targets per tail; arcs the priors pin in place
        self.targets = [[v for v in range(k) if v != u and (u, v) not in forbidden]
                        for u in range(k)]
        required = {(index[a], index[b]) for a, b in cons.required_edges}
        self.undeletable = ({(index[u], index[v]) for u, v in cons.forced_arcs}
                            | required | {(b, a) for a, b in required})
        self.irreversible = {(v, u) for u, v in forbidden}
        self._descendants()

    def _link(self, u: int, v: int) -> None:
        self.arcs.add((u, v))
        self.children[u].add(v)
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    def _unlink(self, u: int, v: int) -> None:
        self.arcs.discard((u, v))
        self.children[u].discard(v)
        self.adj[u] &= ~(1 << v)
        self.adj[v] &= ~(1 << u)

    def _descendants(self) -> None:
        children = self.children
        indegree = [len(p) for p in self.parents]
        order = [x for x, n in enumerate(indegree) if n == 0]
        for x in order:  # Kahn's algorithm; order grows while it is walked
            for c in children[x]:
                indegree[c] -= 1
                if indegree[c] == 0:
                    order.append(c)
        desc = [0] * len(children)
        for x in reversed(order):
            mask = 0
            for c in children[x]:
                mask |= desc[c] | 1 << c
            desc[x] = mask
        self.desc = desc

    def moves(self):
        """Legal (kind, from, to) moves as node numbers, in the canonical order.

        An add u -> v is legal when u and v are not adjacent and v does not
        reach u; a reverse of u -> v when no other child of u reaches v.
        """
        desc, adj, children = self.desc, self.adj, self.children
        for u, targets in enumerate(self.targets):
            near = adj[u]
            for v in targets:
                if not (near >> v & 1 or desc[v] >> u & 1):
                    yield _ADD, u, v
        arcs = sorted(self.arcs)
        for u, v in arcs:
            if (u, v) not in self.undeletable:
                yield _DELETE, u, v
        for u, v in arcs:
            if (u, v) in self.irreversible:
                continue
            others = 0
            for c in children[u]:
                if c != v:
                    others |= desc[c]
            if not others >> v & 1:
                yield _REVERSE, u, v

    def apply(self, kind: int, u: int, v: int) -> None:
        names, parents = self.names, self.parents
        if kind == _ADD:
            self._link(u, v)
            parents[v] = parents[v] | {names[u]}
        elif kind == _DELETE:
            self._unlink(u, v)
            parents[v] = parents[v] - {names[u]}
        else:
            self._unlink(u, v)
            self._link(v, u)
            parents[v] = parents[v] - {names[u]}
            parents[u] = parents[u] | {names[v]}
        self._descendants()

    def graph(self, g: Graph) -> Graph:
        names = self.names
        return Graph(g.nodes, [(names[u], names[v]) for u, v in self.arcs], (),
                     g.provenance)


def enumerate_moves(g: Graph, cons: Constraints | None = None) -> list[tuple[str, str, str]]:
    """Legal (kind, from, to) moves on a fully directed acyclic graph.

    Adds respect the blacklist and acyclicity; whitelisted arcs are immune
    to deletion and to reversal out of their forced direction; required
    edges (whitelisted in both directions) may be reversed but not deleted.
    """
    dag = _Dag(g, cons)
    names = dag.names
    return [(_KINDS[kind], names[u], names[v]) for kind, u, v in dag.moves()]


def apply_move(g: Graph, move: tuple[str, str, str]) -> Graph:
    kind, u, v = move
    directed = set(g.directed_arcs)
    if kind == "add":
        directed.add((u, v))
    elif kind == "delete":
        directed.discard((u, v))
    elif kind == "reverse":
        directed.discard((u, v))
        directed.add((v, u))
    else:
        raise ScoreError(f"unknown move kind {kind!r}")
    return Graph(g.nodes, directed, (), g.provenance)


def perturb_graph(g: Graph, k: int, cons: Constraints | None,
                  seed) -> tuple[Graph, int]:
    """Apply k uniformly random legal moves; returns the graph and how many applied.

    Fewer than k moves means the move set ran dry (flagged via the count).
    """
    if k < 1:
        raise ScoreError("perturb count must be at least 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
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
    names, parents = dag.names, dag.parents
    # rows[v][u] = local(v, pa(v) ^ {u}) - local(v, pa(v)), filled on demand
    rows: list[dict | None] = [None] * len(names)
    base = [0.0] * len(names)
    tests: dict[tuple, TraceEvent] = {}  # events are immutable, so one per move

    def gain(v: int, u: int) -> float:
        row = rows[v]
        if row is None:
            row = rows[v] = {}
            base[v] = _cached_local(names[v], parents[v], d, spec, cache)
        value = row.get(u)
        if value is None:
            value = row[u] = (_cached_local(names[v], parents[v] ^ {names[u]},
                                            d, spec, cache) - base[v])
        return value

    for _ in range(max_iterations):
        best_move = None
        best_delta = _IMPROVEMENT_EPS
        # score-equivalent moves differ only by rounding noise; requiring a
        # clear margin keeps the canonical (first-enumerated) move
        threshold = best_delta + _TIE_EPS * max(1.0, abs(best_delta))
        evaluated: list[TraceEvent] = []
        record = evaluated.append
        for move in dag.moves():
            kind, u, v = move
            # same operand order as score_delta, so deltas are bit-identical
            delta = gain(v, u) if kind != _REVERSE else gain(v, u) + gain(u, v)
            event = tests.get(move)
            if event is None:
                event = tests[move] = TraceEvent("test", names[u], names[v],
                                                 note=_KINDS[kind])
            record(event)
            if delta > threshold:
                best_move = move
                best_delta = delta
                threshold = best_delta + _TIE_EPS * max(1.0, abs(best_delta))
        trace.add_tests(evaluated)
        if best_move is None:
            break
        kind, u, v = best_move
        dag.apply(kind, u, v)
        rows[v] = None
        if kind == _REVERSE:
            rows[u] = None
        trace.add("move", names[u], names[v], p_value=best_delta, note=_KINDS[kind])
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
    for u, v in g.directed_arcs:
        if not cons.arc_allowed(u, v):
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
    spec = cfg.score
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
