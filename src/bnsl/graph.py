"""Partially directed graphs over labelled nodes: the network structure type.

A :class:`Graph` keeps a directed arc set and an undirected arc set over a
fixed node list. The directed part is acyclic at all times and the two sets
never overlap. Instances are immutable; every mutation returns a new graph,
so values can be shared freely across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import combinations

import numpy as np

CYCLE_MESSAGE = "the resulting graph contains cycles."

LABEL_PATTERN = re.compile(r"[A-Za-z0-9_.]+\Z")
_BLOCK_PATTERN = re.compile(r"\[([^\[\]]*)\]|(.)", re.DOTALL)


class GraphError(ValueError):
    """Malformed graph, model string or illegal arc operation."""


class CycleError(GraphError):
    """An operation would make the directed part of a graph cyclic."""


def _pair(a: str, b: str) -> tuple[str, str]:
    """The key of the undirected pair {a, b}: its two labels in sorted order."""
    return (a, b) if a < b else (b, a)


def _smallest(arcs):
    """The offending arc an error names: the first in sorted label order."""
    return min(arcs, key=lambda arc: tuple(map(str, arc)))


@dataclass(frozen=True)
class Provenance:
    """Display-only metadata describing how a structure was obtained."""

    method: str = "empty"  # "constraint", "score" or "empty"
    algorithm: str | None = None
    test: str | None = None
    score: str | None = None
    alpha: float | None = None
    penalty: float | None = None
    iss: float | None = None
    ntests: int = 0
    optimized: bool | None = None


class Graph:
    """Node-labelled graph with directed and undirected arc sets."""

    __slots__ = ("nodes", "directed_arcs", "undirected_arcs", "provenance",
                 "_parents", "_children", "_und_nbr")

    def __init__(self, nodes, directed_arcs=(), undirected_arcs=(),
                 provenance: Provenance | None = None):
        nodes = tuple(str(n) for n in nodes)
        if len(set(nodes)) != len(nodes):
            raise GraphError("duplicate node labels")
        for n in nodes:
            if not LABEL_PATTERN.match(n):
                raise GraphError(f"invalid node label {n!r}")
        node_set = set(nodes)

        directed = {(u, v) for u, v in directed_arcs}
        rows = {(a, b) for a, b in undirected_arcs}
        for arcs, sep in ((directed, "->"), (rows, "-")):
            bad = [(u, v) for u, v in arcs
                   if u == v or u not in node_set or v not in node_set]
            if bad:
                u, v = _smallest(bad)
                if u == v:
                    raise GraphError(f"self-loop on {u!r}")
                raise GraphError(f"arc endpoint not in node set: {u!r} {sep} {v!r}")
        undirected = {_pair(a, b) for a, b in rows}
        bad = [(u, v) for u, v in directed if (v, u) in directed or _pair(u, v) in undirected]
        if bad:
            u, v = _smallest(bad)
            if (v, u) in directed:
                raise GraphError(f"both orientations of {u!r}/{v!r} are directed")
            raise GraphError(f"{u!r}/{v!r} is both directed and undirected")

        self.nodes = nodes
        self.directed_arcs = frozenset(directed)
        self.undirected_arcs = frozenset(undirected)
        self.provenance = provenance or Provenance()

        parents: dict[str, set[str]] = {n: set() for n in nodes}
        children: dict[str, set[str]] = {n: set() for n in nodes}
        und: dict[str, set[str]] = {n: set() for n in nodes}
        for u, v in directed:
            parents[v].add(u)
            children[u].add(v)
        for a, b in undirected:
            und[a].add(b)
            und[b].add(a)
        self._parents = {n: frozenset(s) for n, s in parents.items()}
        self._children = {n: frozenset(s) for n, s in children.items()}
        self._und_nbr = {n: frozenset(s) for n, s in und.items()}

        if topological_order(self) is None:
            raise CycleError(CYCLE_MESSAGE)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (set(self.nodes) == set(other.nodes)
                and self.directed_arcs == other.directed_arcs
                and self.undirected_arcs == other.undirected_arcs)

    def __hash__(self) -> int:
        return hash((frozenset(self.nodes), self.directed_arcs, self.undirected_arcs))

    def __repr__(self) -> str:
        return (f"Graph(nodes={len(self.nodes)}, directed={len(self.directed_arcs)}, "
                f"undirected={len(self.undirected_arcs)})")

    # -- per-node queries ----------------------------------------------------

    def _check_node(self, node: str) -> str:
        if node not in self._parents:
            raise GraphError(f"unknown node {node!r}")
        return node

    def parents(self, node: str) -> frozenset[str]:
        return self._parents[self._check_node(node)]

    def children(self, node: str) -> frozenset[str]:
        return self._children[self._check_node(node)]

    def nbr(self, node: str) -> frozenset[str]:
        """Adjacent nodes: parents, children and undirected neighbours."""
        self._check_node(node)
        return self._parents[node] | self._children[node] | self._und_nbr[node]

    def mb(self, node: str) -> frozenset[str]:
        """Markov blanket: adjacent nodes plus co-parents of directed children."""
        self._check_node(node)
        out = set(self.nbr(node))
        for child in self._children[node]:
            out |= self._parents[child]
        out.discard(node)
        return frozenset(out)

    def adjacent(self, a: str, b: str) -> bool:
        return b in self.nbr(a)

    # -- whole-graph queries ---------------------------------------------------

    def root_nodes(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if not self._parents[n])

    def leaf_nodes(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if not self._children[n])

    def amat(self) -> np.ndarray:
        """0/1 adjacency matrix in node order; undirected arcs set both entries."""
        idx = {n: i for i, n in enumerate(self.nodes)}
        m = np.zeros((len(self.nodes), len(self.nodes)), dtype=int)
        for u, v in self.directed_arcs:
            m[idx[u], idx[v]] = 1
        for a, b in self.undirected_arcs:
            m[idx[a], idx[b]] = 1
            m[idx[b], idx[a]] = 1
        return m

    def arcs(self) -> tuple[tuple[str, str], ...]:
        """All arcs as rows; an undirected arc appears in both orientations."""
        return tuple(sorted((*self.directed_arcs, *self.undirected_arc_rows())))

    def directed_arc_rows(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.directed_arcs))

    def undirected_arc_rows(self) -> tuple[tuple[str, str], ...]:
        rows = []
        for a, b in self.undirected_arcs:
            rows.append((a, b))
            rows.append((b, a))
        return tuple(sorted(rows))

    @property
    def acyclic(self) -> bool:
        """Always True: the constructor refuses a cyclic directed part."""
        return True

    @property
    def directed(self) -> bool:
        """True iff the graph has no undirected arcs."""
        return not self.undirected_arcs

    def narcs(self) -> int:
        return len(self.directed_arcs) + len(self.undirected_arcs)


def empty_graph(nodes) -> Graph:
    return Graph(nodes)


def topological_order(g: Graph) -> list[str] | None:
    """The label-smallest topological order of the directed part, or None if it is cyclic.

    Kahn's algorithm over a min-heap frontier: each step places the smallest
    label whose parents are all placed, so the order depends on the labels
    and arcs alone, never on set iteration order.
    """
    indeg = {n: len(g._parents[n]) for n in g.nodes}
    frontier = [n for n in g.nodes if not indeg[n]]
    heapify(frontier)
    order = []
    while frontier:
        n = heappop(frontier)
        order.append(n)
        for c in g._children[n]:
            indeg[c] -= 1
            if not indeg[c]:
                heappush(frontier, c)
    return order if len(order) == len(g.nodes) else None


def _has_directed_path(children, source: str, target: str) -> bool:
    """Depth-first reachability along directed arcs, given each node's children."""
    stack = [source]
    seen = {source}
    while stack:
        n = stack.pop()
        if n == target:
            return True
        for c in children[n]:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return False


# -- model strings ------------------------------------------------------------

def parse_modelstring(s: str, nodes=None) -> Graph:
    """Parse bracket notation like "[A][C][B|A:C]" into a fully directed graph.

    Node order follows first appearance unless an explicit node list is given.
    """
    seen: dict[str, list[str]] = {}
    order: list[str] = []
    for m in _BLOCK_PATTERN.finditer(s):
        if m.group(2) is not None:
            if not m.group(2).isspace():
                raise GraphError(f"malformed model string near {s[m.start():m.start()+10]!r}")
            continue
        body = m.group(1)
        name, _, parent_part = body.partition("|")
        if not LABEL_PATTERN.match(name):
            raise GraphError(f"invalid node label {name!r} in model string")
        if name in seen:
            raise GraphError(f"duplicate node block for {name!r}")
        parents = []
        if parent_part:
            parents = parent_part.split(":")
            for p in parents:
                if not LABEL_PATTERN.match(p):
                    raise GraphError(f"invalid parent label {p!r} in model string")
        elif "|" in body:
            raise GraphError(f"empty parent list in block {body!r}")
        seen[name] = parents
        order.append(name)
    if not seen:
        raise GraphError("empty model string")
    for name, parents in seen.items():
        for p in parents:
            if p not in seen:
                raise GraphError(f"unknown parent label {p!r} for node {name!r}")
    if nodes is not None:
        nodes = tuple(nodes)
        if set(nodes) != set(order):
            raise GraphError("node list does not match model string blocks")
    else:
        nodes = tuple(order)
    arcs = [(p, name) for name, parents in seen.items() for p in parents]
    return Graph(nodes, arcs)


def format_modelstring(g: Graph) -> str:
    """Render a completely directed acyclic graph in bracket notation.

    Blocks appear in ancestral-depth layers (roots first), label-sorted
    within a layer; parent lists are label-sorted.
    """
    if g.undirected_arcs:
        raise GraphError("model strings require a completely directed graph")
    depth: dict[str, int] = {}
    for n in topological_order(g):
        ps = g.parents(n)
        depth[n] = 1 + max((depth[p] for p in ps), default=-1)
    blocks = []
    for n in sorted(g.nodes, key=lambda n: (depth[n], n)):
        ps = sorted(g.parents(n))
        blocks.append(f"[{n}|{':'.join(ps)}]" if ps else f"[{n}]")
    return "".join(blocks)


# -- arc mutation --------------------------------------------------------------

def mutate_arc(g: Graph, frm: str, to: str, op: str) -> Graph:
    """Return a new graph with the arc between frm/to set, dropped or reversed.

    Acyclicity is re-checked; a failed mutation leaves the input untouched.
    """
    g._check_node(frm)
    g._check_node(to)
    if frm == to:
        raise GraphError("arc endpoints must differ")
    key = _pair(frm, to)
    directed = set(g.directed_arcs)
    undirected = set(g.undirected_arcs)
    if op == "set":
        directed.discard((to, frm))
        undirected.discard(key)
        directed.add((frm, to))
    elif op == "drop":
        directed.discard((frm, to))
        directed.discard((to, frm))
        undirected.discard(key)
    elif op == "reverse":
        if (frm, to) not in directed:
            raise GraphError(f"no directed arc {frm} -> {to} to reverse")
        directed.discard((frm, to))
        directed.add((to, frm))
    else:
        raise GraphError(f"unknown arc operation {op!r}")
    return Graph(g.nodes, directed, undirected, g.provenance)


def set_arc(g: Graph, frm: str, to: str) -> Graph:
    return mutate_arc(g, frm, to, "set")


def drop_arc(g: Graph, frm: str, to: str) -> Graph:
    return mutate_arc(g, frm, to, "drop")


def reverse_arc(g: Graph, frm: str, to: str) -> Graph:
    return mutate_arc(g, frm, to, "reverse")


def set_undirected(g: Graph, a: str, b: str) -> Graph:
    """Add or relax the a/b edge to an undirected arc."""
    g._check_node(a)
    g._check_node(b)
    if a == b:
        raise GraphError("arc endpoints must differ")
    directed = set(g.directed_arcs)
    undirected = set(g.undirected_arcs)
    directed.discard((a, b))
    directed.discard((b, a))
    undirected.add(_pair(a, b))
    return Graph(g.nodes, directed, undirected, g.provenance)


# -- structural queries ----------------------------------------------------------

_QUERY_KINDS = ("parents", "children", "mb", "nbr", "root_nodes", "leaf_nodes",
                "amat", "arcs", "directed_arcs", "undirected_arcs", "acyclic",
                "directed")


def structure_query(g: Graph, kind: str, node: str | None = None):
    """Uniform entry point for the per-node and whole-graph structure queries."""
    if kind not in _QUERY_KINDS:
        raise GraphError(f"unknown query kind {kind!r}")
    if kind in ("parents", "children", "mb", "nbr"):
        if node is None:
            raise GraphError(f"query {kind!r} requires a node")
        return getattr(g, kind)(node)
    if kind == "root_nodes":
        return g.root_nodes()
    if kind == "leaf_nodes":
        return g.leaf_nodes()
    if kind == "amat":
        return g.amat()
    if kind == "arcs":
        return g.arcs()
    if kind == "directed_arcs":
        return g.directed_arc_rows()
    if kind == "undirected_arcs":
        return g.undirected_arc_rows()
    if kind == "acyclic":
        return g.acyclic
    return g.directed


# -- comparison -------------------------------------------------------------------

@dataclass(frozen=True)
class NodeDiff:
    parents_only_first: tuple[str, ...]
    parents_only_second: tuple[str, ...]
    children_only_first: tuple[str, ...]
    children_only_second: tuple[str, ...]


@dataclass(frozen=True)
class ComparisonReport:
    equal: bool
    directed_only_first: tuple[tuple[str, str], ...]
    directed_only_second: tuple[tuple[str, str], ...]
    undirected_only_first: tuple[tuple[str, str], ...]
    undirected_only_second: tuple[tuple[str, str], ...]
    node_diffs: dict[str, NodeDiff] = field(default_factory=dict)

    def format(self) -> str:
        lines = [f"equal: {'true' if self.equal else 'false'}"]
        for label, rows, sep in (
            ("directed arcs only in first", self.directed_only_first, "->"),
            ("directed arcs only in second", self.directed_only_second, "->"),
            ("undirected arcs only in first", self.undirected_only_first, "-"),
            ("undirected arcs only in second", self.undirected_only_second, "-"),
        ):
            if rows:
                lines.append(f"{label}: " + ", ".join(f"{u} {sep} {v}" for u, v in rows))
        for node, diff in self.node_diffs.items():
            parts = []
            if diff.parents_only_first:
                parts.append("parents only in first: " + " ".join(diff.parents_only_first))
            if diff.parents_only_second:
                parts.append("parents only in second: " + " ".join(diff.parents_only_second))
            if diff.children_only_first:
                parts.append("children only in first: " + " ".join(diff.children_only_first))
            if diff.children_only_second:
                parts.append("children only in second: " + " ".join(diff.children_only_second))
            if parts:
                lines.append(f"node {node}: " + "; ".join(parts))
        return "\n".join(lines)


def compare(g1: Graph, g2: Graph) -> tuple[bool, ComparisonReport]:
    """True iff both arc sets match, plus a per-arc and per-node difference report."""
    if set(g1.nodes) != set(g2.nodes):
        raise GraphError("compared graphs must have identical node sets")
    equal = (g1.directed_arcs == g2.directed_arcs
             and g1.undirected_arcs == g2.undirected_arcs)
    node_diffs = {}
    for n in g1.nodes:
        d = NodeDiff(
            tuple(sorted(g1.parents(n) - g2.parents(n))),
            tuple(sorted(g2.parents(n) - g1.parents(n))),
            tuple(sorted(g1.children(n) - g2.children(n))),
            tuple(sorted(g2.children(n) - g1.children(n))),
        )
        if any((d.parents_only_first, d.parents_only_second,
                d.children_only_first, d.children_only_second)):
            node_diffs[n] = d
    report = ComparisonReport(
        equal,
        tuple(sorted(g1.directed_arcs - g2.directed_arcs)),
        tuple(sorted(g2.directed_arcs - g1.directed_arcs)),
        tuple(sorted(g1.undirected_arcs - g2.undirected_arcs)),
        tuple(sorted(g2.undirected_arcs - g1.undirected_arcs)),
        node_diffs,
    )
    return equal, report


# -- v-structures and direction propagation ------------------------------------

def find_vstructures(g: Graph) -> tuple[tuple[str, str, str], ...]:
    """All converging triples p1 -> center <- p2 with non-adjacent p1, p2."""
    out = []
    for center in g.nodes:
        ps = sorted(g.parents(center))
        for p1, p2 in combinations(ps, 2):
            if not g.adjacent(p1, p2):
                out.append((p1, center, p2))
    return tuple(sorted(out))


def propagate_directions(g: Graph, allowed=None) -> tuple[Graph, tuple[tuple[str, str], ...]]:
    """Meek-style direction propagation to a fixpoint.

    Orients undirected arcs whose reverse orientation would close a directed
    cycle or create a new v-structure, plus the three-fork rule; arcs that
    stay ambiguous are left undirected, and arcs where both orientations are
    illegal are left undirected and reported. An optional allowed(u, v)
    predicate vetoes orientations (used for blacklists).
    """
    if allowed is None:
        def allowed(u, v):
            return True
    parents = {n: set(s) for n, s in g._parents.items()}
    children = {n: set(s) for n, s in g._children.items()}
    und = {n: set(s) for n, s in g._und_nbr.items()}
    undirected = set(g.undirected_arcs)
    flagged: set[tuple[str, str]] = set()

    def adjacent(a, b):
        return b in parents[a] or b in children[a] or b in und[a]

    def legal(u, v):
        """Orienting u -> v makes no new v-structure w -> v <- u and closes no cycle."""
        return (all(adjacent(w, u) for w in parents[v])
                and not _has_directed_path(children, v, u))

    def forked(x, y):
        """Three-fork rule: c -> y and d -> y with x - c, x - d and c, d non-adjacent."""
        return any(not adjacent(c, d) for c, d in combinations(parents[y] & und[x], 2))

    def choose(a, b):
        """The orientation forced on a - b, or None (flagging a - b if none is legal)."""
        ab = allowed(a, b) and legal(a, b)
        ba = allowed(b, a) and legal(b, a)
        if ab and not ba:
            return a, b
        if ba and not ab:
            return b, a
        if not ab:
            flagged.add((a, b))
            return None
        for x, y in ((a, b), (b, a)):  # both are allowed and legal here
            if forked(x, y):
                return x, y
        return None

    changed = True
    while changed:
        changed = False
        for a, b in sorted(undirected):
            chosen = choose(a, b)
            if chosen is not None:
                u, v = chosen
                undirected.discard((a, b))
                und[u].discard(v)
                und[v].discard(u)
                parents[v].add(u)
                children[u].add(v)
                changed = True
                break
    directed = [(u, v) for u, vs in children.items() for v in vs]
    out = Graph(g.nodes, directed, undirected, g.provenance)
    return out, tuple(sorted(flagged))


def extend_pdag(g: Graph) -> Graph:
    """Direction propagation returning only the extended graph."""
    out, _ = propagate_directions(g)
    return out


# -- parameter counting -----------------------------------------------------------

def nparams(g: Graph, d) -> int:
    """Free parameters of the network over dataset d.

    Discrete: sum over nodes of (levels - 1) * product of parent levels.
    Continuous: one intercept, one coefficient per parent and one residual
    variance per node.
    """
    if g.undirected_arcs:
        raise GraphError("nparams requires a completely directed graph")
    if set(g.nodes) != set(d.names):
        raise GraphError("graph nodes and dataset columns do not match")
    total = 0
    if d.discrete:
        for n in g.nodes:
            q = 1
            for p in g.parents(n):
                q *= len(d.levels(p))
            total += (len(d.levels(n)) - 1) * q
    else:
        for n in g.nodes:
            total += len(g.parents(n)) + 2
    return total


# -- DOT export ---------------------------------------------------------------------

def to_dot(g: Graph, name: str = "network") -> str:
    """DOT text: directed arcs as ->, undirected arcs as dir=none edges."""
    lines = [f"digraph {name} {{"]
    for n in g.nodes:
        lines.append(f'  "{n}";')
    for u, v in sorted(g.directed_arcs):
        lines.append(f'  "{u}" -> "{v}";')
    for a, b in sorted(g.undirected_arcs):
        lines.append(f'  "{a}" -> "{b}" [dir=none];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- summary statistics (used by the CLI print block) ---------------------------------

def average_mb_size(g: Graph) -> float:
    return sum(len(g.mb(n)) for n in g.nodes) / len(g.nodes)


def average_nbr_size(g: Graph) -> float:
    return sum(len(g.nbr(n)) for n in g.nodes) / len(g.nodes)


def average_branching(g: Graph) -> float:
    return len(g.directed_arcs) / len(g.nodes)
