"""Whitelist/blacklist normalization shared by both learner families.

A whitelisted arc is guaranteed present, a blacklisted one guaranteed
absent. Listing both orientations changes the meaning: whitelisting both
forces the edge but leaves the orientation to the learner, blacklisting
both removes the pair entirely (the undirected arc included). A
single-orientation whitelist also bans the reverse arc and the undirected
form; a single-orientation blacklist bans that arc and the undirected
form but leaves the reverse available. An arc on both lists in the same
orientation is treated as whitelisted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import CycleError, Graph, _pair


class PriorError(ValueError):
    """Inconsistent or impossible prior constraints."""


@dataclass(frozen=True)
class ArcList:
    """Directed (from, to) rows over a declared node universe."""

    rows: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        rows = tuple((str(u), str(v)) for u, v in self.rows)
        if len(set(rows)) != len(rows):
            u, v = next(row for i, row in enumerate(rows) if row in rows[:i])
            raise PriorError(f"duplicate rows in arc list: {u!r} -> {v!r}")
        object.__setattr__(self, "rows", rows)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


@dataclass(frozen=True)
class PriorKnowledge:
    whitelist: ArcList = field(default_factory=ArcList)
    blacklist: ArcList = field(default_factory=ArcList)

    def __post_init__(self):
        if not isinstance(self.whitelist, ArcList):
            object.__setattr__(self, "whitelist", ArcList(tuple(self.whitelist)))
        if not isinstance(self.blacklist, ArcList):
            object.__setattr__(self, "blacklist", ArcList(tuple(self.blacklist)))


@dataclass(frozen=True)
class Constraints:
    """Normalized prior knowledge, ready for the learners.

    forbidden_arcs is the one relation the predicates read: an orientation
    is allowed when it is not forbidden, an edge when either orientation is
    allowed, and the undirected form when both are.
    """

    nodes: tuple[str, ...]
    forced_arcs: frozenset  # arcs that must appear, in this orientation
    required_edges: frozenset  # pairs that must appear, orientation free
    forbidden_arcs: frozenset  # orientations that may never appear

    def arc_allowed(self, u: str, v: str) -> bool:
        return (u, v) not in self.forbidden_arcs

    def undirected_allowed(self, a: str, b: str) -> bool:
        return self.arc_allowed(a, b) and self.arc_allowed(b, a)

    def edge_allowed(self, a: str, b: str) -> bool:
        return self.arc_allowed(a, b) or self.arc_allowed(b, a)

    def forced_adjacency(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {n: set() for n in self.nodes}
        for u, v in self.forced_arcs:
            adj[u].add(v)
            adj[v].add(u)
        for a, b in self.required_edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj


def normalize_priors(priors: PriorKnowledge | None, nodes) -> Constraints:
    """Resolve whitelist/blacklist interactions into explicit constraints.

    Raises PriorError when endpoints are unknown, an arc is a self-loop,
    or the forced arcs alone already contain a directed cycle.
    """
    nodes = tuple(nodes)
    node_set = set(nodes)
    if priors is None:
        priors = PriorKnowledge()
    wl = set()
    bl = set()
    for name, rows, target in (("whitelist", priors.whitelist, wl),
                               ("blacklist", priors.blacklist, bl)):
        for u, v in rows:
            if u not in node_set or v not in node_set:
                raise PriorError(f"{name} endpoint not among the nodes: {u!r} -> {v!r}")
            if u == v:
                raise PriorError(f"{name} contains a self-loop on {u!r}")
            target.add((u, v))
    bl -= wl  # an arc whitelisted and blacklisted at once is whitelisted

    required_edges = {_pair(u, v) for u, v in wl if (v, u) in wl}
    forced_arcs = {(u, v) for u, v in wl if (v, u) not in wl}
    forbidden_arcs = bl | {(v, u) for u, v in forced_arcs}

    try:
        Graph(nodes, forced_arcs)
    except CycleError:
        raise PriorError("the whitelist forces a cycle") from None
    return Constraints(nodes, frozenset(forced_arcs), frozenset(required_edges),
                       frozenset(forbidden_arcs))
