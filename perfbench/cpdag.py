"""Reference CPDAG of a DAG and the structural Hamming distance to it.

This module does not use ``bnsl.graph.propagate_directions``: the reference
must not move when the code under test changes. The CPDAG keeps the DAG's
v-structures and then applies Meek's rules R1-R3 to a fixpoint, which is
complete for a pattern without background knowledge (Meek 1995).
"""

from __future__ import annotations

from itertools import combinations


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def cpdag(nodes, arcs) -> tuple[frozenset, frozenset]:
    """(directed arcs, undirected pairs) of the equivalence class of a DAG.

    Undirected pairs are sorted tuples (a, b) with a < b.
    """
    nodes = tuple(nodes)
    arcs = set(arcs)
    parents = {n: {u for u, v in arcs if v == n} for n in nodes}
    adj = {n: set() for n in nodes}
    for u, v in arcs:
        adj[u].add(v)
        adj[v].add(u)

    directed = set()
    for c in nodes:
        for a, b in combinations(sorted(parents[c]), 2):
            if b not in adj[a]:
                directed.add((a, c))
                directed.add((b, c))
    undirected = {_pair(u, v) for u, v in arcs} - {_pair(u, v) for u, v in directed}

    def und(a, b):
        return _pair(a, b) in undirected

    def orient(a, b):
        undirected.discard(_pair(a, b))
        directed.add((a, b))

    changed = True
    while changed:
        changed = False
        for a, b in sorted(undirected):
            for x, y in ((a, b), (b, a)):
                # R1: w -> x - y with w, y non-adjacent gives x -> y
                r1 = any((w, x) in directed and y not in adj[w] for w in adj[x])
                # R2: x -> w -> y with x - y gives x -> y
                r2 = any((x, w) in directed and (w, y) in directed for w in adj[x])
                # R3: x - c -> y and x - d -> y with c, d non-adjacent gives x -> y
                into_y = [w for w in adj[x] if und(x, w) and (w, y) in directed]
                r3 = any(d not in adj[c] for c, d in combinations(into_y, 2))
                if r1 or r2 or r3:
                    orient(x, y)
                    changed = True
                    break
            if changed:
                break
    return frozenset(directed), frozenset(undirected)


def _marks(directed, undirected) -> dict:
    marks = {}
    for u, v in directed:
        marks[_pair(u, v)] = (u, v)
    for a, b in undirected:
        marks[_pair(a, b)] = "-"
    return marks


def shd(directed, undirected, true_directed, true_undirected) -> int:
    """Node pairs whose mark differs: a missing or extra edge, or another orientation.

    A learned undirected edge where the reference has a compelled arc (or the
    reverse) counts as one error, so an unoriented skeleton pays for every
    compelled arc of the reference.
    """
    learned = _marks(directed, undirected)
    truth = _marks(true_directed, true_undirected)
    return sum(1 for p in learned.keys() | truth.keys() if learned.get(p) != truth.get(p))
