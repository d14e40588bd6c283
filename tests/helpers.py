"""Shared generators for randomized tests."""

from __future__ import annotations

import importlib.util
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

# pass/fail lines collected by the acceptance suite; conftest prints them
# in the terminal summary (pytest captures even low-level stdout writes)
ACCEPTANCE_VERDICTS: list[str] = []

from bnsl import CycleError, Dataset, Graph, PriorError, PriorKnowledge, normalize_priors
from bnsl.data import CategoricalColumn, NumericColumn


def random_dag(rng: np.random.Generator, n_nodes: int, p_edge: float = 0.35) -> Graph:
    """Random DAG: random topological order, each forward pair kept with p_edge."""
    labels = [f"N{i}" for i in range(n_nodes)]
    order = rng.permutation(n_nodes)
    arcs = []
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < p_edge:
                arcs.append((labels[order[i]], labels[order[j]]))
    return Graph(labels, arcs)


def dsep(dag: Graph, x: str, y: str, z) -> bool:
    """True when z d-separates x and y in the DAG.

    x and y are d-separated by z exactly when z separates them in the moral
    graph of the ancestral set of {x, y} and z (Lauritzen et al. 1990).
    """
    z = set(z)
    keep = {x, y} | z
    stack = list(keep)
    while stack:
        for u in dag.parents(stack.pop()):
            if u not in keep:
                keep.add(u)
                stack.append(u)
    adj = {v: set() for v in keep}
    for v in keep:
        parents = dag.parents(v)
        for u in parents:
            adj[u].add(v)
            adj[v].add(u)
        for a, b in combinations(parents, 2):
            adj[a].add(b)
            adj[b].add(a)
    seen = {x}
    stack = [x]
    while stack:
        for w in adj[stack.pop()] - z - seen:
            if w == y:
                return False
            seen.add(w)
            stack.append(w)
    return True


def perfbench_module(name: str):
    """A module of the benchmark harness, loaded by path (perfbench is not a package).

    The module is registered in sys.modules as perfbench_<name>, as dataclasses
    need. The harness's modules import each other by bare name, so its folder is
    on sys.path while it loads; the bare-name modules that load pulls in are
    then dropped from sys.modules, so no second copy of them stays shared.
    """
    folder = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", folder / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    before = set(sys.modules)
    sys.path.insert(0, str(folder))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(folder))
        for key in set(sys.modules) - before:
            if Path(getattr(sys.modules[key], "__file__", None) or "").parent == folder:
                del sys.modules[key]
    return module


def random_discrete_dataset(rng: np.random.Generator, names, n_rows: int,
                            n_levels: int = 3) -> Dataset:
    cols = {}
    for name in names:
        codes = rng.integers(0, n_levels, size=n_rows)
        levels = tuple("abcd"[:n_levels])
        cols[name] = CategoricalColumn(levels, codes)
    return Dataset(tuple(names), cols)


def random_gaussian_dataset(rng: np.random.Generator, names, n_rows: int) -> Dataset:
    cols = {name: NumericColumn(rng.standard_normal(n_rows)) for name in names}
    return Dataset(tuple(names), cols)


def random_table(rng: np.random.Generator, max_dim: int = 4):
    """Random contingency counts (R, C, L) with every stratum populated."""
    from bnsl import ContingencyTable

    r = int(rng.integers(2, max_dim + 1))
    c = int(rng.integers(2, max_dim + 1))
    L = int(rng.integers(1, max_dim + 1))
    counts = rng.integers(0, 30, size=(r, c, L))
    # keep every stratum observed so L matches its definition
    for k in range(L):
        if counts[:, :, k].sum() == 0:
            counts[0, 0, k] = 1
    return ContingencyTable(counts.astype(np.int64), r, c, L, int(counts.sum()))


def random_priors(rng: np.random.Generator, nodes, p_white: float = 0.1,
                  p_black: float = 0.2) -> PriorKnowledge:
    """Random whitelist and blacklist rows over nodes whose forced arcs are acyclic."""
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    while True:
        wl = [pair for pair in pairs if rng.random() < p_white]
        bl = [pair for pair in pairs if rng.random() < p_black]
        priors = PriorKnowledge(whitelist=wl, blacklist=bl)
        try:
            normalize_priors(priors, nodes)
        except PriorError:
            continue
        return priors


def prior_violations(g: Graph, cons, ambiguous=()) -> list[str]:
    """Ways in which a learned graph breaks normalized priors (none when it keeps them).

    Every forced arc and required edge must be present and no forbidden
    orientation may appear. A pair with a forbidden orientation may stay
    undirected only when its one allowed orientation is illegal in g: it
    closes a directed cycle, or direction propagation reported the pair as
    ambiguous.
    """
    found = []
    directed = g.directed_arcs
    for u, v in sorted(cons.forced_arcs):
        if (u, v) not in directed:
            found.append(f"forced arc {u} -> {v} missing")
    for a, b in sorted(cons.required_edges):
        if not g.adjacent(a, b):
            found.append(f"required edge {a} - {b} missing")
    for u, v in sorted(directed):
        if not cons.arc_allowed(u, v):
            found.append(f"forbidden arc {u} -> {v} present")
    for a, b in sorted(g.undirected_arcs):
        allowed = [arc for arc in ((a, b), (b, a)) if cons.arc_allowed(*arc)]
        if len(allowed) == 2:
            continue
        if len(allowed) == 1:
            if (a, b) in ambiguous or (b, a) in ambiguous:
                continue
            try:
                Graph(g.nodes, directed | set(allowed))
            except CycleError:
                continue
        found.append(f"pair {a} - {b} with a forbidden orientation left undirected")
    return found
