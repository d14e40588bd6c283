"""Constraint-based structure learning.

The pipeline follows the usual three stages: per-node Markov blanket (or
parent-children) discovery driven by conditional independence tests, a
neighbourhood refinement pass that turns blankets into a skeleton while
recording separating sets, then v-structure orientation and direction
propagation. Whitelists and blacklists constrain every stage and are
enforced on the final graph. Backtracking (the optimized mode) seeds each
node's search with the decisions already made for earlier nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .data import Dataset, DataError, _check_integer, joint_config_codes
from .graph import CycleError, Graph, Provenance, _pair, propagate_directions
from .independence import TEST_LABELS, TestError, _resolve_test, ci_test
from .priors import Constraints, PriorKnowledge, normalize_priors
from .trace import LearnTrace

ALGORITHMS = ("gs", "iamb", "fast-iamb", "inter-iamb", "mmpc")

ALGORITHM_NAMES = {
    "gs": "Grow-Shrink",
    "iamb": "Incremental Association",
    "fast-iamb": "Fast Incremental Association",
    "inter-iamb": "Interleaved Incremental Association",
    "mmpc": "Max-Min Parents and Children",
    "hc": "Hill-Climbing",
}

_RULE = "----------------------------------------------------------------"


@dataclass
class LearnConfig:
    """Options shared by the constraint-based learners."""

    algorithm: str = "gs"
    test: str | None = None
    alpha: float = 0.05
    B: int | None = None
    priors: PriorKnowledge | None = None
    optimized: bool = True
    parallelism: int = 1  # only 1 is accepted; kept for callers that still pass it
    debug: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise TestError(f"unknown algorithm {self.algorithm!r}")
        if not 0.0 < self.alpha < 1.0:
            raise TestError("alpha must lie strictly between 0 and 1")
        if self.test is not None and self.test not in TEST_LABELS:
            raise TestError(f"unknown test label {self.test!r}")
        if self.B is not None:
            _check_integer("B", self.B, 1, TestError)
        _check_integer("seed", self.seed, 0, TestError)
        if self.parallelism != 1:
            raise TestError("parallelism must be 1: the thread pool was removed")


def _data_pvalue(d: Dataset, cfg: LearnConfig, label: str, order: dict[str, int]):
    """The default pvalue(x, y, z): the test `label` on the data.

    Monte Carlo seeds are a pure function of the tested variables' places in
    `order`, so a recorded test replays to the identical p-value.
    """

    def pvalue(x: str, y: str, z: tuple[str, ...]) -> float:
        seed = 0  # read by the mc-* labels only
        if label.startswith("mc-"):
            seed = np.random.SeedSequence(
                [cfg.seed, order[x], order[y]] + [order[c] for c in z])
        return ci_test(d, x, y, z, test=label, B=cfg.B, seed=seed).p_value

    return pvalue


class _CITester:
    """The learners' one way to a test: sorts z, answers repeats, records events.

    It carries the run's state: its trace, alpha, test label and column order.
    pvalue(x, y, z) is called with z sorted in data-column order, at most
    once per ordered (x, y, z) in a run; the default runs the configured
    test on the data. Every call is recorded as a test event, repeats too.
    """

    def __init__(self, d: Dataset, cfg: LearnConfig, trace: LearnTrace, pvalue=None):
        self.trace = trace
        self.alpha = cfg.alpha
        self.label = _resolve_test(d, cfg.test)
        self.order = {name: i for i, name in enumerate(d.names)}
        self.pvalue = pvalue or _data_pvalue(d, cfg, self.label, self.order)
        # the key keeps x and y in order: an mc-* seed depends on it
        self.memo: dict[tuple, float] = {}
        self.computed = 0
        self.hits = 0

    def __call__(self, x: str, y: str, z, note: str = "") -> float:
        z = tuple(sorted(z, key=self.order.__getitem__))
        key = (x, y, z)
        p = self.memo.get(key)
        if p is None:
            p = self.memo[key] = self.pvalue(x, y, z)
            self.computed += 1
        else:
            self.hits += 1
        self.trace.test(x, y, z, p, note)
        return p


def _subsets(pool):
    """Every subset of pool as a tuple, in increasing size."""
    for size in range(len(pool) + 1):
        yield from combinations(pool, size)


# -- Markov blanket discovery -------------------------------------------------------

def _fmt(names) -> str:
    return f"' {' '.join(names)} '"


def _shrink(target, blanket, skip_once, known_good, tester):
    """Remove blanket members independent of the target given the rest."""
    trace = tester.trace
    skip = set(skip_once)
    changed = True
    while changed:
        changed = False
        for v in sorted(blanket, key=tester.order.__getitem__):
            if v in known_good or v in skip:
                continue
            rest = tuple(w for w in blanket if w != v)
            if trace.debug:
                trace.say(f"  * checking node {v} for exclusion (shrinking phase).")
            p = tester(target, v, rest, note="shrink")
            removed = p > tester.alpha
            if removed:
                blanket.discard(v)
                changed = True
                skip.clear()  # conditioning sets changed, retest everything
            if trace.debug:
                trace.say(f"    > node {v} {'removed from' if removed else 'remains in'} "
                          f"the markov blanket. ( p-value: {p:g} )")
    return blanket


def _grow_gs(target, candidates, blanket, tester):
    """Cyclic sweeps, adding any candidate dependent given the current blanket."""
    trace = tester.trace
    queue = list(candidates)
    fails = 0
    last_added = None
    while queue and fails < len(queue):
        v = queue.pop(0)
        if trace.debug:
            trace.say(f"  * checking node {v} for inclusion.")
        p = tester(target, v, tuple(blanket), note="grow")
        if p <= tester.alpha:
            blanket.append(v)
            last_added = v
            fails = 0
            if trace.debug:
                trace.say(f"    > node {v} included in the markov blanket "
                          f"( p-value: {p:g} ).")
                trace.say(f"    > markov blanket now is {_fmt(blanket)}.")
        else:
            queue.append(v)
            fails += 1
            if trace.debug:
                trace.say(f"    > {target} indep. {v} given {_fmt(blanket)} "
                          f"( p-value: {p:g} ).")
    return blanket, last_added


def _speculative_ok(d: Dataset, target: str, cand: str, blanket, order) -> bool:
    # the fast-iamb reliability heuristic: five data points per parameter
    if d.discrete:
        r = len(d.levels(target))
        c = len(d.levels(cand))
        # sorted as the tester sorts z, so both read one cached set of codes
        _, L = joint_config_codes(d, sorted(blanket, key=order.__getitem__))
        return d.n >= 5 * (r - 1) * (c - 1) * L
    return d.n >= 5 * (len(blanket) + 2)


def _grow_ranked(target, candidates, blanket, tester, d, algorithm, known_good):
    """IAMB-family forward selection: rank every candidate, add the most dependent.

    fast-iamb adds a speculative batch from each ranking instead of one
    candidate, and inter-iamb shrinks the blanket after each addition.
    Candidates found independent in one ranking stay eligible for the next,
    which conditions on the grown blanket. The candidates left are the
    candidates minus the blanket, and the tester answers a repeat from its
    memo, so the next ranking depends on the blanket alone: inter-iamb stops
    once a shrink leaves a blanket that an earlier shrink left, where it
    would otherwise cycle for ever.
    """
    trace = tester.trace
    batch = algorithm == "fast-iamb"
    remaining = list(candidates)
    last_added = None
    shrunk = set()  # the blankets inter-iamb's shrinks have left
    while remaining:
        scored = [(tester(target, v, tuple(blanket), note="grow"), tester.order[v], v)
                  for v in remaining]
        dependent = sorted(s for s in scored if s[0] <= tester.alpha)
        if not dependent:
            if not batch and trace.debug:
                trace.say(f"    > no candidate is dependent on {target} given "
                          f"{_fmt(blanket)}.")
            break
        for i, (p, _, v) in enumerate(dependent if batch else dependent[:1]):
            if i > 0 and not _speculative_ok(d, target, v, blanket, tester.order):
                if trace.debug:
                    trace.say(f"    > stopping the speculative batch before {v} "
                              "(not enough data per parameter).")
                break
            blanket.append(v)
            remaining.remove(v)
            last_added = v
            if trace.debug:
                trace.say(f"    > node {v} included in the markov blanket "
                          f"( p-value: {p:g} ).")
        if not batch and trace.debug:
            trace.say(f"    > markov blanket now is {_fmt(blanket)}.")
        if algorithm == "inter-iamb":
            kept = set(blanket)
            _shrink(target, kept, {v}, known_good, tester)
            removed = [w for w in blanket if w not in kept]
            if removed:
                blanket[:] = [w for w in blanket if w in kept]
                remaining += removed
                last_added = None
            if frozenset(kept) in shrunk:
                if trace.debug:
                    trace.say(f"    > markov blanket {_fmt(blanket)} seen before; "
                              "stopping the growing phase.")
                break
            shrunk.add(frozenset(kept))
    return blanket, last_added


def learn_markov_blanket(target: str, d: Dataset, cfg: LearnConfig,
                         known_good=frozenset(), known_bad=frozenset(),
                         tester: _CITester | None = None) -> set[str]:
    """Markov blanket of the target via the configured gs/iamb-family algorithm."""
    if target not in d.names:
        raise DataError(f"unknown column {target!r}")
    known_good = set(known_good)
    known_bad = set(known_bad) - known_good
    tester = tester or _CITester(d, cfg, LearnTrace(cfg.debug))
    trace, order = tester.trace, tester.order
    blanket = [v for v in d.names if v in known_good]
    candidates = [v for v in d.names
                  if v != target and v not in known_good and v not in known_bad]
    if known_good and trace.debug:
        trace.say(f"    * known good (backtracking): {_fmt(sorted(known_good, key=order.__getitem__))}.")
    if known_bad and trace.debug:
        trace.say(f"    * known bad (backtracking): {_fmt(sorted(known_bad, key=order.__getitem__))}.")
        trace.say(f"    * nodes still to be tested for inclusion: {_fmt(candidates)}.")

    if cfg.algorithm == "gs":
        blanket, last = _grow_gs(target, candidates, blanket, tester)
    elif cfg.algorithm in ("iamb", "fast-iamb", "inter-iamb"):
        blanket, last = _grow_ranked(target, candidates, blanket, tester, d,
                                     cfg.algorithm, known_good)
    else:
        raise TestError(f"{cfg.algorithm!r} does not learn Markov blankets")
    result = set(blanket)
    skip_once = {last} if last is not None else set()
    _shrink(target, result, skip_once, known_good, tester)
    return result


def _max_min_pc(target: str, d: Dataset, known_good, known_bad, tester: _CITester,
                cons: Constraints | None = None) -> set[str]:
    """Parent-children set of the target by max-min association."""
    trace, order, alpha = tester.trace, tester.order, tester.alpha
    known_good = set(known_good)
    cpc = [v for v in d.names if v in known_good]
    candidates = [v for v in d.names
                  if v != target and v not in known_good and v not in known_bad
                  and (cons is None or cons.edge_allowed(target, v))]
    maxp = dict.fromkeys(candidates, 0.0)

    def prune(base, extra):
        # drop candidates separated from the target by extra plus a subset of base
        for v in list(candidates):
            for sub in _subsets(base):
                p = tester(target, v, sub + extra, note="mmpc-forward")
                maxp[v] = max(maxp[v], p)
                if p > alpha:
                    candidates.remove(v)
                    break

    prune([], ())
    for m in list(cpc):
        prune([w for w in cpc if w != m], (m,))
    while candidates:
        v = min(candidates, key=lambda c: (maxp[c], order[c]))
        cpc.append(v)
        candidates.remove(v)
        if trace.debug:
            trace.say(f"    > node {v} added to the parent-children set of {target} "
                      f"( max p-value: {maxp[v]:g} ).")
        prune([w for w in cpc if w != v], (v,))

    # backward: drop members separated by some subset of the rest
    for v in [m for m in cpc if m not in known_good]:
        for sub in _subsets([m for m in cpc if m != v]):
            p = tester(target, v, sub, note="mmpc-backward")
            if p > alpha:
                cpc.remove(v)
                if trace.debug:
                    trace.say(f"    > node {v} removed from the parent-children set of "
                              f"{target} ( p-value: {p:g} ).")
                break
    return set(cpc)


def symmetry_correction(blankets: dict[str, set[str]]) -> dict[str, set[str]]:
    """AND-rule symmetrization: keep y in mb(x) only when x is in mb(y)."""
    return {x: {y for y in member if x in blankets.get(y, ())}
            for x, member in blankets.items()}


def _backtrack_seeds(target, earlier, results, forced, positive=True):
    """(known good, known bad) for the target from the results of earlier nodes.

    An earlier node whose result includes the target is known good (only when
    positive), one whose result excludes it is known bad; prior-forced
    neighbours are always good.
    """
    included = {y for y in earlier if target in results[y]}
    good = set(forced) | (included if positive else set())
    return good, set(earlier) - included - good


# -- neighbourhood refinement ----------------------------------------------------------

def neighbourhood_from_mb(x: str, blankets: dict[str, set[str]], d: Dataset,
                          cfg: LearnConfig, tester: _CITester | None = None,
                          known_good=frozenset(), known_bad=frozenset(),
                          excluded=frozenset()):
    """Split mb(x) into true neighbours and separated nodes with their d-separating sets.

    For each candidate y the search runs over all subsets of the smaller of
    mb(x) - y and mb(y) - x, in increasing size; the first separating subset
    found is recorded.
    """
    tester = tester or _CITester(d, cfg, LearnTrace(cfg.debug))
    trace, order = tester.trace, tester.order
    for v in (x, *sorted(blankets.get(x, ()))):
        if v not in blankets or v not in order:
            raise DataError(f"node {v!r} has no Markov blanket over the data's columns")
    neighbours: list[str] = []
    dseps: dict[str, tuple[str, ...]] = {}
    members = sorted(blankets[x], key=order.__getitem__)
    if trace.debug:
        trace.say(f"  * starting with neighbourhood: {_fmt(members)}")
    for y in members:
        if y in excluded:
            continue
        if y in known_good:
            neighbours.append(y)
            continue
        if y in known_bad:
            continue
        pool_x = [w for w in members if w != y]
        pool_y = sorted(blankets[y] - {x}, key=order.__getitem__)
        pool = pool_y if len(pool_y) <= len(pool_x) else pool_x
        if trace.debug:
            trace.say(f"  * checking node {y} for neighbourhood.")
            trace.say(f"    > dsep.set = {_fmt(pool)}")
        for sub in _subsets(pool):
            if trace.debug:
                trace.say(f"    > trying conditioning subset {_fmt(sub)}.")
            p = tester(x, y, sub, note="neighbourhood")
            separated = p > tester.alpha
            if trace.debug:
                trace.say(f"    > node {y} is {'not' if separated else 'still'} a neighbour "
                          f"of {x} . ( p-value: {p:g} )")
            if separated:
                dseps[y] = sub
                break
        else:
            neighbours.append(y)
    return set(neighbours), dseps


# -- v-structures ------------------------------------------------------------------------

def _detect_vstructures(names, adjacency, dseps, tester):
    trace = tester.trace
    detected = []
    for center in names:
        if trace.debug:
            trace.say(_RULE)
            trace.say(f"* v-structures centered on {center} .")
        for x, y in combinations(sorted(adjacency[center]), 2):
            if y in adjacency[x]:
                continue
            pair = _pair(x, y)
            if pair not in dseps:
                continue
            sep = dseps[pair]
            if center in sep:
                continue
            if trace.debug:
                trace.say(f"  * checking {x} -> {center} <- {y}")
                trace.say(f"    > chosen d-separating set: {_fmt(sep)}")
            p = tester(x, y, tuple(sep) + (center,), note="vstructure")
            if trace.debug:
                trace.say(f"    > testing {x} vs {y} given "
                          f"{' '.join(tuple(sep) + (center,))} ( {p:g} )")
            if p <= tester.alpha:
                detected.append((p, x, center, y))
                trace.add("vstructure", x, y, (center,), p, note="detected")
                if trace.debug:
                    trace.say(f"    @ detected v-structure {x} -> {center} <- {y}")
    return sorted(detected)


def _vstructure_conflict(nodes, directed, x, center, y, cons) -> str | None:
    """Why x -> center <- y cannot join the directed arcs, or None when it can."""
    arcs = {(x, center), (y, center)}
    if (center, x) in directed or (center, y) in directed:
        return "would overwrite an existing orientation"
    if cons is not None and not all(cons.arc_allowed(a, b) for a, b in arcs):
        return "conflicts with the priors"
    try:
        Graph(nodes, directed | arcs)
    except CycleError:
        return "the resulting graph contains cycles"
    return None


def orient_vstructures(skeleton: Graph, dsep_sets: dict, d: Dataset,
                       cfg: LearnConfig, tester: _CITester | None = None,
                       cons: Constraints | None = None) -> Graph:
    """Detect and apply v-structures on an undirected skeleton.

    Conflicting candidates are applied in increasing p-value order; a
    candidate that would overwrite an existing orientation, close a directed
    cycle or violate the priors is skipped.
    """
    tester = tester or _CITester(d, cfg, LearnTrace(cfg.debug))
    trace = tester.trace
    adjacency = {n: set(skeleton.nbr(n)) for n in skeleton.nodes}
    dseps = {_pair(a, b): tuple(s) for (a, b), s in dsep_sets.items()}
    detected = _detect_vstructures(skeleton.nodes, adjacency, dseps, tester)
    directed = set(skeleton.directed_arcs)
    undirected = set(skeleton.undirected_arcs)
    for p, x, center, y in detected:
        reason = _vstructure_conflict(skeleton.nodes, directed, x, center, y, cons)
        if reason is not None:
            if trace.debug:
                trace.say(f"* not applying v-structure {x} -> {center} <- {y} ({reason})")
            continue
        directed |= {(x, center), (y, center)}
        undirected -= {_pair(x, center), _pair(y, center)}
        trace.add("vstructure", x, y, (center,), p, note="applied")
        if trace.debug:
            trace.say(f"* applying v-structure {x} -> {center} <- {y} ( {p:e} )")
    return Graph(skeleton.nodes, directed, undirected, skeleton.provenance)


# -- full pipeline --------------------------------------------------------------------------

def _consistent(sets, forced_adj, trace, what) -> dict[str, set[str]]:
    """AND-rule symmetrization, then the prior-forced adjacency, which always survives."""
    if trace.debug:
        trace.say(_RULE)
        trace.say(f"* checking consistency of {what}.")
    sets = symmetry_correction(sets)
    for x in sets:
        sets[x] |= forced_adj[x]
    return sets


def constraint_learn(d: Dataset, cfg: LearnConfig,
                     pvalue=None) -> tuple[Graph, LearnTrace]:
    """Run the configured constraint-based algorithm end to end.

    pvalue(x, y, z) -> float, when given, answers every independence test
    in place of cfg's test on the data (a d-separation oracle, say); z
    arrives sorted in data-column order.
    """
    cons = normalize_priors(cfg.priors, d.names)
    trace = LearnTrace(cfg.debug)
    tester = _CITester(d, cfg, trace, pvalue)
    names = d.names
    order = tester.order
    forced_adj = cons.forced_adjacency()
    is_mmpc = cfg.algorithm == "mmpc"

    blankets: dict[str, set[str]] = {}
    for i, target in enumerate(names):
        if trace.debug:
            trace.say(_RULE)
            trace.say(f"* learning markov blanket of {target} .")
        # mmpc keeps its AND-check meaningful: positive seeds would let one
        # false rejection survive both directions
        kg, kb = _backtrack_seeds(target, names[:i] if cfg.optimized else (),
                                  blankets, forced_adj[target], positive=not is_mmpc)
        if cfg.optimized and (kg or kb):
            trace.add("backtrack", target,
                      note=f"good={','.join(sorted(kg))} bad={','.join(sorted(kb))}")
        if is_mmpc:
            blankets[target] = _max_min_pc(target, d, kg, kb, tester, cons)
        else:
            blankets[target] = learn_markov_blanket(target, d, cfg, kg, kb, tester)
    blankets = _consistent(blankets, forced_adj, trace, "markov blankets")

    dseps: dict[tuple[str, str], tuple[str, ...]] = {}
    nbrs = blankets
    if not is_mmpc:
        nbrs = {}
        for i, x in enumerate(names):
            if trace.debug:
                trace.say(_RULE)
                trace.say(f"* learning neighbourhood of {x} .")
            earlier = [y for y in names[:i] if y in blankets[x]] if cfg.optimized else ()
            kg, kb = _backtrack_seeds(x, earlier, nbrs, forced_adj[x])
            if cfg.optimized and trace.debug:
                if kg:
                    trace.say(f"  * known good (backtracking): {_fmt(sorted(kg, key=order.__getitem__))}.")
                if kb:
                    trace.say(f"  * known bad (backtracking): {_fmt(sorted(kb, key=order.__getitem__))}.")
            excluded = {y for y in blankets[x] if not cons.edge_allowed(x, y)}
            found, newseps = neighbourhood_from_mb(x, blankets, d, cfg, tester,
                                                   kg, kb, excluded)
            nbrs[x] = found
            for y, sep in newseps.items():
                dseps.setdefault(_pair(x, y), sep)
        nbrs = _consistent(nbrs, forced_adj, trace, "neighbourhood sets")

    provenance = Provenance(
        method="constraint", algorithm=ALGORITHM_NAMES[cfg.algorithm],
        test=tester.label, alpha=cfg.alpha, optimized=cfg.optimized)

    # every required edge is in the skeleton: forced adjacency joins each set
    directed: set[tuple[str, str]] = set(cons.forced_arcs)
    covered = {_pair(u, v) for u, v in directed}
    undirected = {_pair(x, y) for x in names for y in nbrs[x]} - covered
    if not is_mmpc:
        pdag = orient_vstructures(Graph(names, directed, undirected), dseps, d, cfg,
                                  tester, cons)
        directed = set(pdag.directed_arcs)
        undirected = set(pdag.undirected_arcs)

    # orient undirected arcs whose undirected form the priors exclude
    for a, b in sorted(undirected):
        allowed = [arc for arc in ((a, b), (b, a)) if cons.arc_allowed(*arc)]
        if len(allowed) != 1:
            continue
        choice = allowed[0]
        try:
            Graph(names, directed | {choice})
        except CycleError:
            if is_mmpc:  # the other learners' propagation reports the pair
                trace.add("ambiguous", a, b, note="left undirected")
            continue
        undirected.discard(_pair(a, b))
        directed.add(choice)
        trace.add("prior-orient", choice[0], choice[1])

    pdag = Graph(names, directed, undirected, provenance)
    if not is_mmpc:
        if trace.debug:
            trace.say(_RULE)
            trace.say("* propagating directions for the following undirected arcs:")
            for a, b in sorted(pdag.undirected_arcs):
                trace.say(f"  > {a} - {b}")
        pdag, flagged = propagate_directions(pdag, allowed=cons.arc_allowed)
        for a, b in flagged:
            trace.add("ambiguous", a, b, note="left undirected")

    final = pdag.with_provenance(replace(provenance, ntests=trace.test_counter))
    return final, trace
