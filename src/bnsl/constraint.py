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

from .data import Dataset, DataError, joint_config_codes
from .graph import CycleError, Graph, Provenance, propagate_directions
from .independence import (TEST_LABELS, TestError, _check_replicates,
                           _resolve_test, ci_test)
from .priors import Constraints, PriorKnowledge, normalize_priors, _pair
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
        if self.test is not None and self.test.startswith("mc-"):
            if self.B is None:
                self.B = 1000
            _check_replicates(self.B)
        if self.parallelism != 1:
            raise TestError("parallelism must be 1: the thread pool was removed")


class _CITester:
    """Runs the configured test, records trace events, derives MC seeds.

    Monte Carlo seeds are a pure function of the tested variables, so any
    recorded test replays to the identical p-value regardless of scheduling.
    """

    def __init__(self, d: Dataset, cfg: LearnConfig, trace: LearnTrace):
        self.d = d
        self.cfg = cfg
        self.trace = trace
        self.label = _resolve_test(d, cfg.test)
        self.order = {name: i for i, name in enumerate(d.names)}

    def sort(self, names) -> tuple[str, ...]:
        return tuple(sorted(names, key=self.order.__getitem__))

    def __call__(self, x: str, y: str, z, note: str = "") -> float:
        z = self.sort(z)
        seed = None
        if self.label.startswith("mc-"):
            seed = np.random.SeedSequence(
                [abs(int(self.cfg.seed)), self.order[x], self.order[y]]
                + [self.order[c] for c in z])
        res = ci_test(self.d, x, y, z, test=self.label, B=self.cfg.B, seed=seed)
        self.trace.test(x, y, z, res.p_value, note)
        return res.p_value


# -- Markov blanket discovery -------------------------------------------------------

def _fmt(names) -> str:
    return f"' {' '.join(names)} '"


def _shrink(target, blanket, skip_once, known_good, tester, trace, alpha, order):
    """Remove blanket members independent of the target given the rest."""
    skip = set(skip_once)
    changed = True
    while changed:
        changed = False
        for v in sorted(blanket, key=order.__getitem__):
            if v in known_good or v in skip:
                continue
            rest = tuple(w for w in blanket if w != v)
            trace.say(f"  * checking node {v} for exclusion (shrinking phase).")
            p = tester(target, v, rest, note="shrink")
            if p > alpha:
                blanket.discard(v)
                changed = True
                skip.clear()  # conditioning sets changed, retest everything
                trace.say(f"    > node {v} removed from the markov blanket. "
                          f"( p-value: {p:g} )")
            else:
                trace.say(f"    > node {v} remains in the markov blanket. "
                          f"( p-value: {p:g} )")
    return blanket


def _grow_gs(target, candidates, blanket, tester, trace, alpha):
    """Cyclic sweeps, adding any candidate dependent given the current blanket."""
    queue = list(candidates)
    fails = 0
    last_added = None
    while queue and fails < len(queue):
        v = queue.pop(0)
        trace.say(f"  * checking node {v} for inclusion.")
        p = tester(target, v, tuple(blanket), note="grow")
        if p <= alpha:
            blanket.append(v)
            last_added = v
            fails = 0
            trace.say(f"    > node {v} included in the markov blanket "
                      f"( p-value: {p:g} ).")
            trace.say(f"    > markov blanket now is {_fmt(blanket)}.")
        else:
            queue.append(v)
            fails += 1
            trace.say(f"    > {target} indep. {v} given {_fmt(blanket)} "
                      f"( p-value: {p:g} ).")
    return blanket, last_added


def _grow_iamb(target, candidates, blanket, tester, trace, alpha, order,
               interleave=False, known_good=frozenset()):
    """Forward selection by minimum p-value, optionally shrinking after each add."""
    remaining = list(candidates)
    last_added = None
    while remaining:
        scored = []
        for v in remaining:
            p = tester(target, v, tuple(blanket), note="grow")
            scored.append((p, order[v], v))
        p, _, v = min(scored)
        if p > alpha:
            trace.say(f"    > no candidate is dependent on {target} given "
                      f"{_fmt(blanket)}.")
            break
        blanket.append(v)
        remaining.remove(v)
        last_added = v
        trace.say(f"    > node {v} included in the markov blanket ( p-value: {p:g} ).")
        trace.say(f"    > markov blanket now is {_fmt(blanket)}.")
        if interleave:
            kept = set(blanket)
            _shrink(target, kept, {v}, known_good, tester, trace, alpha, order)
            removed = [w for w in blanket if w not in kept]
            for w in removed:
                blanket.remove(w)
                if w not in remaining:
                    remaining.append(w)
            if removed:
                last_added = None
    return blanket, last_added


def _speculative_ok(d: Dataset, target: str, cand: str, blanket) -> bool:
    # the fast-iamb reliability heuristic: five data points per parameter
    if d.discrete:
        r = len(d.levels(target))
        c = len(d.levels(cand))
        _, L = joint_config_codes(d, list(blanket))
        return d.n >= 5 * (r - 1) * (c - 1) * L
    return d.n >= 5 * (len(blanket) + 2)


def _grow_fast_iamb(target, candidates, blanket, tester, trace, alpha, order, d):
    """Speculative batches: rank once, then add top candidates without retesting."""
    remaining = list(candidates)
    last_added = None
    while remaining:
        scored = []
        for v in remaining:
            p = tester(target, v, tuple(blanket), note="grow")
            scored.append((p, order[v], v))
        # candidates found independent in this ranking stay eligible for the
        # next ranking, which conditions on the grown blanket
        dependent = sorted(s for s in scored if s[0] <= alpha)
        if not dependent:
            break
        added = 0
        for i, (p, _, v) in enumerate(dependent):
            if i > 0 and not _speculative_ok(d, target, v, blanket):
                trace.say(f"    > stopping the speculative batch before {v} "
                          "(not enough data per parameter).")
                break
            blanket.append(v)
            remaining.remove(v)
            last_added = v
            added += 1
            trace.say(f"    > node {v} included in the markov blanket "
                      f"( p-value: {p:g} ).")
        if added == 0:
            break
    return blanket, last_added


def learn_markov_blanket(target: str, d: Dataset, cfg: LearnConfig,
                         known_good=frozenset(), known_bad=frozenset(),
                         tester: _CITester | None = None,
                         trace: LearnTrace | None = None) -> set[str]:
    """Markov blanket of the target via the configured gs/iamb-family algorithm."""
    if target not in d.names:
        raise DataError(f"unknown column {target!r}")
    known_good = set(known_good)
    known_bad = set(known_bad) - known_good
    if trace is None:
        trace = LearnTrace(cfg.debug)
    if tester is None:
        tester = _CITester(d, cfg, trace)
    order = tester.order
    alpha = cfg.alpha
    blanket = [v for v in d.names if v in known_good]
    candidates = [v for v in d.names
                  if v != target and v not in known_good and v not in known_bad]
    if known_good:
        trace.say(f"    * known good (backtracking): {_fmt(sorted(known_good, key=order.__getitem__))}.")
    if known_bad:
        trace.say(f"    * known bad (backtracking): {_fmt(sorted(known_bad, key=order.__getitem__))}.")
        trace.say(f"    * nodes still to be tested for inclusion: {_fmt(candidates)}.")

    if cfg.algorithm == "gs":
        blanket, last = _grow_gs(target, candidates, blanket, tester, trace, alpha)
    elif cfg.algorithm == "iamb":
        blanket, last = _grow_iamb(target, candidates, blanket, tester, trace,
                                   alpha, order)
    elif cfg.algorithm == "inter-iamb":
        blanket, last = _grow_iamb(target, candidates, blanket, tester, trace,
                                   alpha, order, interleave=True,
                                   known_good=known_good)
    elif cfg.algorithm == "fast-iamb":
        blanket, last = _grow_fast_iamb(target, candidates, blanket, tester,
                                        trace, alpha, order, d)
    else:
        raise TestError(f"{cfg.algorithm!r} does not learn Markov blankets")
    result = set(blanket)
    skip_once = {last} if last is not None else set()
    _shrink(target, result, skip_once, known_good, tester, trace, alpha, order)
    return result


def _max_min_pc(target: str, d: Dataset, cfg: LearnConfig, known_good, known_bad,
                tester: _CITester, trace: LearnTrace,
                cons: Constraints | None = None) -> set[str]:
    """Parent-children set of the target by max-min association."""
    order = tester.order
    alpha = cfg.alpha
    known_good = set(known_good)
    cpc = [v for v in d.names if v in known_good]
    candidates = [v for v in d.names
                  if v != target and v not in known_good and v not in known_bad
                  and (cons is None or cons.edge_allowed(target, v))]
    maxp: dict[str, float] = {}

    for v in list(candidates):
        p = tester(target, v, (), note="mmpc-forward")
        maxp[v] = p
        if p > alpha:
            candidates.remove(v)

    def incorporate(member):
        base = [m for m in cpc if m != member]
        for v in list(candidates):
            dead = False
            for size in range(0, len(base) + 1):
                for sub in combinations(base, size):
                    p = tester(target, v, tuple(sub) + (member,), note="mmpc-forward")
                    if p > maxp[v]:
                        maxp[v] = p
                    if p > alpha:
                        dead = True
                        break
                if dead:
                    break
            if dead:
                candidates.remove(v)

    for m in list(cpc):
        incorporate(m)
    while candidates:
        v = min(candidates, key=lambda c: (maxp[c], order[c]))
        cpc.append(v)
        candidates.remove(v)
        trace.say(f"    > node {v} added to the parent-children set of {target} "
                  f"( max p-value: {maxp[v]:g} ).")
        incorporate(v)

    # backward: drop members separated by some subset of the rest
    for v in [m for m in cpc if m not in known_good]:
        pool = [m for m in cpc if m != v]
        separated = False
        for size in range(0, len(pool) + 1):
            for sub in combinations(pool, size):
                p = tester(target, v, sub, note="mmpc-backward")
                if p > alpha:
                    separated = True
                    break
            if separated:
                break
        if separated:
            cpc.remove(v)
            trace.say(f"    > node {v} removed from the parent-children set of "
                      f"{target} ( p-value: {p:g} ).")
    return set(cpc)


def symmetry_correction(blankets: dict[str, set[str]]) -> dict[str, set[str]]:
    """AND-rule symmetrization: keep y in mb(x) only when x is in mb(y)."""
    return {x: {y for y in member if x in blankets.get(y, ())}
            for x, member in blankets.items()}


# -- neighbourhood refinement ----------------------------------------------------------

def neighbourhood_from_mb(x: str, blankets: dict[str, set[str]], d: Dataset,
                          cfg: LearnConfig, tester: _CITester | None = None,
                          trace: LearnTrace | None = None,
                          known_good=frozenset(), known_bad=frozenset(),
                          excluded=frozenset()):
    """Split mb(x) into true neighbours and separated nodes with their d-separating sets.

    For each candidate y the search runs over all subsets of the smaller of
    mb(x) - y and mb(y) - x, in increasing size; the first separating subset
    found is recorded.
    """
    if trace is None:
        trace = LearnTrace(cfg.debug)
    if tester is None:
        tester = _CITester(d, cfg, trace)
    order = tester.order
    alpha = cfg.alpha
    neighbours: list[str] = []
    dseps: dict[str, tuple[str, ...]] = {}
    members = sorted(blankets[x], key=order.__getitem__)
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
        trace.say(f"  * checking node {y} for neighbourhood.")
        trace.say(f"    > dsep.set = {_fmt(pool)}")
        sep = None
        for size in range(0, len(pool) + 1):
            for sub in combinations(pool, size):
                trace.say(f"    > trying conditioning subset {_fmt(sub)}.")
                p = tester(x, y, sub, note="neighbourhood")
                if p > alpha:
                    sep = tuple(sub)
                    trace.say(f"    > node {y} is not a neighbour of {x} . "
                              f"( p-value: {p:g} )")
                    break
                trace.say(f"    > node {y} is still a neighbour of {x} . "
                          f"( p-value: {p:g} )")
            if sep is not None:
                break
        if sep is None:
            neighbours.append(y)
        else:
            dseps[y] = sep
    return set(neighbours), dseps


# -- v-structures ------------------------------------------------------------------------

def _detect_vstructures(names, adjacency, dseps, tester, trace, alpha):
    detected = []
    for center in names:
        trace.say("----------------------------------------------------------------")
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
            trace.say(f"  * checking {x} -> {center} <- {y}")
            trace.say(f"    > chosen d-separating set: {_fmt(sep)}")
            p = tester(x, y, tuple(sep) + (center,), note="vstructure")
            trace.say(f"    > testing {x} vs {y} given {' '.join(tuple(sep) + (center,))} ( {p:g} )")
            if p <= alpha:
                detected.append((p, x, center, y))
                trace.add("vstructure", x, y, (center,), p, note="detected")
                trace.say(f"    @ detected v-structure {x} -> {center} <- {y}")
    return sorted(detected)


def orient_vstructures(skeleton: Graph, dsep_sets: dict, d: Dataset,
                       cfg: LearnConfig, tester: _CITester | None = None,
                       trace: LearnTrace | None = None,
                       cons: Constraints | None = None) -> Graph:
    """Detect and apply v-structures on an undirected skeleton.

    Conflicting candidates are applied in increasing p-value order; a
    candidate that would overwrite an existing orientation, close a directed
    cycle or violate the priors is skipped.
    """
    if trace is None:
        trace = LearnTrace(cfg.debug)
    if tester is None:
        tester = _CITester(d, cfg, trace)
    adjacency = {n: set(skeleton.nbr(n)) for n in skeleton.nodes}
    dseps = {_pair(a, b): tuple(s) for (a, b), s in dsep_sets.items()}
    detected = _detect_vstructures(skeleton.nodes, adjacency, dseps, tester,
                                   trace, cfg.alpha)
    directed = set(skeleton.directed_arcs)
    undirected = set(skeleton.undirected_arcs)
    for p, x, center, y in detected:
        arcs = [(x, center), (y, center)]
        if any((center, a) in directed for a, _ in arcs):
            trace.say(f"* not applying v-structure {x} -> {center} <- {y} "
                      f"(would overwrite an existing orientation)")
            continue
        if cons is not None and not all(cons.arc_allowed(a, b) for a, b in arcs):
            trace.say(f"* not applying v-structure {x} -> {center} <- {y} "
                      f"(conflicts with the priors)")
            continue
        trial = directed | set(arcs)
        try:
            Graph(skeleton.nodes, trial)
        except CycleError:
            trace.say(f"* not applying v-structure {x} -> {center} <- {y} "
                      f"(the resulting graph contains cycles)")
            continue
        directed = trial
        undirected.discard(_pair(x, center))
        undirected.discard(_pair(y, center))
        trace.add("vstructure", x, y, (center,), p, note="applied")
        trace.say(f"* applying v-structure {x} -> {center} <- {y} ( {p:e} )")
    return Graph(skeleton.nodes, directed, undirected, skeleton.provenance)


# -- full pipeline --------------------------------------------------------------------------

def constraint_learn(d: Dataset, cfg: LearnConfig) -> tuple[Graph, LearnTrace]:
    """Run the configured constraint-based algorithm end to end."""
    cons = normalize_priors(cfg.priors, d.names)
    trace = LearnTrace(cfg.debug)
    tester = _CITester(d, cfg, trace)
    names = d.names
    order = tester.order
    forced_adj = cons.forced_adjacency()
    is_mmpc = cfg.algorithm == "mmpc"

    blankets: dict[str, set[str]] = {}
    for i, target in enumerate(names):
        trace.say("----------------------------------------------------------------")
        trace.say(f"* learning markov blanket of {target} .")
        kg = set(forced_adj[target])
        kb: set[str] = set()
        if cfg.optimized:
            for y in names[:i]:
                if target in blankets[y]:
                    # mmpc keeps its AND-check meaningful: positive seeds
                    # would let one false rejection survive both directions
                    if not is_mmpc:
                        kg.add(y)
                else:
                    kb.add(y)
            kb -= kg
            if kg or kb:
                trace.add("backtrack", target,
                          note=f"good={','.join(sorted(kg))} bad={','.join(sorted(kb))}")
        if is_mmpc:
            blankets[target] = _max_min_pc(target, d, cfg, kg, kb, tester, trace, cons)
        else:
            blankets[target] = learn_markov_blanket(target, d, cfg, kg, kb, tester, trace)

    trace.say("----------------------------------------------------------------")
    trace.say("* checking consistency of markov blankets.")
    blankets = symmetry_correction(blankets)
    for x in names:  # prior-forced adjacency always survives
        blankets[x] |= forced_adj[x]

    if is_mmpc:
        skeleton_pairs = {_pair(x, y) for x in names for y in blankets[x]}
        dseps: dict[tuple[str, str], tuple[str, ...]] = {}
        nbrs = blankets
    else:
        nbrs = {}
        dseps = {}
        for i, x in enumerate(names):
            trace.say("----------------------------------------------------------------")
            trace.say(f"* learning neighbourhood of {x} .")
            kg = set(forced_adj[x])
            kb: set[str] = set()
            if cfg.optimized:
                for y in names[:i]:
                    if y in blankets[x]:
                        if x in nbrs[y]:
                            kg.add(y)
                        else:
                            kb.add(y)
                kb -= kg
                if kg:
                    trace.say(f"  * known good (backtracking): {_fmt(sorted(kg, key=order.__getitem__))}.")
                if kb:
                    trace.say(f"  * known bad (backtracking): {_fmt(sorted(kb, key=order.__getitem__))}.")
            excluded = {y for y in blankets[x] if not cons.edge_allowed(x, y)}
            found, newseps = neighbourhood_from_mb(x, blankets, d, cfg, tester,
                                                   trace, kg, kb, excluded)
            nbrs[x] = found
            for y, sep in newseps.items():
                dseps.setdefault(_pair(x, y), sep)
        trace.say("----------------------------------------------------------------")
        trace.say("* checking consistency of neighbourhood sets.")
        nbrs = symmetry_correction(nbrs)
        for x in names:
            nbrs[x] |= forced_adj[x]
        skeleton_pairs = {_pair(x, y) for x in names for y in nbrs[x]}

    provenance = Provenance(
        method="constraint", algorithm=ALGORITHM_NAMES[cfg.algorithm],
        test=tester.label, alpha=cfg.alpha, optimized=cfg.optimized)

    directed: set[tuple[str, str]] = set(cons.forced_arcs)
    covered = {_pair(u, v) for u, v in directed}
    undirected = set()

    if not is_mmpc:
        skeleton = Graph(names, directed,
                         [p for p in skeleton_pairs if p not in covered])
        pdag = orient_vstructures(skeleton, dseps, d, cfg, tester, trace, cons)
        directed = set(pdag.directed_arcs)
        undirected = set(pdag.undirected_arcs)
    else:
        undirected = {p for p in skeleton_pairs if p not in covered}

    # required edges are guaranteed present even if the tests missed them
    for a, b in cons.required_edges:
        if _pair(a, b) not in covered and (a, b) not in directed \
                and (b, a) not in directed and _pair(a, b) not in undirected:
            undirected.add(_pair(a, b))

    # orient undirected arcs whose undirected form the priors exclude
    for a, b in sorted(undirected):
        if cons.undirected_allowed(a, b):
            continue
        choice = None
        if cons.arc_allowed(a, b) and not cons.arc_allowed(b, a):
            choice = (a, b)
        elif cons.arc_allowed(b, a) and not cons.arc_allowed(a, b):
            choice = (b, a)
        if choice is None:
            continue
        try:
            Graph(names, directed | {choice})
        except CycleError:
            continue
        undirected.discard(_pair(a, b))
        directed.add(choice)
        trace.add("prior-orient", choice[0], choice[1])

    # final blacklist sweep
    directed = {(u, v) for u, v in directed if cons.arc_allowed(u, v)}
    undirected = {p for p in undirected if cons.edge_allowed(*p)}

    pdag = Graph(names, directed, undirected, provenance)
    if not is_mmpc:
        trace.say("----------------------------------------------------------------")
        trace.say("* propagating directions for the following undirected arcs:")
        for a, b in sorted(pdag.undirected_arcs):
            trace.say(f"  > {a} - {b}")
        pdag, flagged = propagate_directions(pdag, allowed=cons.arc_allowed)
        for a, b in flagged:
            trace.add("ambiguous", a, b, note="left undirected")

    final = pdag.with_provenance(replace(provenance, ntests=trace.test_counter))
    return final, trace
