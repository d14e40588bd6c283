"""The benchmark's workloads: inputs made from the seed, the timed calls, output checks.

Each workload is one fixed network and fixed samples of it. The seed sets
the order of every sample's rows and the Monte Carlo tests' seeds, so a
different seed gives different input data (and different CSV files) while
the work stays the same. Every call
goes through bnsl's public names, looked up when the call is made, so the
traced run's wrappers see it.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bnsl
from bnsl.data import LinearGaussian
from bnsl.networks import alarm_fitted

from cpdag import cpdag, shd
from speed import Speedometer

ALPHA = 0.05
MC_REPLICATES = 1000
ALARM_PARAMETERS = 1  # alarm_fitted seed of the one ALARM parameter set
GAUSS40_NETWORK = 1  # seed of the one 40-node linear-Gaussian network
SAMPLES = 1  # seed of the fixed samples, of the hill-climbing start and of the MC triples
GAUSS40_NODES = 40
MC_TWIN = {"mc-mi": "mi", "mc-x2": "x2", "mc-cor": "cor", "mc-zf": "zf",
           "mc-mi-g": "mi-g"}
SIGNED_TWINS = ("cor", "zf")  # the permutation statistic is the twin's magnitude

# rows per sample and samples per pass; see README.md for why these sizes
SIZES = {
    "alarm-ci": {"n": 5000, "samples": 2},
    "alarm-hc": {"n": 5000, "samples": 1},
    "gauss40": {"n": 2000},
    "mc-tests": {"n": 2000, "draws": 2},
}
WORKLOADS = tuple(SIZES)


def _subseed(*words: int) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


def gauss40_network() -> bnsl.FittedNetwork:
    """Random linear-Gaussian DAG with about one arc per node, drawn from GAUSS40_NETWORK.

    Coefficients are +-U(0.5, 1.5), residual sd U(0.5, 1); the topological
    order is a random permutation of the labels.
    """
    p = GAUSS40_NODES
    rng = np.random.default_rng(GAUSS40_NETWORK)
    names = [f"G{i:02d}" for i in range(p)]
    order = [names[i] for i in rng.permutation(p)]
    arcs = [(order[a], order[b]) for a in range(p) for b in range(a + 1, p)
            if rng.random() < 2.0 / (p - 1)]
    graph = bnsl.Graph(names, arcs)
    local = {}
    for v in names:
        parents = tuple(sorted(graph.parents(v)))
        coef = rng.uniform(0.5, 1.5, len(parents)) * rng.choice([-1.0, 1.0], len(parents))
        local[v] = LinearGaussian(parents, 0.0, coef, float(rng.uniform(0.5, 1.0)))
    return bnsl.FittedNetwork(graph, local)


@dataclass
class Sample:
    data: bnsl.Dataset  # as generated; alarm learners get what load_table returns
    digest: str
    truth: tuple  # reference CPDAG: (directed arcs, undirected pairs)
    csv: str | None = None


@dataclass
class Inputs:
    samples: list[Sample]
    tests: list[tuple] = field(default_factory=list)  # (label, sample index, x, y, z, seed)

    @property
    def digests(self) -> list[str]:
        return [s.digest for s in self.samples]


def _data_digest(d: bnsl.Dataset) -> str:
    h = hashlib.sha256(repr(d.names).encode())
    for name in d.names:
        if d.discrete:
            h.update(repr(d.levels(name)).encode())
            h.update(np.ascontiguousarray(d.codes(name)).tobytes())
        else:
            h.update(np.ascontiguousarray(d.values(name)).tobytes())
    return h.hexdigest()


def _sample(net: bnsl.FittedNetwork, n: int, k: int, seed: int, csv: Path | None,
            truth) -> Sample:
    """Fixed sample ``k`` of ``net``, its rows in an order drawn from ``seed``.

    Rows, not samples, vary with the seed: a fresh sample per seed moved the
    work of a pass (test and move-evaluation counts) by up to 7% on ALARM
    and 12% on the Gaussian network, more than the timings can absorb.
    """
    d = bnsl.forward_sample(net, n, _subseed(SAMPLES, k))
    rows = np.random.default_rng(_subseed(seed, k)).permutation(d.n)
    if d.discrete:
        d = bnsl.Dataset.from_codes(d.names, {c: d.levels(c) for c in d.names},
                                    {c: d.codes(c)[rows] for c in d.names})
    else:
        d = bnsl.Dataset.from_values(d.names, {c: d.values(c)[rows] for c in d.names})
    path = None
    if csv is not None:
        path = str(csv)
        bnsl.write_table(d, path)
    return Sample(d, _data_digest(d), truth, path)


def _truth(net: bnsl.FittedNetwork):
    return cpdag(net.graph.nodes, net.graph.directed_arcs)


def make_inputs(workload: str, seed: int, workdir: Path) -> Inputs:
    """Everything a workload needs before the timed section (the set-up)."""
    size = SIZES[workload]
    if workload in ("alarm-ci", "alarm-hc"):
        net = alarm_fitted(ALARM_PARAMETERS)
        truth = _truth(net)
        return Inputs([_sample(net, size["n"], k, seed, workdir / f"alarm{k}.csv", truth)
                       for k in range(size["samples"])])
    if workload == "gauss40":
        net = gauss40_network()
        return Inputs([_sample(net, size["n"], 0, seed, None, _truth(net))])
    if workload == "mc-tests":
        alarm = alarm_fitted(ALARM_PARAMETERS)
        gauss = gauss40_network()
        samples = [_sample(alarm, size["n"], 0, seed, None, _truth(alarm)),
                   _sample(gauss, size["n"], 1, seed, None, _truth(gauss))]
        # fixed triples: which variables a test conditions on sets its cost
        rng = np.random.default_rng(_subseed(SAMPLES, 2))
        tests = []
        for label in MC_TWIN:
            k = 0 if label in bnsl.DISCRETE_TESTS else 1
            names = samples[k].data.names
            order = {name: i for i, name in enumerate(names)}
            for zsize in range(4):
                for _ in range(size["draws"]):
                    picked = [names[i] for i in rng.choice(len(names), 2 + zsize,
                                                          replace=False)]
                    x, y = picked[:2]
                    z = tuple(sorted(picked[2:], key=order.__getitem__))
                    # the test's seed is a function of its triple, as in constraint._CITester
                    test_seed = np.random.SeedSequence(
                        [seed, order[x], order[y]] + [order[c] for c in z])
                    tests.append((label, k, x, y, z, test_seed))
        return Inputs(samples, tests)
    raise ValueError(f"unknown workload {workload!r}")


# -- the timed section --------------------------------------------------------------

@dataclass
class Op:
    """One timed call and what the checks need from its output."""

    label: str  # load_table, gs, mmpc, hc-bic, hc-bde, hc-bge or an mc-* label
    sample: int
    seconds: float = 0.0
    error: str | None = None
    data: bnsl.Dataset | None = None  # the dataset the call used
    graph: bnsl.Graph | None = None
    config: object = None
    result: bnsl.TestResult | None = None
    test: tuple | None = None
    ntests: int = 0  # provenance.ntests of a learned graph
    test_events: int = 0
    distinct_tests: int = 0
    moves: int = 0
    events: int = 0
    shd: int = 0

    @property
    def kind(self) -> str:
        """load, constraint, score (hill-climbing) or mc."""
        if self.label == "load_table":
            return "load"
        if self.label.startswith("hc-"):
            return "score"
        return "mc" if self.label.startswith("mc-") else "constraint"

    def digest(self) -> str:
        """What must repeat exactly across passes and between traced and untraced runs."""
        if self.error is not None:
            return f"error {self.error}"
        if self.kind == "load":
            return _data_digest(self.data)
        if self.kind == "mc":
            return f"{self.result.p_value!r} {self.result.statistic!r}"
        g = self.graph
        return repr((sorted(g.directed_arcs), sorted(g.undirected_arcs), self.ntests))


def _fresh(d: bnsl.Dataset) -> bnsl.Dataset:
    # a learner call never reuses another call's Dataset memo or score cache
    return bnsl.Dataset(d.names, d.columns)


class Pass:
    """Runs one pass of a workload's calls back to back and records them.

    An operation's time leaves out the time the speedometer's loop took
    while the operation ran.
    """

    def __init__(self, tracer=None, speed: Speedometer | None = None):
        self.ops: list[Op] = []
        self.tracer = tracer
        self.speed = speed or Speedometer()

    def _timed(self, op: Op, call):
        if self.tracer is not None:
            self.tracer.op = len(self.ops)
        self.ops.append(op)
        spent = self.speed.spent
        start = time.perf_counter()
        try:
            return call()
        except Exception as exc:  # a failed operation is counted, not fatal
            op.error = f"{type(exc).__name__}: {exc}"
            return None
        finally:
            op.seconds = time.perf_counter() - start - (self.speed.spent - spent)

    def load(self, k: int, path: str):
        op = Op("load_table", k)
        d = self._timed(op, lambda: bnsl.load_table(path))
        op.data = d
        return d

    def learn(self, label: str, k: int, d: bnsl.Dataset, sample: Sample, config):
        op = Op(label, k, data=d, config=config)
        if isinstance(config, bnsl.LearnConfig):
            out = self._timed(op, lambda: bnsl.constraint_learn(_fresh(d), config))
        else:
            out = self._timed(op, lambda: bnsl.hill_climb(_fresh(d), config))
        if out is None:
            return
        op.graph, trace = out
        tests = [(e.x, e.y, e.z) for e in trace.events if e.kind == "test"]
        op.ntests = op.graph.provenance.ntests
        op.test_events = len(tests)
        op.distinct_tests = len(set(tests))
        op.moves = sum(1 for e in trace.events if e.kind == "move")
        op.events = len(trace.events)
        op.shd = shd(op.graph.directed_arcs, op.graph.undirected_arcs, *sample.truth)

    def mc_test(self, test, d: bnsl.Dataset):
        label, k, x, y, z, seed = test
        op = Op(label, k, data=d, test=test)
        op.result = self._timed(op, lambda: bnsl.ci_test(d, x, y, z, test=label,
                                                         B=MC_REPLICATES, seed=seed))


def _constraint(algorithm: str, test: str) -> bnsl.LearnConfig:
    return bnsl.LearnConfig(algorithm=algorithm, test=test, alpha=ALPHA, optimized=True,
                            parallelism=1)


def run_pass(workload: str, inputs: Inputs, tracer=None,
             speed: Speedometer | None = None) -> Pass:
    """The timed section: every call of the workload, once, back to back."""
    p = Pass(tracer, speed)
    if workload == "mc-tests":
        for test in inputs.tests:
            p.mc_test(test, inputs.samples[test[1]].data)
        return p
    for k, s in enumerate(inputs.samples):
        if workload == "gauss40":
            d = s.data
            p.learn("gs", k, d, s, _constraint("gs", "cor"))
            p.learn("mmpc", k, d, s, _constraint("mmpc", "zf"))
            p.learn("hc-bge", k, d, s, bnsl.HillClimbConfig(score="bge"))
            continue
        d = p.load(k, s.csv)
        if d is None:
            continue
        if workload == "alarm-ci":
            for algo in ("gs", "mmpc"):
                p.learn(algo, k, d, s, _constraint(algo, "mi"))
        else:
            p.learn("hc-bic", k, d, s, bnsl.HillClimbConfig(
                score="bic", restarts=2, perturb=5, seed=_subseed(SAMPLES, k)))
            p.learn("hc-bde", k, d, s, bnsl.HillClimbConfig(
                score=bnsl.ScoreSpec(kind="bde", iss=1.0)))
    return p


# -- output checks (untimed) ----------------------------------------------------------

def _acyclic(nodes, arcs) -> bool:
    children = {n: [] for n in nodes}
    indegree = {n: 0 for n in nodes}
    for u, v in arcs:
        children[u].append(v)
        indegree[v] += 1
    frontier = [n for n in nodes if indegree[n] == 0]
    seen = 0
    while frontier:
        seen += 1
        for c in children[frontier.pop()]:
            indegree[c] -= 1
            if indegree[c] == 0:
                frontier.append(c)
    return seen == len(nodes)


def _reaches(children, source, target, skip=None) -> bool:
    stack, seen = [source], {source}
    while stack:
        n = stack.pop()
        if n == target:
            return True
        for c in children[n]:
            if (n, c) != skip and c not in seen:
                seen.add(c)
                stack.append(c)
    return False


def improving_move(g: bnsl.Graph, d: bnsl.Dataset, spec) -> tuple | None:
    """A legal single-arc move that raises the network score by more than 1e-8 relative."""
    d = _fresh(d)
    parents = {v: frozenset(g.parents(v)) for v in g.nodes}
    children = {v: set(g.children(v)) for v in g.nodes}
    local = {}

    def score(v, ps):
        key = (v, ps)
        if key not in local:
            local[key] = bnsl.local_score(v, ps, d, spec)
        return local[key]

    total = sum(score(v, parents[v]) for v in g.nodes)
    tolerance = 1e-8 * max(1.0, abs(total))
    for u in g.nodes:
        for v in g.nodes:
            if u == v:
                continue
            pu, pv = parents[u], parents[v]
            if u in pv:
                drop = score(v, pv - {u}) - score(v, pv)
                moves = [(("delete", u, v), drop)]
                if not _reaches(children, u, v, skip=(u, v)):
                    moves.append((("reverse", u, v), drop + score(u, pu | {v}) - score(u, pu)))
            elif v not in pu and not _reaches(children, v, u):
                moves = [(("add", u, v), score(v, pv | {u}) - score(v, pv))]
            else:
                continue
            for move, delta in moves:
                if delta > tolerance:
                    return move
    return None


def check_op(op: Op, inputs: Inputs) -> str | None:
    """Why an operation's output is wrong, or None when it passes every check."""
    if op.error is not None:
        return op.error
    if op.kind == "load":
        want, got = inputs.samples[op.sample].data, op.data
        if got.names != want.names:
            return "load_table changed the column names"
        for name in want.names:
            if not np.array_equal(np.asarray(got.levels(name))[got.codes(name)],
                                  np.asarray(want.levels(name))[want.codes(name)]):
                return f"load_table changed column {name}"
        return None
    if op.kind == "mc":
        return _check_mc(op)
    g = op.graph
    if set(g.nodes) != set(op.data.names):
        return f"{op.label}: the graph's nodes differ from the dataset's columns"
    if not _acyclic(g.nodes, g.directed_arcs):
        return f"{op.label}: the directed part has a cycle"
    if op.ntests != op.test_events:
        return f"{op.label}: ntests {op.ntests} but {op.test_events} test events"
    if isinstance(op.config, bnsl.HillClimbConfig):
        if g.undirected_arcs:
            return f"{op.label}: the result is not a DAG"
        move = improving_move(g, op.data, op.config.score)
        if move is not None:
            return f"{op.label}: {move} still improves the score"
    return None


def _check_mc(op: Op) -> str | None:
    label, _, x, y, z, _ = op.test
    res = op.result
    k = res.p_value * (1 + MC_REPLICATES) - 1
    if not (abs(k - round(k)) < 1e-6 and 0 <= round(k) <= MC_REPLICATES):
        return f"{label} {x} {y} {z}: p-value {res.p_value!r} is off the (1+k)/(1+B) lattice"
    twin = bnsl.ci_test(op.data, x, y, z, test=MC_TWIN[label])
    expected = abs(twin.statistic) if twin.label in SIGNED_TWINS else twin.statistic
    if not math.isclose(res.statistic, expected, rel_tol=1e-9):
        return (f"{label} {x} {y} {z}: statistic {res.statistic!r} but "
                f"{twin.label} gives {expected!r}")
    return None
