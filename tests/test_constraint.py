"""Constraint-based learning: blankets, neighbourhoods, orientation, pipeline."""

import contextlib
import hashlib
import io
import itertools

import numpy as np
import pytest

import bnsl
from bnsl import (ALGORITHMS, DataError, Dataset, Graph, LearnConfig,
                  PriorKnowledge, TestError, ci_test,
                  constraint_learn, forward_sample, learn_markov_blanket,
                  neighbourhood_from_mb, orient_vstructures, parse_modelstring,
                  symmetry_correction)
from bnsl.data import CategoricalColumn, DiscreteCPT, FittedNetwork, LinearGaussian
from bnsl.networks import SIXNODE_MODEL, alarm, alarm_fitted, sixnode

from helpers import (dsep, perfbench_module, prior_violations, random_dag,
                     random_discrete_dataset, random_priors)

TRUE_DIRECTED = frozenset({("A", "D"), ("C", "D"), ("B", "E"), ("F", "E")})
TRUE_UNDIRECTED = frozenset({("A", "B")})
TRUE_SKELETON = {tuple(sorted(p))
                 for p in [("A", "B"), ("A", "D"), ("C", "D"), ("B", "E"),
                           ("E", "F")]}


@pytest.fixture(scope="module")
def sample():
    return forward_sample(sixnode(), 5000, seed=1)


def _chain_sample(n=4000, seed=1):
    """X -> Y -> W with strong conditional tables."""
    g = parse_modelstring("[X][Y|X][W|Y]")
    peak = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]).T
    levels = ("a", "b", "c")
    f = FittedNetwork(g, {
        "X": DiscreteCPT(levels, (), (), np.array([[0.3], [0.4], [0.3]])),
        "Y": DiscreteCPT(levels, ("X",), (levels,), peak),
        "W": DiscreteCPT(levels, ("Y",), (levels,), peak),
    })
    return forward_sample(f, n, seed=seed)


class TestMarkovBlanket:
    def test_sixnode_target_a(self, sample):
        for algo in ("gs", "iamb", "fast-iamb", "inter-iamb"):
            mb = learn_markov_blanket("A", sample, LearnConfig(algorithm=algo))
            assert mb == {"B", "C", "D"}, algo

    def test_chain_screens_off_w(self):
        d = _chain_sample()
        mb = learn_markov_blanket("X", d, LearnConfig(algorithm="gs"))
        assert mb == {"Y"}

    def test_pure_noise_mostly_empty(self):
        rng = np.random.default_rng(60)
        names = ["V%d" % i for i in range(5)]
        d = Dataset(tuple(names), {
            n: CategoricalColumn(("a", "b", "c"), rng.integers(0, 3, 5000))
            for n in names})
        empties = sum(
            not learn_markov_blanket("V0", d, LearnConfig(algorithm="gs"))
            for _ in range(1))
        # a single run; the null false-positive rate is ~alpha per candidate
        assert empties in (0, 1)

    def test_known_good_and_bad_seeds(self, sample):
        mb = learn_markov_blanket("A", sample, LearnConfig(algorithm="gs"),
                                  known_good={"B"}, known_bad={"F"})
        assert "B" in mb and "F" not in mb

    def test_unknown_target(self, sample):
        with pytest.raises(Exception):
            learn_markov_blanket("Z", sample, LearnConfig(algorithm="gs"))


class TestSymmetryCorrection:
    def test_symmetric_unchanged(self):
        b = {"X": {"Y"}, "Y": {"X"}}
        assert symmetry_correction(b) == b

    def test_and_rule(self):
        assert symmetry_correction({"X": {"Y"}, "Y": set()}) == \
            {"X": set(), "Y": set()}

    def test_property_on_random_sets(self):
        rng = np.random.default_rng(61)
        names = [f"N{i}" for i in range(6)]
        for _ in range(50):
            blankets = {x: {y for y in names if y != x and rng.random() < 0.4}
                        for x in names}
            fixed = symmetry_correction(blankets)
            for x in names:
                for y in fixed[x]:
                    assert x in fixed[y]


class TestNeighbourhood:
    def test_c_separated_from_a(self, sample):
        cfg = LearnConfig(algorithm="gs")
        blankets = {n: learn_markov_blanket(n, sample, cfg) for n in sample.names}
        blankets = symmetry_correction(blankets)
        nbrs, dseps = neighbourhood_from_mb("A", blankets, sample, cfg)
        assert nbrs == {"B", "D"}
        assert "C" in dseps  # separated, with the separating set recorded
        assert "D" not in dseps["C"]

    def test_unknown_node_rejected(self, sample):
        cfg = LearnConfig(algorithm="gs")
        blankets = {n: set() for n in sample.names}
        with pytest.raises(DataError, match="'Z'"):
            neighbourhood_from_mb("Z", blankets, sample, cfg)
        blankets["A"] = {"B", "Q"}  # a member without a blanket of its own
        with pytest.raises(DataError, match="'Q'"):
            neighbourhood_from_mb("A", blankets, sample, cfg)

    def test_empty_blanket_no_neighbours(self, sample):
        cfg = LearnConfig(algorithm="gs")
        blankets = {n: set() for n in sample.names}
        nbrs, dseps = neighbourhood_from_mb("A", blankets, sample, cfg)
        assert nbrs == set() and dseps == {}


class TestOrientVstructures:
    def test_sixnode_orientations(self, sample):
        cfg = LearnConfig(algorithm="gs")
        skeleton = Graph(sample.names, undirected_arcs=TRUE_SKELETON)
        dseps = {("A", "C"): (), ("B", "F"): ()}
        pdag = orient_vstructures(skeleton, dseps, sample, cfg)
        assert pdag.directed_arcs == TRUE_DIRECTED
        assert pdag.undirected_arcs == TRUE_UNDIRECTED

    def test_chain_not_oriented(self):
        d = _chain_sample()
        cfg = LearnConfig(algorithm="gs")
        skeleton = Graph(d.names, undirected_arcs=[("X", "Y"), ("W", "Y")])
        # Y separates X and W, so the recorded set contains the centre
        pdag = orient_vstructures(skeleton, {("W", "X"): ("Y",)}, d, cfg)
        assert not pdag.directed_arcs

    def test_adjacent_endpoints_never_considered(self, sample):
        cfg = LearnConfig(algorithm="gs")
        skeleton = Graph(sample.names,
                         undirected_arcs=list(TRUE_SKELETON) + [("A", "C")])
        pdag = orient_vstructures(skeleton, {("A", "C"): ()}, sample, cfg)
        assert ("A", "D") not in pdag.directed_arcs

    def test_missing_dsep_set_skipped(self, sample):
        cfg = LearnConfig(algorithm="gs")
        skeleton = Graph(sample.names, undirected_arcs=TRUE_SKELETON)
        pdag = orient_vstructures(skeleton, {}, sample, cfg)
        assert not pdag.directed_arcs

    def test_candidate_closing_a_cycle_skipped(self, sample):
        from bnsl.constraint import _CITester
        from bnsl.trace import LearnTrace
        cfg = LearnConfig(algorithm="gs")
        # B -> D -> A is already directed, so A -> B <- E would close a cycle;
        # C -> F <- E closes none
        skeleton = Graph(sample.names, [("B", "D"), ("D", "A")],
                         [("A", "B"), ("B", "E"), ("C", "F"), ("E", "F")])
        stream = io.StringIO()
        trace = LearnTrace(debug=True, stream=stream)
        pdag = orient_vstructures(skeleton, {("A", "E"): (), ("C", "E"): ()},
                                  sample, cfg,
                                  tester=_CITester(sample, cfg, trace, lambda x, y, z: 0.0))
        assert pdag.directed_arcs == {("B", "D"), ("D", "A"), ("C", "F"), ("E", "F")}
        assert pdag.undirected_arcs == {("A", "B"), ("B", "E")}
        assert "A -> B <- E (the resulting graph contains cycles)" in stream.getvalue()
        applied = [(e.x, e.z, e.y) for e in trace.events if e.note == "applied"]
        assert applied == [("C", ("F",), "E")]


class TestConstraintLearn:
    def test_sixnode_pdag(self, sample):
        g, trace = constraint_learn(sample, LearnConfig(algorithm="gs"))
        assert g.directed_arcs == TRUE_DIRECTED
        assert g.undirected_arcs == TRUE_UNDIRECTED
        assert g.provenance.algorithm == "Grow-Shrink"
        assert g.provenance.ntests == trace.test_counter > 0

    def test_blacklist_forces_direction(self, sample):
        pr = PriorKnowledge(blacklist=[("B", "A")])
        g, _ = constraint_learn(sample, LearnConfig(algorithm="gs", priors=pr))
        assert ("A", "B") in g.directed_arcs
        assert g.directed

    def test_mmpc_skeleton(self, sample):
        g, _ = constraint_learn(sample, LearnConfig(algorithm="mmpc"))
        assert not g.directed_arcs
        assert set(g.undirected_arcs) == TRUE_SKELETON

    def test_optimized_matches_unoptimized_with_fewer_tests(self, sample):
        opt_g, opt_t = constraint_learn(sample, LearnConfig(algorithm="gs"))
        un_g, un_t = constraint_learn(sample,
                                      LearnConfig(algorithm="gs", optimized=False))
        assert opt_g == un_g
        assert opt_t.test_counter < un_t.test_counter
        assert opt_t.test_counter <= 0.75 * un_t.test_counter

    def test_column_permutation_stability(self, sample):
        base, _ = constraint_learn(sample, LearnConfig(algorithm="gs"))
        rng = np.random.default_rng(62)
        for _ in range(3):
            order = list(sample.names)
            rng.shuffle(order)
            shuffled = sample.reorder(order)
            g, _ = constraint_learn(shuffled, LearnConfig(algorithm="gs"))
            assert g == base

    def test_parallelism_other_than_one_rejected(self):
        with pytest.raises(TestError, match="thread pool was removed"):
            LearnConfig(parallelism=2)

    def test_prior_orientation_skipped_when_it_closes_a_cycle(self, sample):
        # B -> C -> A is forced and B -> A is banned, so the undirected A - B
        # may only become A -> B, which would close a cycle: it stays undirected
        pr = PriorKnowledge(whitelist=[("B", "C"), ("C", "A")],
                            blacklist=[("B", "A")])
        g, trace = constraint_learn(sample, LearnConfig(algorithm="mmpc", priors=pr))
        assert {("B", "C"), ("C", "A")} <= g.directed_arcs
        assert ("A", "B") in g.undirected_arcs
        assert not any(e.kind == "prior-orient" and (e.x, e.y) == ("A", "B")
                       for e in trace.events)
        # mmpc runs no direction propagation, so this step reports the pair
        ambiguous = [(e.x, e.y, e.note) for e in trace.events if e.kind == "ambiguous"]
        assert ambiguous == [("A", "B", "left undirected")]

    def test_whitelist_adds_edge(self, sample):
        pr = PriorKnowledge(whitelist=[("C", "F"), ("F", "C")])
        g, _ = constraint_learn(sample, LearnConfig(algorithm="gs", priors=pr))
        arcs = set(g.arcs())
        assert ("C", "F") in arcs or ("F", "C") in arcs

    def test_single_whitelist_forces_arc(self, sample):
        pr = PriorKnowledge(whitelist=[("A", "B")])
        g, _ = constraint_learn(sample, LearnConfig(algorithm="gs", priors=pr))
        assert ("A", "B") in g.directed_arcs

    def test_whitelist_cycle_raises(self, sample):
        pr = PriorKnowledge(whitelist=[("A", "B"), ("B", "E"), ("E", "A")])
        with pytest.raises(bnsl.PriorError):
            constraint_learn(sample, LearnConfig(algorithm="gs", priors=pr))

    def test_test_data_mismatch(self, sample):
        with pytest.raises(TestError):
            constraint_learn(sample, LearnConfig(algorithm="gs", test="cor"))

    @pytest.mark.parametrize("algorithm", ["gs", "iamb", "mmpc"])
    @pytest.mark.parametrize("test", ["cor", "zf", "mi-g", "mc-cor", "mc-zf", "mc-mi-g"])
    def test_too_few_rows_for_the_test_does_not_abort(self, algorithm, test):
        # with 4 rows a zf test given one variable has no degrees of freedom;
        # it counts as untestable (p = 1) instead of raising
        a = np.array([0.0, 1.0, 2.0, 3.5])
        b = 2.0 * a + np.array([0.1, -0.2, 0.05, 0.1])
        c = b - np.array([0.3, 0.1, -0.2, 0.05])
        d = Dataset.from_values(("A", "B", "C"), {"A": a, "B": b, "C": c})
        g, trace = constraint_learn(d, LearnConfig(algorithm=algorithm, test=test, B=19))
        assert set(g.nodes) == {"A", "B", "C"}
        assert trace.test_counter > 0

    @pytest.mark.parametrize("algorithm", ["gs", "iamb", "mmpc"])
    @pytest.mark.parametrize("test", ["cor", "zf"])
    def test_exact_linear_relation_stays_adjacent(self, algorithm, test):
        # Y = 2 X + 1: every test of X and Y given W or V sees a singular
        # correlation matrix, and its residuals still read as dependence
        rng = np.random.default_rng(7)
        x = rng.standard_normal(1000)
        w = x + rng.standard_normal(1000)
        v = w + rng.standard_normal(1000)
        d = Dataset.from_values(("V", "W", "X", "Y"),
                                {"V": v, "W": w, "X": x, "Y": 2.0 * x + 1.0})
        g, _ = constraint_learn(d, LearnConfig(algorithm=algorithm, test=test))
        assert g.adjacent("X", "Y")

    def test_unknown_algorithm(self):
        with pytest.raises(TestError):
            LearnConfig(algorithm="pc")

    def test_alpha_validation(self):
        with pytest.raises(TestError):
            LearnConfig(alpha=0.0)
        with pytest.raises(TestError):
            LearnConfig(alpha=1.5)

    def test_monte_carlo_learning_runs(self):
        d = forward_sample(sixnode(), 1500, seed=4)
        cfg = LearnConfig(algorithm="gs", test="mc-mi", B=120, seed=9)
        g, trace = constraint_learn(d, cfg)
        assert g.provenance.test == "mc-mi"
        # deterministic under the same seed
        g2, _ = constraint_learn(d, LearnConfig(algorithm="gs", test="mc-mi",
                                                B=120, seed=9))
        assert g == g2

    def test_monte_carlo_replicates_default_to_1000(self):
        d = forward_sample(sixnode(), 300, seed=5)
        g, trace = constraint_learn(d, LearnConfig(algorithm="gs", test="mc-mi", seed=2))
        g2, trace2 = constraint_learn(d, LearnConfig(algorithm="gs", test="mc-mi",
                                                     B=1000, seed=2))
        assert g == g2
        assert trace.lines() == trace2.lines()


class TestTrace:
    def test_counter_matches_test_events(self, sample):
        g, trace = constraint_learn(sample, LearnConfig(algorithm="iamb"))
        assert trace.test_counter == sum(
            1 for e in trace.events if e.kind == "test")

    def test_counter_counts_every_kind_of_append(self):
        from bnsl.trace import LearnTrace, TraceEvent
        tr = LearnTrace()
        shared = TraceEvent("test", "A", "B", note="add")
        for k in range(30):
            if k % 3 == 0:
                tr.test("A", "B", ("C",), 0.5)
            elif k % 3 == 1:
                tr.add(["move", "test", "vstructure", "ambiguous"][k % 4], "A", "B")
            else:
                tr.add_tests([shared] * (k % 5))
            assert tr.test_counter == sum(1 for e in tr.events if e.kind == "test")

    def test_events_replay_to_same_pvalue(self, sample):
        cfg = LearnConfig(algorithm="gs")
        _, trace = constraint_learn(sample, cfg)
        tests = [e for e in trace.events if e.kind == "test"][:25]
        for e in tests:
            res = ci_test(sample, e.x, e.y, e.z, test="mi")
            assert res.p_value == pytest.approx(e.p_value, rel=1e-12, abs=1e-300)

    def test_mc_events_replay_deterministically(self):
        d = forward_sample(sixnode(), 800, seed=5)
        cfg = LearnConfig(algorithm="gs", test="mc-mi", B=80, seed=13)
        _, t1 = constraint_learn(d, cfg)
        _, t2 = constraint_learn(d, cfg)
        p1 = [e.p_value for e in t1.events if e.kind == "test"]
        p2 = [e.p_value for e in t2.events if e.kind == "test"]
        assert p1 == p2

    def test_debug_stream_mirrors_learning(self, sample):
        # a standalone phase writes its prose and its events to the tester's trace
        from bnsl.constraint import _CITester
        from bnsl.trace import LearnTrace
        stream = io.StringIO()
        cfg = LearnConfig(algorithm="gs", debug=True)
        tr = LearnTrace(debug=True, stream=stream)
        tester = _CITester(sample, cfg, tr)
        learn_markov_blanket("A", sample, cfg, known_bad={"F"}, tester=tester)
        text = stream.getvalue()
        assert "checking node B for inclusion" in text
        assert "markov blanket now is" in text
        assert "shrinking phase" in text
        assert "known bad (backtracking)" in text
        tests = [e for e in tr.events if e.kind == "test"]
        assert tests and len(tests) == tr.test_counter == tester.computed + tester.hits
        assert {e.note for e in tests} == {"grow", "shrink"}

    @pytest.mark.parametrize("algorithm", ALGORITHMS + ("hc",))
    def test_no_debug_text_is_formatted_with_debug_off(self, monkeypatch, algorithm):
        def refuse(*args):
            raise AssertionError("debug text formatted with debug off")

        monkeypatch.setattr(bnsl.constraint, "_fmt", refuse)
        monkeypatch.setattr(bnsl.trace.LearnTrace, "say", refuse)
        d = forward_sample(alarm_fitted(1), 1000, seed=4)
        if algorithm == "hc":
            _, trace = bnsl.hill_climb(d, bnsl.HillClimbConfig(restarts=1, perturb=2))
            assert any(e.kind == "move" for e in trace.events)
            return
        _, trace = constraint_learn(d, LearnConfig(algorithm=algorithm))
        assert trace.test_counter > 0
        with pytest.raises(AssertionError, match="debug text formatted"):
            constraint_learn(d, LearnConfig(algorithm=algorithm, debug=True))

    def test_structured_export(self, sample):
        _, trace = constraint_learn(sample, LearnConfig(algorithm="gs"))
        lines = trace.lines()
        assert len(lines) == len(trace.events)
        assert any(line.startswith("test\t") for line in lines)


# -- the injected tester -------------------------------------------------------------

@pytest.fixture(scope="module")
def tester_data():
    return {"sixnode": forward_sample(sixnode(), 3000, seed=1),
            "alarm": forward_sample(alarm_fitted(1), 2000, seed=2)}


@pytest.mark.parametrize("data", ["sixnode", "alarm"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_injected_pvalue_runs_once_per_distinct_test(tester_data, data, algorithm):
    from bnsl.constraint import _CITester
    from bnsl.trace import LearnTrace
    d = tester_data[data]
    cfg = LearnConfig(algorithm=algorithm)
    default = _CITester(d, cfg, LearnTrace()).pvalue
    calls = []

    def counted(x, y, z):
        calls.append((x, y, z))
        return default(x, y, z)

    g, trace = constraint_learn(d, cfg, pvalue=counted)
    tests = [(e.x, e.y, e.z) for e in trace.events if e.kind == "test"]
    assert sorted(calls) == sorted(set(tests))
    # the same run as the default tester's, repeats included
    want_g, want_trace = constraint_learn(d, cfg)
    assert g == want_g and g.provenance.ntests == want_g.provenance.ntests == len(tests)
    assert trace.lines() == want_trace.lines()


def test_tester_answers_repeats_from_its_memo():
    from bnsl.constraint import _CITester
    from bnsl.trace import LearnTrace
    d = forward_sample(sixnode(), 500, seed=3)
    calls = []

    def pvalue(x, y, z):
        calls.append((x, y, z))
        return 0.25 * len(calls)

    tr = LearnTrace()
    tester = _CITester(d, LearnConfig(), tr, pvalue)
    assert tester("A", "B", ["F", "C"]) == 0.25
    assert tester("A", "B", ("C", "F"), note="again") == 0.25  # z sorted: a repeat
    assert tester("B", "A", ("C", "F")) == 0.5  # the key keeps x and y in order
    assert calls == [("A", "B", ("C", "F")), ("B", "A", ("C", "F"))]
    assert (tester.computed, tester.hits, tr.test_counter) == (2, 1, 3)
    assert tr.lines()[1] == "test\tA\tB\tC F\t0.25\tagain"


def test_fast_iamb_reads_the_blanket_codes_in_column_order(monkeypatch):
    d = forward_sample(alarm_fitted(1), 5000, seed=2)
    order = {name: i for i, name in enumerate(d.names)}
    counted = []
    config_codes = bnsl.data._config_codes

    def counting(d, names):
        counted.append(tuple(names))
        return config_codes(d, names)

    monkeypatch.setattr(bnsl.data, "_config_codes", counting)
    constraint_learn(d, LearnConfig(algorithm="fast-iamb", test="mi"))
    assert counted and all(list(z) == sorted(z, key=order.__getitem__) for z in counted)


def test_inter_iamb_stops_when_a_shrink_repeats_a_blanket():
    # T-H always dependent; P then Q join the blanket, and the shrink after Q
    # drops both, so the blanket is {H} again and would cycle for ever
    from bnsl.constraint import _CITester
    from bnsl.trace import LearnTrace

    class CappedTrace(LearnTrace):
        def test(self, *args, **kwargs):
            if self.test_counter >= 1000:
                raise RuntimeError("inter-iamb did not end")
            super().test(*args, **kwargs)

    rng = np.random.default_rng(41)
    names = ["T", "H", "P", "Q"]
    d = Dataset.from_codes(names, {v: ("a", "b") for v in names},
                           {v: rng.integers(0, 2, 100) for v in names})
    answers = {("H", ()): 0.001, ("P", ("H",)): 0.039, ("Q", ("H", "P")): 0.013,
               ("P", ("H", "Q")): 0.13}

    def oracle(x, y, z):
        assert x == "T"
        return answers.get((y, z), 0.001 if y == "H" else 0.5)

    cfg = LearnConfig(algorithm="inter-iamb", alpha=0.05)
    stream = io.StringIO()
    trace = CappedTrace(debug=True, stream=stream)
    tester = _CITester(d, cfg, trace, oracle)
    assert learn_markov_blanket("T", d, cfg, tester=tester) == {"H"}
    assert trace.test_counter == 12 and tester.computed == 9
    assert stream.getvalue().count("seen before; stopping the growing phase") == 1


# -- priors on learned graphs ------------------------------------------------------------

@pytest.fixture(scope="module")
def prior_data():
    return {"mi": forward_sample(sixnode(), 1500, seed=4),
            "cor": _gaussian_sixnode_sample(n=600, seed=5)}


@pytest.mark.parametrize("optimized", [True, False])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("test", ["mi", "cor"])
def test_learned_graph_keeps_random_priors(prior_data, test, algorithm, optimized):
    rng = np.random.default_rng([ALGORITHMS.index(algorithm), optimized, test == "cor"])
    d = prior_data[test]
    for _ in range(25):
        priors = random_priors(rng, d.names)
        cfg = LearnConfig(algorithm=algorithm, test=test, optimized=optimized,
                          priors=priors)
        g, trace = constraint_learn(d, cfg)
        ambiguous = {(e.x, e.y) for e in trace.events if e.kind == "ambiguous"}
        cons = bnsl.normalize_priors(priors, d.names)
        assert prior_violations(g, cons, ambiguous) == [], priors


# -- golden traces -------------------------------------------------------------------

def _gaussian_sixnode_sample(n=2000, seed=2):
    """The sixnode structure with fixed linear-Gaussian parameters."""
    g = parse_modelstring(SIXNODE_MODEL)
    local = {}
    for v in g.nodes:
        parents = tuple(sorted(g.parents(v)))
        local[v] = LinearGaussian(parents, 0.0, np.full(len(parents), 0.8), 1.0)
    return forward_sample(FittedNetwork(g, local), n, seed=seed)


GOLDEN_PRIORS = PriorKnowledge(whitelist=[("C", "F")], blacklist=[("A", "D")])

# sha256 of "\n".join(trace.lines()) and of the --debug stream, per run: any
# change to the order or arguments of the tests, or to the debug commentary,
# changes a digest
GOLDEN_DIGESTS = {
    "gs/opt/none": ("80a0081bf5f18fdc11a386c0bbc0e28df3365fae6ceca29f5d2518a2bccbec74",
                   "56e63385560aa2350ae56f7b31a03119ef520db0087c6108252bcf73494fe60b"),
    "gs/opt/priors": ("7fd3f5c389cdadfb27729a37667ad14407bad338b20e99e869cfe43f9be398e0",
                     "09d75c89353b0cf006090aacc5288c22d8baa877c601c64cae9c9f2b1be606f9"),
    "gs/plain/none": ("981f78a0a00f16ab1f1129116174f92a349420a5a66e95d77a6d191a76cb17bf",
                     "e6a32675a35b6dd1c7e99e86cc526dad96c82055c2f6490e8a76ea55bcb8fb13"),
    "gs/plain/priors": ("5ba0956ff0861a24d0891074e20aa5d1d0c5befd8c9993592754f6a0c09974c8",
                       "4cecf76b783c7d5baee6dcebed5222fbfb85323a33a9d7897affcfc0ef263aa8"),
    "iamb/opt/none": ("dd2931076f6c277d23feffe4ae88bbf919dd63a2692fa4b1a9cf57f62df1cf78",
                     "d00e400d35d4a09f60c3bfca6319049350117f911a6c50755768e0bc9d4b2104"),
    "iamb/opt/priors": ("17265425d58b0770806cfb90fea4b820dac154fc9d54d66b3d8192685bdb4e39",
                       "2fe8f4794e40ea5a33f12f6c84080c850bf80065fdd9feb78b8bffc3d2e6a886"),
    "iamb/plain/none": ("5ffcc23bd1eaddd42070e09218041ff219405069297128b68eb3dabac3bc8dfc",
                       "e9f060a9c5fcf14d211fba17dff221b2bc8dd4433f2dd0373e6efe6aa1ebf750"),
    "iamb/plain/priors": ("9f6dc712a6e04ccd2755189e084c472a410575ee93135b91b46e953a0ddacb95",
                         "9777733a6c395cd4d3b5a2abf5756e105be611e7f4c9021f4f8938d22f479e3e"),
    "fast-iamb/opt/none": ("1acf4e8e367fba381b289c860c9f9a543efbf18a02908622c2e14944b5dcbe79",
                          "4f782f2612e70dfd0168a0b83f38476247d0b8ee9ff4587b541d0ebc0ad60d0a"),
    "fast-iamb/opt/priors": ("b2a95e84927c825acb1cb2c685ee64e476fbee72cbee89646a6339660fee240b",
                            "21c44b692efce30919baae02375fa69fda618e540c09e7d522c9a38a1f2f3490"),
    "fast-iamb/plain/none": ("f126bcccea4201a91578649a25586a764a99f4465eee537f11d0859ee3f0ee9d",
                            "8c11c42b7be4dc75513be60ca9c754ba3c59b3e1e2030ca875ecce20fe84fc08"),
    "fast-iamb/plain/priors": ("7e44c7719eab57b1a7a420d6ab67d389643b266ade1ed38fd52eb823c1336126",
                              "50a64bb45f5b4c799b8e45e111261471b313555bee95923751c3bacacc6d8a82"),
    "inter-iamb/opt/none": ("0149e6f8f6bf0a97333aaa1e8f240d66e14641188ccf960b7a6ea6de60fa870e",
                           "e7fe180767fa0b47ab3da875c4a021f2e7cac713a2b384343b1aceae649e9c1e"),
    "inter-iamb/opt/priors": ("363fc98a3c82e444ad0daac981a944cf180e7b25a98df08025ca2929953295c2",
                             "b138e5e8a736ef0faad967aa1daa69bab84767b6e35f1b036214b599d63f4093"),
    "inter-iamb/plain/none": ("28410b315b35ed2b951c755a384a0029c4af6ed88c87a397b19cbb1249b35cac",
                             "0c05c71ba9f37513e4f250bb5439204741da1fcc55d781d064e9ff32029cc496"),
    "inter-iamb/plain/priors": ("235842373ef8facda4c6d56edd61060c601d1c3e0e7b03c992f7714d30e2a0b4",
                               "53a893c3c12674336bd0db7d8f5323809e75fdd460b1989d4469e4bc225bea63"),
    "mmpc/opt/none": ("ba80797e00bb46d9dcbc52081080096a55745b20dbd4bc6a243a447204394329",
                     "fea8083ed01daaa0605d06440de27aa7315af9a31562e5174dc97a9b9a522969"),
    "mmpc/opt/priors": ("629b81c75d96f07a14402da4e137acb19f09accd6e55dee387e3c4a817d29054",
                       "53d86ff346a0a64f309ee955e26baac7edbd137c9fe27ed4d028df0636cbd27e"),
    "mmpc/plain/none": ("80587cd51efb9ebb30b07c9c681aab37443b338a555361b0f8b2cbe74ee42ec5",
                       "fea8083ed01daaa0605d06440de27aa7315af9a31562e5174dc97a9b9a522969"),
    "mmpc/plain/priors": ("b81d04492775dd0031e9dbb9bba12f7d703f17b73193fba8e396f73b999e82d2",
                         "53d86ff346a0a64f309ee955e26baac7edbd137c9fe27ed4d028df0636cbd27e"),
    "gs/opt/cor": ("6913428f785faae63ed2305a56b64a45fe6bbf69a9882677e9a27fef58a90228",
                  "a00109ac3d1f471d32445a3c21618b151e95dac61a1fdeb36c5d0e953b80d388"),
    "gs/opt/mc-mi": ("9a5efa3732ab54aa96b32d317dfc8ff409272e79c3671620249e3f73b1829623",
                    "9c4f4bd099dc612d4cec1183cd9592a741e6732569f22c81501a1b5361d5e6d7"),
}


def _golden_config(run: str) -> tuple[str, LearnConfig]:
    algorithm, mode, extra = run.split("/")
    opts = dict(algorithm=algorithm, optimized=mode == "opt", debug=True)
    if extra == "priors":
        opts["priors"] = GOLDEN_PRIORS
    elif extra == "cor":
        return "gauss", LearnConfig(test="cor", **opts)
    elif extra == "mc-mi":
        opts.update(test="mc-mi", B=50, seed=3)
    return "sixnode", LearnConfig(**opts)


@pytest.fixture(scope="module")
def golden_data():
    return {"sixnode": forward_sample(sixnode(), 3000, seed=1),
            "gauss": _gaussian_sixnode_sample()}


def _digests(d, cfg) -> tuple[str, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        _, trace = constraint_learn(d, cfg)
    lines = "\n".join(trace.lines())
    return (hashlib.sha256(lines.encode()).hexdigest(),
            hashlib.sha256(err.getvalue().encode()).hexdigest())


@pytest.mark.parametrize("run", sorted(GOLDEN_DIGESTS))
def test_golden_trace(run, golden_data):
    data, cfg = _golden_config(run)
    assert _digests(golden_data[data], cfg) == GOLDEN_DIGESTS[run]


# -- d-separation oracle ---------------------------------------------------------------

def _learn_with_oracle(dag, algorithm, optimized):
    """Learn on a placeholder sample with every CI test answered by d-separation."""
    def oracle(x, y, z):
        return 1.0 if dsep(dag, x, y, z) else 0.0

    rng = np.random.default_rng(len(dag.nodes))
    d = random_discrete_dataset(rng, dag.nodes, 200)
    g, _ = constraint_learn(d, LearnConfig(algorithm=algorithm, optimized=optimized),
                            pvalue=oracle)
    return g


CPDAG = perfbench_module("cpdag")


def _expected(dag, algorithm):
    if algorithm == "mmpc":  # a skeleton, left undirected
        return frozenset(), frozenset(tuple(sorted(a)) for a in dag.directed_arcs)
    return CPDAG.cpdag(dag.nodes, dag.directed_arcs)


def test_dsep_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(70)
    for _ in range(60):
        dag = random_dag(rng, int(rng.integers(3, 9)))
        nxg = nx.DiGraph(list(dag.directed_arcs))
        nxg.add_nodes_from(dag.nodes)
        for x, y in itertools.combinations(dag.nodes, 2):
            rest = [v for v in dag.nodes if v not in (x, y)]
            z = {v for v in rest if rng.random() < 0.4}
            assert dsep(dag, x, y, z) == nx.is_d_separator(nxg, {x}, {y}, z)


ORACLE_DAGS = [random_dag(np.random.default_rng(71 + k), 3 + k % 6) for k in range(40)]


@pytest.mark.parametrize("optimized", [True, False])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_oracle_recovers_the_cpdag(algorithm, optimized):
    for dag in ORACLE_DAGS:
        g = _learn_with_oracle(dag, algorithm, optimized)
        assert (g.directed_arcs, g.undirected_arcs) == _expected(dag, algorithm), \
            dag.directed_arcs


# mmpc is left out: under a 0/1 oracle every max p-value ties at 0, so the
# candidate set grows in column order and the subset search explodes
@pytest.mark.parametrize("algorithm", ["gs", "iamb", "fast-iamb", "inter-iamb"])
def test_oracle_recovers_the_alarm_cpdag(algorithm):
    dag = alarm()
    g = _learn_with_oracle(dag, algorithm, True)
    assert (g.directed_arcs, g.undirected_arcs) == _expected(dag, algorithm)
