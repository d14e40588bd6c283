"""Constraint-based learning: blankets, neighbourhoods, orientation, pipeline."""

import io

import numpy as np
import pytest

import bnsl
from bnsl import (Dataset, Graph, LearnConfig, PriorKnowledge, TestError,
                  ci_test, constraint_learn, forward_sample,
                  learn_markov_blanket, neighbourhood_from_mb,
                  orient_vstructures, parse_modelstring, symmetry_correction)
from bnsl.data import CategoricalColumn, DiscreteCPT, FittedNetwork
from bnsl.networks import sixnode

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
                                  tester=lambda x, y, z, note="": 0.0, trace=trace)
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


class TestTrace:
    def test_counter_matches_test_events(self, sample):
        g, trace = constraint_learn(sample, LearnConfig(algorithm="iamb"))
        assert trace.test_counter == sum(
            1 for e in trace.events if e.kind == "test")

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
        from bnsl.constraint import _CITester
        from bnsl.trace import LearnTrace
        stream = io.StringIO()
        cfg = LearnConfig(algorithm="gs", debug=True)
        tr = LearnTrace(debug=True, stream=stream)
        tester = _CITester(sample, cfg, tr)
        learn_markov_blanket("A", sample, cfg, tester=tester, trace=tr)
        text = stream.getvalue()
        assert "checking node B for inclusion" in text
        assert "markov blanket now is" in text
        assert "shrinking phase" in text

    def test_structured_export(self, sample):
        _, trace = constraint_learn(sample, LearnConfig(algorithm="gs"))
        lines = trace.lines()
        assert len(lines) == len(trace.events)
        assert any(line.startswith("test\t") for line in lines)
