"""Hill-climbing search: moves, climbing, restarts, priors, determinism."""

import numpy as np
import pytest

from bnsl import (ArcList, CycleError, Dataset, Graph, GraphError, HillClimbConfig,
                  LearnTrace, PriorError, PriorKnowledge, Provenance, ScoreCache,
                  ScoreError, ScoreSpec, empty_graph, enumerate_moves,
                  find_vstructures, forward_sample, hill_climb, network_score,
                  parse_modelstring, perturb_graph, score_delta,
                  topological_order)
from bnsl.data import CategoricalColumn, NumericColumn
from bnsl.hillclimb import _ADD, _DELETE, _IMPROVEMENT_EPS, _REVERSE, _TIE_EPS, _Dag, \
    _best_move, _climb, _start, apply_move
from bnsl.networks import SIXNODE_MODEL, sixnode
from bnsl.priors import normalize_priors

from helpers import (prior_violations, random_dag, random_discrete_dataset,
                     random_priors, under_hash_seeds)


@pytest.fixture(scope="module")
def sample():
    return forward_sample(sixnode(), 5000, seed=1)


def _skeleton(g):
    return {tuple(sorted(p)) for p in g.directed_arcs} | set(g.undirected_arcs)


_KIND_ORDER = {"add": 0, "delete": 1, "reverse": 2}


def _canonical(moves):
    return sorted(moves, key=lambda m: (_KIND_ORDER[m[0]], m[1], m[2]))


def _priors_fitting(rng, g):
    """A forced arc, a required edge and a blacklisted arc that g satisfies.

    The whitelisted pairs point forward in a topological order of g (the
    required one from its smaller label), so adding them to g keeps it acyclic.
    """
    pos = {n: i for i, n in enumerate(topological_order(g))}
    pairs = [(a, b) for a in g.nodes for b in g.nodes if pos[a] < pos[b]]
    order = rng.permutation(len(pairs))
    forced = pairs[order[0]]
    required = next(pairs[i] for i in order[1:]
                    if pairs[i][0] < pairs[i][1] and set(pairs[i]) != set(forced))
    # a backward arc: absent from g, and addable unless it closes a cycle
    banned = next(pairs[i][::-1] for i in order[1:]
                  if set(pairs[i]) not in (set(forced), set(required)))
    return PriorKnowledge(whitelist=[forced, required, required[::-1]],
                          blacklist=[banned])


def _respects(h, cons):
    arcs = h.directed_arcs
    return (all(cons.arc_allowed(u, v) for u, v in arcs)
            and cons.forced_arcs <= arcs
            and all((a, b) in arcs or (b, a) in arcs for a, b in cons.required_edges))


def _dependent_data(rng, dag, n_rows, discrete):
    """Rows drawn along dag, so the search has arcs to find."""
    values = {}
    for node in topological_order(dag):
        parents = sorted(dag.parents(node))
        if discrete:
            signal = sum((values[p] for p in parents), np.zeros(n_rows, dtype=np.int64))
            noise = rng.integers(0, 3, n_rows)
            values[node] = np.where(rng.random(n_rows) < 0.6, (signal + 1) % 3, noise)
        else:
            signal = sum((values[p] for p in parents), np.zeros(n_rows))
            values[node] = signal + rng.standard_normal(n_rows)
    if discrete:
        cols = {n: CategoricalColumn(("a", "b", "c"), v) for n, v in values.items()}
    else:
        cols = {n: NumericColumn(v) for n, v in values.items()}
    return Dataset(dag.nodes, cols)


def _check_against_brute_force(rng, n_nodes, p_edge, trials):
    """enumerate_moves equals the moves whose result (built by apply_move) is a
    DAG that keeps the priors, in the canonical order."""
    for trial in range(trials):
        g = random_dag(rng, n_nodes, p_edge=p_edge)
        cons = normalize_priors(_priors_fitting(rng, g) if trial % 4 else None,
                                g.nodes)
        g = Graph(g.nodes, g.directed_arcs | cons.forced_arcs | cons.required_edges)
        expected = []
        for u in g.nodes:
            for v in g.nodes:
                if u == v:
                    continue
                present = (u, v) in g.directed_arcs
                if not present and (v, u) in g.directed_arcs:
                    continue
                for kind in (("delete", "reverse") if present else ("add",)):
                    try:
                        h = apply_move(g, (kind, u, v))
                    except CycleError:
                        continue
                    if _respects(h, cons):
                        expected.append((kind, u, v))
        assert enumerate_moves(g, cons) == _canonical(expected)


def _reference_start(d, cfg, cons):
    """The start graph built as whole Graphs: each required edge a - b is
    tried as a -> b and, when that Graph is cyclic, taken as b -> a."""
    g = cfg.start if cfg.start is not None else empty_graph(d.names)
    if set(g.nodes) != set(d.names):
        raise GraphError("start graph nodes and dataset columns do not match")
    if g.undirected_arcs:
        raise GraphError("the start graph must be completely directed")
    banned = [(u, v) for u, v in g.directed_arcs if not cons.arc_allowed(u, v)]
    if banned:
        u, v = min(banned)
        raise PriorError(f"start graph violates the blacklist on {u} -> {v}")
    directed = set(g.directed_arcs) | cons.forced_arcs
    try:
        Graph(d.names, directed)
    except GraphError as exc:
        raise PriorError(f"priors conflict with the start graph: {exc}") from None
    for a, b in sorted(cons.required_edges):
        if (a, b) in directed or (b, a) in directed:
            continue
        try:
            Graph(d.names, directed | {(a, b)})
        except CycleError:
            a, b = b, a
        directed.add((a, b))
    return Graph(d.names, directed)


def _reference_perturb(g, k, cons, seed):
    """k random moves, each drawn from the list enumerate_moves gives and
    applied by apply_move; returns the graph and how many applied."""
    rng = np.random.default_rng(seed)
    applied = 0
    for _ in range(k):
        moves = enumerate_moves(g, cons)
        if not moves:
            break
        g = apply_move(g, moves[rng.integers(len(moves))])
        applied += 1
    return g, applied


def _reference_hill_climb(d, cfg):
    """The search as a plain loop: every move from enumerate_moves, scored by
    score_delta, the first of any near-tie kept; restarts as in hill_climb,
    from _reference_start and through _reference_perturb."""
    spec = cfg.score
    cons = normalize_priors(cfg.priors, d.names)
    trace = LearnTrace()
    cache = ScoreCache()
    rng = np.random.default_rng(cfg.seed)

    def climb(g):
        for _ in range(cfg.max_iterations):
            best, best_delta = None, _IMPROVEMENT_EPS
            for move in enumerate_moves(g, cons):
                delta = score_delta(g, move, d, spec, cache)
                trace.add("test", move[1], move[2], note=move[0])
                if delta > best_delta + _TIE_EPS * max(1.0, abs(best_delta)):
                    best, best_delta = move, delta
            if best is None:
                break
            g = apply_move(g, best)
            trace.add("move", best[1], best[2], p_value=best_delta, note=best[0])
        return g, network_score(g, d, spec, cache)

    best, best_score = climb(_reference_start(d, cfg, cons))
    for _ in range(cfg.restarts):
        perturbed, applied = _reference_perturb(best, cfg.perturb, cons, rng)
        if applied == 0:
            trace.add("restart", note="no legal perturbation")
            continue
        trace.add("restart", note=f"perturbed by {applied} moves")
        candidate, score = climb(perturbed)
        if score > best_score:
            best, best_score = candidate, score
    return best, best_score, trace


class TestEnumerateMoves:
    def test_empty_three_node_graph(self):
        g = empty_graph(("A", "B", "C"))
        moves = enumerate_moves(g)
        assert len(moves) == 6
        assert all(kind == "add" for kind, _, _ in moves)

    def test_complete_acyclic_graph_has_no_adds(self):
        g = parse_modelstring("[A][B|A][C|A:B]")
        moves = enumerate_moves(g)
        assert not [m for m in moves if m[0] == "add"]

    def test_chain_cycle_checks(self):
        g = parse_modelstring("[A][B|A][C|B]")
        moves = enumerate_moves(g)
        assert ("add", "A", "C") in moves
        assert ("add", "C", "A") not in moves  # closes a cycle

    def test_reverse_only_when_acyclic(self):
        g = parse_modelstring("[A][B|A][C|A:B]")
        moves = enumerate_moves(g)
        # reversing A -> B while A -> C -> ... no other path B ~> A exists
        assert ("reverse", "B", "C") in moves
        assert ("reverse", "A", "C") not in moves  # A -> B -> C path remains

    def test_priors_respected(self):
        cons = normalize_priors(
            PriorKnowledge(ArcList((("A", "B"),)), ArcList((("C", "B"),))),
            ("A", "B", "C"))
        g = Graph(("A", "B", "C"), [("A", "B")])
        moves = enumerate_moves(g, cons)
        assert ("delete", "A", "B") not in moves  # whitelisted arc
        assert ("reverse", "A", "B") not in moves
        assert ("add", "C", "B") not in moves  # blacklisted
        assert ("add", "B", "C") in moves

    def test_canonical_order(self):
        g = parse_modelstring("[A][B|A]")
        moves = enumerate_moves(g)
        kinds = [m[0] for m in moves]
        assert kinds == sorted(kinds, key=["add", "delete", "reverse"].index)

    def test_matches_brute_force(self):
        _check_against_brute_force(np.random.default_rng(73), 6, 0.4, 40)

    @pytest.mark.parametrize("n_nodes,p_edge,trials", [
        (9, 0.3, 10), (12, 0.25, 6), (17, 0.15, 4), (20, 0.12, 3), (70, 0.04, 2)])
    def test_matches_brute_force_past_a_byte_and_a_word(self, n_nodes, p_edge, trials):
        # node counts around 8, 16 and 64 cross the width of a byte and a word
        _check_against_brute_force(np.random.default_rng(n_nodes), n_nodes, p_edge,
                                   trials)

    @pytest.mark.parametrize("listed", ["whitelist", "blacklist"])
    def test_prior_naming_an_unknown_node(self, listed):
        cons = normalize_priors(PriorKnowledge(**{listed: ArcList((("A", "D"),))}),
                                ("A", "B", "C", "D"))
        g = empty_graph(("A", "B", "C"))
        with pytest.raises(PriorError, match="'D'"):
            enumerate_moves(g, cons)
        with pytest.raises(PriorError, match="'D'"):
            perturb_graph(g, 1, cons, 0)

    def test_rejects_pdag(self):
        from bnsl.graph import set_undirected
        g = set_undirected(empty_graph(("A", "B")), "A", "B")
        with pytest.raises(Exception):
            enumerate_moves(g)


class TestApplyMove:
    # [A][B][C|A]: the one arc is A -> C
    G = parse_modelstring("[A][B][C|A]")

    @pytest.mark.parametrize("move", [("add", "A", "C"), ("add", "C", "A"),
                                      ("delete", "B", "C"), ("reverse", "A", "B"),
                                      ("add", "A", "A")])
    def test_illegal_moves_rejected(self, move):
        with pytest.raises(ScoreError, match=f"illegal {move[0]} {move[1]} -> {move[2]}"):
            apply_move(self.G, move)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScoreError, match="unknown move kind 'flip'"):
            apply_move(self.G, ("flip", "A", "C"))

    def test_legal_moves(self):
        assert apply_move(self.G, ("add", "B", "C")).directed_arcs == {("A", "C"), ("B", "C")}
        assert apply_move(self.G, ("delete", "A", "C")).directed_arcs == set()
        assert apply_move(self.G, ("reverse", "A", "C")).directed_arcs == {("C", "A")}


class TestPerturb:
    def test_single_move_on_empty_two_node_graph(self):
        g = empty_graph(("A", "B"))
        out, applied = perturb_graph(g, 1, None, seed=5)
        assert applied == 1
        assert len(out.directed_arcs) == 1

    def test_deterministic_given_seed(self):
        g = empty_graph(("A", "B", "C", "D"))
        a, _ = perturb_graph(g, 3, None, seed=11)
        b, _ = perturb_graph(g, 3, None, seed=11)
        assert a == b

    def test_no_legal_move_flagged(self):
        nodes = ("A", "B")
        bl = ArcList((("A", "B"), ("B", "A")))
        cons = normalize_priors(PriorKnowledge(blacklist=bl), nodes)
        g = empty_graph(nodes)
        out, applied = perturb_graph(g, 2, cons, seed=0)
        assert applied == 0
        assert out == g

    def test_k_validation(self):
        g = empty_graph(("A", "B"))
        with pytest.raises(ScoreError):
            perturb_graph(g, 0, None, seed=0)
        for field, value in [("k", 2.5), ("k", True), ("k", "1"), ("seed", -1),
                             ("seed", 2.5), ("seed", True), ("seed", None)]:
            args = {"k": 1, "seed": 0, field: value}
            with pytest.raises(ScoreError, match=f"{field} must be an integer"):
                perturb_graph(g, args["k"], None, args["seed"])

    def test_accepts_a_generator_and_numpy_integers(self):
        g = empty_graph(("A", "B", "C"))
        a, _ = perturb_graph(g, np.int64(2), None, np.random.default_rng(4))
        b, _ = perturb_graph(g, 2, None, np.uint8(4))
        assert a == b

    def test_matches_the_move_list_loop(self):
        # perturb_graph against draws from enumerate_moves applied by apply_move
        rng = np.random.default_rng(208)
        # two move sets that run dry: at once, and after the forced arc is added
        # (which can then neither go nor turn)
        dry = [PriorKnowledge(blacklist=[("N0", "N1"), ("N1", "N0")]),
               PriorKnowledge(whitelist=[("N0", "N1")])]
        applied_counts = []
        for case in range(240):
            n_nodes, p_edge = int(rng.integers(2, 8)), float(rng.uniform(0.0, 0.6))
            g = random_dag(rng, n_nodes, p_edge)
            g = Graph(tuple(reversed(g.nodes)), g.directed_arcs,
                      provenance=Provenance(method="score", ntests=case))
            cons = None
            if case < len(dry):
                g = empty_graph(("N0", "N1"))
                cons = normalize_priors(dry[case], g.nodes)
            elif case % 3:
                cons = normalize_priors(random_priors(rng, g.nodes, p_white=0.15,
                                                      p_black=0.4), g.nodes)
            k = int(rng.integers(1, 7))
            seed = int(rng.integers(0, 2**31))
            if case % 2:  # a Generator is drawn from in place, on both sides alike
                mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                out, applied = perturb_graph(g, k, cons, mine)
                ref, ref_applied = _reference_perturb(g, k, cons, theirs)
                assert mine.integers(2**62) == theirs.integers(2**62)
            else:
                out, applied = perturb_graph(g, k, cons, seed)
                ref, ref_applied = _reference_perturb(g, k, cons, seed)
            assert (out, out.nodes, out.provenance, applied) == \
                (ref, ref.nodes, ref.provenance, ref_applied), case
            applied_counts.append((applied, k))
        assert any(0 < applied < k for applied, k in applied_counts)
        assert any(applied == 0 for applied, _ in applied_counts)


class TestStart:
    """_start against _reference_start, which builds whole Graphs."""

    @staticmethod
    def _random_case(rng, names):
        # the priors draw some arcs of the start graph, reversed or not
        start = random_dag(rng, len(names), p_edge=float(rng.uniform(0.0, 0.5)))
        arcs = sorted(start.directed_arcs)
        pairs = [(u, v) for u in names for v in names if u != v]
        draw = lambda rows, p: [row for row in rows if rng.random() < p]
        white = draw(pairs, 0.08) + [arc[::-1] for arc in draw(arcs, 0.15)]
        required = draw(pairs, 0.1)
        black = draw(pairs, 0.08) + draw(arcs, 0.08)
        white = list(dict.fromkeys(white + required + [arc[::-1] for arc in required]))
        priors = PriorKnowledge(whitelist=white, blacklist=list(dict.fromkeys(black)))
        return Graph(names, start.directed_arcs), priors

    def test_matches_the_whole_graph_start(self):
        rng = np.random.default_rng(2028)
        names = tuple(f"N{i}" for i in range(7))
        d = Dataset.from_codes(names, {c: ("a", "b") for c in names},
                               {c: np.arange(8) % 2 for c in names})
        outcomes = []
        while len(outcomes) < 400:
            start, priors = self._random_case(rng, names)
            try:
                cons = normalize_priors(priors, names)
            except PriorError:
                continue
            cfg = HillClimbConfig(start=start if len(outcomes) % 10 else None)
            try:
                ref = _reference_start(d, cfg, cons)
            except (GraphError, PriorError) as exc:
                expected, outcome = str(exc), str(exc).split(":")[0]
                if outcome.startswith("start graph violates"):
                    u, v = min(arc for arc in start.directed_arcs
                               if not cons.arc_allowed(*arc))
                    outcome = "blacklist"
                    if (v, u) in cons.forced_arcs:  # the one message that changed
                        expected = f"start graph reverses the whitelisted arc {v} -> {u}"
                        outcome = "whitelist"
                with pytest.raises(type(exc)) as got:
                    _start(d, cfg, cons)
                assert str(got.value) == expected
                outcomes.append(outcome)
                continue
            g = _start(d, cfg, cons).graph()
            assert (g, g.nodes) == (ref, ref.nodes)
            assert prior_violations(g, cons) == []
            outcomes.append("built")
        assert set(outcomes) == {"built", "priors conflict with the start graph",
                                 "blacklist", "whitelist"}
        assert outcomes.count("built") > 100


@pytest.mark.hash_seed
class TestIncrementalSearch:
    """hill_climb against a reference climb over enumerate_moves and score_delta."""

    @pytest.mark.parametrize("score", ["bic", "bde", "k2", "bge"])
    def test_identical_to_reference_climb(self, score):
        rng = np.random.default_rng(["bic", "bde", "k2", "bge"].index(score))
        for trial in range(2):
            truth = random_dag(rng, 7, p_edge=0.35)
            d = _dependent_data(rng, truth, 400, discrete=score != "bge")
            start = random_dag(rng, 7, p_edge=0.3)
            cfg = HillClimbConfig(score=score, priors=_priors_fitting(rng, start),
                                  start=start, restarts=2, perturb=3, seed=trial)
            ref_graph, ref_score, ref_trace = _reference_hill_climb(d, cfg)
            g, trace = hill_climb(d, cfg)
            assert [e.kind for e in trace.events].count("move") > 0
            assert trace.events == ref_trace.events  # deltas bit for bit
            assert trace.lines() == ref_trace.lines()
            assert g == ref_graph
            assert g.provenance.ntests == ref_trace.test_counter
            assert network_score(g, d, cfg.score) == ref_score

    def test_identical_to_reference_climb_at_thirty_nodes(self):
        rng = np.random.default_rng(30)
        truth = random_dag(rng, 30, p_edge=0.08)
        d = _dependent_data(rng, truth, 300, discrete=True)
        start = random_dag(rng, 30, p_edge=0.05)
        cfg = HillClimbConfig(score="bic", priors=_priors_fitting(rng, start),
                              start=start, restarts=2, perturb=4, seed=5)
        ref_graph, ref_score, ref_trace = _reference_hill_climb(d, cfg)
        g, trace = hill_climb(d, cfg)
        kinds = [e.kind for e in trace.events]
        assert kinds.count("move") > 10 and kinds.count("restart") == 2
        assert trace.events == ref_trace.events
        assert g == ref_graph
        assert g.provenance.ntests == ref_trace.test_counter
        assert network_score(g, d, cfg.score) == ref_score

    def test_refilled_rows_read_the_parents_of_the_graph(self, monkeypatch):
        import bnsl.hillclimb as hc
        rng = np.random.default_rng(61)
        for trial in range(30):  # random legal move sequences on random DAGs
            g = random_dag(rng, 8, p_edge=0.3)
            cons = normalize_priors(_priors_fitting(rng, g) if trial % 2 else None, g.nodes)
            g = Graph(g.nodes, g.directed_arcs | cons.forced_arcs | cons.required_edges)
            dag = hc._Dag(g, cons)
            for _ in range(25):
                moves = np.argwhere(dag.legal())
                if not len(moves):
                    break
                dag.apply(*moves[rng.integers(len(moves))].tolist())
                h = dag.graph()
                assert [dag.parent_labels(v) for v in range(8)] == [h.parents(name)
                                                                    for name in dag.names]
        # and in a climb with restarts, each row scored against the graph's parents
        dags, rows = [], []
        toggle = hc._toggle_scores

        class Recording(hc._Dag):
            def __init__(self, *args):
                super().__init__(*args)
                dags.append(self)

        def recording(node, parents, others, d, spec):
            rows.append(set(parents) == dags[-1].graph().parents(node))
            return toggle(node, parents, others, d, spec)

        monkeypatch.setattr(hc, "_Dag", Recording)
        monkeypatch.setattr(hc, "_toggle_scores", recording)
        d = _dependent_data(rng, random_dag(rng, 8, p_edge=0.35), 300, discrete=True)
        start = random_dag(rng, 8, p_edge=0.3)
        hill_climb(d, HillClimbConfig(score="bic", start=start, restarts=3, perturb=3,
                                      seed=2))
        assert len(rows) > 8 and all(rows)
        assert len(dags) == 1  # the start, every climb and perturbation share one state

    def test_climb_score_identical_to_reference(self, sample):
        spec = ScoreSpec(kind="bde")
        cons = normalize_priors(None, sample.names)
        start = parse_modelstring("[A][B|A][C|B][D|C][E|D][F|E]", nodes=sample.names)
        score = _climb(_Dag(start, cons), sample, spec, ScoreCache(), LearnTrace(), 10000)
        _, ref_score, _ = _reference_hill_climb(
            sample, HillClimbConfig(score=spec, start=start))
        assert score == ref_score


def _closure(A):
    """Reachability computed from scratch by Warshall's algorithm."""
    R = A.copy()
    for m in range(len(R)):
        R |= np.outer(R[:, m], R[m])
    return R


class TestReachability:
    """_Dag.R, grown in place on an add and recomputed on any other change,
    equals the closure of _Dag.A computed from scratch, and the legal moves
    equal those of a _Dag built afresh from the same graph."""

    @staticmethod
    def _random_start(rng, k):
        # a random start graph and priors with required edges, which _start
        # adds to the graph one by one
        names = tuple(f"N{i}" for i in range(k))
        pairs = [(a, b) for a in names for b in names if a < b]
        picks = rng.permutation(len(pairs))
        required = [pairs[i] for i in picks[:3]]
        black = {pairs[i][::-1] if rng.random() < 0.5 else pairs[i]
                 for i in picks[3:3 + k // 2]}
        forced = [arc for arc in [pairs[picks[3 + k // 2]]] if rng.random() < 0.5]
        priors = PriorKnowledge(whitelist=[e for a, b in required for e in ((a, b), (b, a))]
                                + forced, blacklist=sorted(black))
        start = random_dag(rng, k, p_edge=float(rng.uniform(0.0, 0.2)))
        start = Graph(names, {arc for arc in start.directed_arcs
                              if arc not in black and arc[::-1] not in forced})
        d = Dataset.from_codes(names, {c: ("a", "b") for c in names},
                               {c: np.arange(4) % 2 for c in names})
        cons = normalize_priors(priors, names)
        return _start(d, HillClimbConfig(start=start), cons), cons

    def test_random_move_sequences(self):
        rng = np.random.default_rng(2033)
        applied = {_ADD: 0, _DELETE: 0, _REVERSE: 0}
        for case in range(40):
            try:
                dag, cons = self._random_start(rng, int(rng.integers(5, 41)))
            except PriorError:  # the forced arc closes a cycle
                continue
            assert np.array_equal(dag.R, _closure(dag.A))
            best = dag.A.copy()
            for step in range(30):
                legal = dag.legal()
                assert np.array_equal(legal, _Dag(dag.graph(), cons).legal())
                kinds = np.flatnonzero(legal.any(axis=(1, 2)))
                if not len(kinds):
                    break
                kind = int(rng.choice(kinds))  # a kind first, so adds do not crowd out the rest
                moves = np.argwhere(legal[kind])
                u, v = moves[rng.integers(len(moves))].tolist()
                dag.apply(kind, u, v)
                applied[kind] += 1
                if step == 10:
                    best = dag.A.copy()
                if step == 20:  # a restart that found nothing better goes back
                    dag.A = best.copy()
                    dag._reach()
                assert np.array_equal(dag.R, _closure(dag.A)), (case, step)
        assert min(applied.values()) > 200, applied

    def test_every_state_of_a_climb_with_restarts(self, monkeypatch):
        # hill_climb's own moves, perturbations and resets, checked as they happen
        apply, reach = _Dag.apply, _Dag._reach
        seen = []

        def checked_apply(dag, kind, u, v):
            apply(dag, kind, u, v)
            seen.append(kind)
            assert np.array_equal(dag.R, _closure(dag.A))

        def checked_reach(dag):
            reach(dag)
            seen.append("reach")
            assert np.array_equal(dag.R, _closure(dag.A))

        monkeypatch.setattr(_Dag, "apply", checked_apply)
        monkeypatch.setattr(_Dag, "_reach", checked_reach)
        rng = np.random.default_rng(2034)
        truth = random_dag(rng, 12, p_edge=0.25)
        d = _dependent_data(rng, truth, 300, discrete=True)
        start = random_dag(rng, 12, p_edge=0.15)
        cfg = HillClimbConfig(score="bic", priors=_priors_fitting(rng, start), start=start,
                              restarts=4, perturb=6, seed=3)
        g, trace = hill_climb(d, cfg)
        assert {_ADD, _DELETE, _REVERSE} <= set(seen)
        assert [e.kind for e in trace.events].count("restart") == 4
        assert seen.count("reach") > 1  # the start, and the reset after a restart
        ref_graph, _, ref_trace = _reference_hill_climb(d, cfg)
        assert (g, trace.events) == (ref_graph, ref_trace.events)


def _reference_best_move(deltas, opening):
    """The best-move scan over every delta above the opening, one by one."""
    best = best_delta = None
    threshold = opening
    for i in np.flatnonzero(deltas > opening).tolist():
        delta = float(deltas[i])
        if delta > threshold:
            best, best_delta = i, delta
            threshold = best_delta + _TIE_EPS * max(1.0, abs(best_delta))
    return best, best_delta


def test_best_move_equals_the_scan_over_every_positive_delta():
    rng = np.random.default_rng(2035)
    opening = _IMPROVEMENT_EPS + _TIE_EPS * max(1.0, _IMPROVEMENT_EPS)
    outcomes = set()
    for case in range(3000):
        scale = 10.0 ** rng.uniform(-9, 4)
        deltas = rng.normal(scale=scale, size=int(rng.integers(0, 60)))
        if len(deltas) and case % 2:
            # planted ties: near copies of a few deltas, and chains that creep
            # up by less than the tie margin per step
            for _ in range(int(rng.integers(1, 4))):
                base = float(rng.choice(deltas))
                margin = _TIE_EPS * max(1.0, abs(base))
                steps = base + margin * np.cumsum(rng.uniform(0.0, 1.2, int(rng.integers(1, 6))))
                where = rng.choice(len(deltas), min(len(steps), len(deltas)), replace=False)
                deltas[np.sort(where)] = steps[:len(where)]
        if case % 5 == 0:
            deltas[rng.random(len(deltas)) < 0.3] = opening
        got = _best_move(deltas, opening)
        assert got == _reference_best_move(deltas, opening), case
        outcomes.add(got[0] is None)
    assert outcomes == {True, False}


class TestHillClimb:
    def test_sixnode_recovers_equivalence_class(self, sample):
        g, trace = hill_climb(sample, HillClimbConfig(score="aic"))
        truth = parse_modelstring(SIXNODE_MODEL)
        assert _skeleton(g) == _skeleton(truth)
        assert find_vstructures(g) == find_vstructures(truth)
        assert g.provenance.ntests == trace.test_counter > 0

    def test_independent_data_gives_empty_graph(self):
        rng = np.random.default_rng(70)
        d = random_discrete_dataset(rng, ["A", "B", "C"], 1500)
        g, _ = hill_climb(d, HillClimbConfig(score="bic"))
        assert not g.directed_arcs

    def test_final_score_at_least_start(self, sample):
        start = parse_modelstring("[A][B][C][D][E|D][F]", nodes=sample.names)
        cfg = HillClimbConfig(score="bic", start=start)
        g, _ = hill_climb(sample, cfg)
        spec = ScoreSpec(kind="bic")
        assert network_score(g, sample, spec) >= network_score(start, sample, spec)

    def test_returned_score_matches_network_score(self, sample):
        spec = ScoreSpec(kind="bic")
        dag = _Dag(empty_graph(sample.names), normalize_priors(None, sample.names))
        score = _climb(dag, sample, spec, ScoreCache(), LearnTrace(), 10000)
        g = dag.graph()
        assert g.directed_arcs and g.nodes == tuple(sample.names)
        assert score == pytest.approx(network_score(g, sample, spec), abs=1e-9)

    def test_counter_deterministic(self, sample):
        cfg = lambda: HillClimbConfig(score="bic", restarts=2, perturb=2, seed=3)
        g1, t1 = hill_climb(sample, cfg())
        g2, t2 = hill_climb(sample, cfg())
        assert g1 == g2
        assert t1.test_counter == t2.test_counter

    def test_restarts_never_worsen(self, sample):
        spec = ScoreSpec(kind="bic")
        base, _ = hill_climb(sample, HillClimbConfig(score="bic"))
        restarted, _ = hill_climb(sample, HillClimbConfig(score="bic", restarts=3,
                                                          perturb=2, seed=1))
        assert network_score(restarted, sample, spec) >= \
            network_score(base, sample, spec) - 1e-9

    def test_restart_without_legal_perturbation(self):
        # the forced arc can be neither deleted nor reversed, and nothing can be added
        d = random_discrete_dataset(np.random.default_rng(71), ["A", "B"], 200)
        cfg = HillClimbConfig(score="bic", priors=PriorKnowledge(whitelist=[("A", "B")]),
                              restarts=1)
        g, trace = hill_climb(d, cfg)
        assert g.directed_arcs == {("A", "B")}
        assert [(e.kind, e.note) for e in trace.events if e.kind == "restart"] == \
            [("restart", "no legal perturbation")]

    def test_whitelist_and_blacklist(self, sample):
        pr = PriorKnowledge(whitelist=[("F", "A")], blacklist=[("A", "B")])
        g, _ = hill_climb(sample, HillClimbConfig(score="aic", priors=pr))
        assert ("F", "A") in g.directed_arcs
        assert ("A", "B") not in g.directed_arcs

    @pytest.mark.parametrize("restarts", [0, 2])
    def test_learned_graph_keeps_random_priors(self, sample, restarts):
        rng = np.random.default_rng(2006 + restarts)
        for _ in range(12):
            priors = random_priors(rng, sample.names)
            g, _ = hill_climb(sample, HillClimbConfig(score="bic", priors=priors,
                                                      restarts=restarts, perturb=3))
            cons = normalize_priors(priors, sample.names)
            assert prior_violations(g, cons) == [], priors

    def test_required_edge_oriented_to_keep_the_start_acyclic(self, sample):
        # C -> B -> A is forced, so the required edge A - C can only be C -> A
        pr = PriorKnowledge(whitelist=[("A", "C"), ("C", "A"), ("C", "B"), ("B", "A")])
        g, _ = hill_climb(sample, HillClimbConfig(score="bic", priors=pr))
        cons = normalize_priors(pr, sample.names)
        assert ("C", "A") in g.directed_arcs
        assert prior_violations(g, cons) == []

    def test_start_graph_violating_priors(self, sample):
        pr = PriorKnowledge(blacklist=[("A", "B")])
        start = parse_modelstring(SIXNODE_MODEL, nodes=sample.names)
        with pytest.raises(PriorError):
            hill_climb(sample, HillClimbConfig(score="aic", priors=pr,
                                               start=start))

    @pytest.mark.hash_seed
    def test_start_graph_errors_do_not_depend_on_the_hash_seed(self):
        script = """
import numpy as np
from bnsl import Dataset, Graph, HillClimbConfig, PriorError, PriorKnowledge, hill_climb
d = Dataset.from_codes("ABCD", {c: ("a", "b") for c in "ABCD"},
                       {c: np.arange(40) % 2 for c in "ABCD"})
for start, priors in [({("C", "D"), ("A", "B")}, {"blacklist": [("C", "D"), ("A", "B")]}),
                      ({("D", "C"), ("B", "A")}, {"whitelist": [("C", "D"), ("A", "B")]})]:
    try:
        hill_climb(d, HillClimbConfig(start=Graph("ABCD", start),
                                      priors=PriorKnowledge(**priors)))
    except PriorError as exc:
        print(exc)
"""
        outputs = under_hash_seeds(script)
        assert outputs[0] == outputs[1] == (
            "start graph violates the blacklist on A -> B\n"
            "start graph reverses the whitelisted arc A -> B\n")

    def test_debug_prints_each_applied_move(self, sample, capsys):
        _, trace = hill_climb(sample, HillClimbConfig(score="bic", debug=True))
        moves = [e for e in trace.events if e.kind == "move"]
        assert len(moves) >= 5
        assert capsys.readouterr().err.splitlines() == [
            f"* applying {e.note} {e.x} -> {e.y} ( delta: {e.p_value:g} )" for e in moves]

    def test_intermediate_graphs_stay_prior_consistent(self, sample):
        # every applied move respects priors, so the result must too
        pr = PriorKnowledge(whitelist=[("A", "D")], blacklist=[("E", "B")])
        g, trace = hill_climb(sample, HillClimbConfig(score="bic", priors=pr))
        assert ("A", "D") in g.directed_arcs
        assert ("E", "B") not in g.directed_arcs

    def test_delta_climb_matches_full_rescore_climb(self):
        # oracle: replace delta scoring by full rescoring, move for move
        rng = np.random.default_rng(71)
        from bnsl.hillclimb import _IMPROVEMENT_EPS, _TIE_EPS
        for trial in range(6):
            names = [f"N{i}" for i in range(5)]
            d = random_discrete_dataset(rng, names, 120)
            spec = ScoreSpec(kind="bic")
            g = empty_graph(names)
            moves_delta = []
            while True:
                best, best_delta = None, _IMPROVEMENT_EPS
                base = network_score(g, d, spec)
                for move in enumerate_moves(g):
                    full = network_score(apply_move(g, move), d, spec) - base
                    if full > best_delta + _TIE_EPS * max(1.0, abs(best_delta)):
                        best, best_delta = move, full
                if best is None:
                    break
                moves_delta.append(best)
                g = apply_move(g, best)
            learned, trace = hill_climb(d, HillClimbConfig(score="bic"))
            oracle_moves = [e for e in trace.events if e.kind == "move"]
            assert learned == g
            assert len(oracle_moves) == len(moves_delta)
            for e, m in zip(oracle_moves, moves_delta):
                assert (e.note, e.x, e.y) == m

    def test_max_iterations_cap(self, sample):
        g, _ = hill_climb(sample, HillClimbConfig(score="bic", max_iterations=1))
        assert len(g.directed_arcs) <= 1

    def test_config_validation(self):
        with pytest.raises(ScoreError):
            HillClimbConfig(score="lik")
        with pytest.raises(ScoreError):
            HillClimbConfig(restarts=-1)
        with pytest.raises(ScoreError):
            HillClimbConfig(restarts=2, perturb=0)

    @pytest.mark.parametrize("field,value", [
        ("restarts", 1.5), ("restarts", True), ("restarts", "2"),
        ("perturb", 2.5), ("perturb", -1), ("max_iterations", 2.5),
        ("max_iterations", 0), ("max_iterations", False), ("seed", -3),
        ("seed", 1.0), ("seed", None)])
    def test_config_rejects_bad_integers(self, field, value):
        with pytest.raises(ScoreError, match=f"{field} must be an integer"):
            HillClimbConfig(**{field: value})

    def test_config_accepts_numpy_integers(self):
        cfg = HillClimbConfig(restarts=np.int64(2), seed=np.uint32(7))
        assert cfg.restarts == 2 and cfg.seed == 7

    def test_bge_hill_climb_on_gaussian_chain(self):
        rng = np.random.default_rng(72)
        n = 2000
        x = rng.standard_normal(n)
        y = 1.5 * x + 0.5 * rng.standard_normal(n)
        z = -2.0 * y + 0.5 * rng.standard_normal(n)
        from bnsl.data import Dataset, NumericColumn
        d = Dataset(("X", "Y", "Z"), {"X": NumericColumn(x),
                                      "Y": NumericColumn(y),
                                      "Z": NumericColumn(z)})
        g, _ = hill_climb(d, HillClimbConfig(score="bge"))
        assert _skeleton(g) == {("X", "Y"), ("Y", "Z")}

    @pytest.mark.parametrize("discrete, score", [(True, "bic"), (False, "bge")])
    def test_default_score_follows_the_data(self, discrete, score):
        # HillClimbConfig() runs the data's default score, as the CLI does
        rng = np.random.default_rng(73)
        d = _dependent_data(rng, random_dag(rng, 6, p_edge=0.4), 500, discrete)
        g, trace = hill_climb(d, HillClimbConfig(restarts=1, seed=2))
        ref, ref_trace = hill_climb(d, HillClimbConfig(score=score, restarts=1, seed=2))
        assert [e.kind for e in trace.events].count("move") > 0
        assert g == ref
        assert g.provenance == ref.provenance and g.provenance.score == score
        assert network_score(g, d, ScoreSpec(kind=score)) == \
            network_score(ref, d, ScoreSpec(kind=score))
        assert trace.lines() == ref_trace.lines()
