"""Graph type, model strings, structural queries, v-structures, propagation."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnsl
from bnsl import (CYCLE_MESSAGE, CycleError, Graph, GraphError, compare,
                  drop_arc, empty_graph, extend_pdag, find_vstructures,
                  format_modelstring, mutate_arc, nparams, parse_modelstring,
                  propagate_directions, reverse_arc, set_arc, structure_query,
                  to_dot)
from bnsl.data import CategoricalColumn, Dataset, NumericColumn
from bnsl.graph import set_undirected, topological_order
from bnsl.networks import alarm

from helpers import perfbench_module, random_dag, under_hash_seeds

SIXNODE = "[A][C][F][B|A][D|A:C][E|B:F]"


class TestModelStrings:
    def test_parse_sixnode(self):
        g = parse_modelstring(SIXNODE)
        assert set(g.directed_arcs) == {("A", "B"), ("A", "D"), ("C", "D"),
                                        ("B", "E"), ("F", "E")}
        assert not g.undirected_arcs
        assert g.nodes == ("A", "C", "F", "B", "D", "E")  # first appearance

    def test_parse_single_node(self):
        g = parse_modelstring("[X]")
        assert g.nodes == ("X",)
        assert not g.directed_arcs

    def test_parse_cycle_rejected(self):
        with pytest.raises(CycleError):
            parse_modelstring("[A|C][B|A][C|B]")
        # the duplicate-block spelling of the same 3-cycle also fails
        with pytest.raises(GraphError):
            parse_modelstring("[A][B|A][C|B][A|C]")

    def test_parse_errors(self):
        with pytest.raises(GraphError):
            parse_modelstring("[A][A]")  # duplicate block
        with pytest.raises(GraphError):
            parse_modelstring("[A|B]")  # unknown parent
        with pytest.raises(GraphError):
            parse_modelstring("[A]garbage[B]")
        with pytest.raises(GraphError):
            parse_modelstring("")
        with pytest.raises(GraphError):
            parse_modelstring("[A][B|]")

    def test_format_sixnode_exact(self):
        g = Graph("ABCDEF", [("A", "B"), ("A", "D"), ("C", "D"),
                             ("B", "E"), ("F", "E")])
        assert format_modelstring(g) == SIXNODE

    def test_format_empty_graph(self):
        assert format_modelstring(empty_graph(["X"])) == "[X]"

    def test_format_rejects_undirected(self):
        g = Graph("AB", undirected_arcs=[("A", "B")])
        with pytest.raises(GraphError):
            format_modelstring(g)

    def test_roundtrip_random_dags(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            g = random_dag(rng, int(rng.integers(1, 9)))
            back = parse_modelstring(format_modelstring(g))
            assert back == g


class TestMutateArc:
    def test_set_orients_undirected(self):
        g = Graph("ABCDEF", [("A", "D"), ("C", "D"), ("B", "E"), ("F", "E")],
                  [("A", "B")])
        dag = set_arc(g, "A", "B")
        assert format_modelstring(dag) == SIXNODE

    def test_set_cycle_error_message(self):
        g = parse_modelstring(SIXNODE)
        with pytest.raises(CycleError, match="the resulting graph contains cycles"):
            set_arc(g, "E", "A")
        assert CYCLE_MESSAGE in str(CycleError(CYCLE_MESSAGE))

    def test_failed_mutation_leaves_input_unchanged(self):
        g = parse_modelstring(SIXNODE)
        arcs_before = set(g.directed_arcs)
        with pytest.raises(CycleError):
            set_arc(g, "E", "A")
        assert set(g.directed_arcs) == arcs_before

    def test_drop(self):
        g = parse_modelstring(SIXNODE)
        g2 = drop_arc(g, "A", "B")
        assert ("A", "B") not in g2.arcs()
        assert ("B", "A") not in g2.arcs()

    def test_reverse(self):
        g = parse_modelstring("[A][B|A]")
        g2 = reverse_arc(g, "A", "B")
        assert g2.directed_arcs == frozenset({("B", "A")})
        with pytest.raises(GraphError):
            reverse_arc(g, "B", "A")

    def test_set_replaces_reverse_arc(self):
        g = parse_modelstring("[A][B|A]")
        g2 = set_arc(g, "B", "A")
        assert g2.directed_arcs == frozenset({("B", "A")})

    def test_unknown_endpoint(self):
        g = parse_modelstring("[A][B|A]")
        with pytest.raises(GraphError):
            mutate_arc(g, "A", "Z", "set")

    def test_invariants_hold_after_random_mutations(self):
        rng = np.random.default_rng(7)
        g = random_dag(rng, 6)
        for _ in range(300):
            nodes = list(g.nodes)
            u, v = rng.choice(nodes, size=2, replace=False)
            op = ["set", "drop", "reverse"][rng.integers(3)]
            try:
                g = mutate_arc(g, u, v, op)
            except GraphError:
                continue
            assert g.acyclic
            overlap = {tuple(sorted(a)) for a in g.directed_arcs} & set(
                g.undirected_arcs)
            assert not overlap


class TestQueries:
    def setup_method(self):
        self.g = parse_modelstring(SIXNODE)

    def test_mb_example(self):
        assert structure_query(self.g, "mb", "A") == {"B", "C", "D"}

    def test_root_and_leaf(self):
        assert set(structure_query(self.g, "root_nodes")) == {"A", "C", "F"}
        assert set(structure_query(self.g, "leaf_nodes")) == {"D", "E"}

    def test_parents_children_nbr(self):
        assert self.g.parents("D") == {"A", "C"}
        assert self.g.children("A") == {"B", "D"}
        assert structure_query(self.g, "nbr", "A") == {"B", "D"}

    def test_acyclic_and_directed(self, monkeypatch):
        # the constructor refused any cycle, so reading the property orders nothing
        def no_order(g):
            raise AssertionError("acyclic ran topological_order")
        with monkeypatch.context() as m:
            m.setattr(bnsl.graph, "topological_order", no_order)
            assert self.g.acyclic is True
            assert structure_query(self.g, "acyclic") is True
        assert structure_query(self.g, "directed") is True
        und = set_undirected(self.g, "A", "B")
        assert structure_query(und, "directed") is False

    def test_amat(self):
        m = structure_query(self.g, "amat")
        idx = {n: i for i, n in enumerate(self.g.nodes)}
        assert m[idx["A"], idx["B"]] == 1
        assert m[idx["B"], idx["A"]] == 0
        # undirected arcs set both symmetric entries
        und = set_undirected(self.g, "A", "B")
        m2 = und.amat()
        assert m2[idx["A"], idx["B"]] == 1 and m2[idx["B"], idx["A"]] == 1

    def test_amat_degree_sums(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = random_dag(rng, 6)
            m = g.amat()
            for i, n in enumerate(g.nodes):
                assert m[i].sum() == len(g.children(n))
                assert m[:, i].sum() == len(g.parents(n))

    def test_arc_listings(self):
        und = set_undirected(self.g, "A", "B")
        rows = structure_query(und, "undirected_arcs")
        assert ("A", "B") in rows and ("B", "A") in rows
        directed = structure_query(und, "directed_arcs")
        assert ("A", "D") in directed and ("A", "B") not in directed
        assert len(structure_query(und, "arcs")) == 4 + 2

    def test_unknown_node_and_kind(self):
        with pytest.raises(GraphError):
            structure_query(self.g, "mb", "Z")
        with pytest.raises(GraphError):
            structure_query(self.g, "frobnicate")

    def test_mb_symmetry_on_random_dags(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            g = random_dag(rng, int(rng.integers(2, 9)))
            for x in g.nodes:
                for y in g.mb(x):
                    assert x in g.mb(y)


class TestCompare:
    def test_reflexive(self):
        g = parse_modelstring(SIXNODE)
        equal, report = compare(g, g)
        assert equal and report.equal

    def test_pdag_vs_dag(self):
        dag = parse_modelstring(SIXNODE)
        pdag = set_undirected(dag, "A", "B")
        equal, report = compare(pdag, dag)
        assert not equal
        assert ("A", "B") in report.undirected_only_first
        assert ("A", "B") in report.directed_only_second
        assert "B" in report.node_diffs  # B's parent set differs
        assert "false" in report.format()

    def test_node_set_mismatch(self):
        with pytest.raises(GraphError):
            compare(parse_modelstring("[A][B]"), parse_modelstring("[A][C]"))

    def test_format_lists_each_node_difference(self):
        _, report = compare(Graph("ABC", [("A", "B")]), Graph("ABC", [("C", "B")]))
        assert report.format() == "\n".join([
            "equal: false",
            "directed arcs only in first: A -> B",
            "directed arcs only in second: C -> B",
            "node A: children only in first: B",
            "node B: parents only in first: A; parents only in second: C",
            "node C: children only in second: B",
        ])


class TestVStructures:
    def test_sixnode(self):
        g = parse_modelstring(SIXNODE)
        assert find_vstructures(g) == (("A", "D", "C"), ("B", "E", "F"))

    def test_chain_has_none(self):
        assert find_vstructures(parse_modelstring("[A][B|A][C|B]")) == ()

    def test_shielded_collider_excluded(self):
        g = parse_modelstring("[A][B|A][C|A:B]")
        assert find_vstructures(g) == ()

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            g = random_dag(rng, 6)
            mapping = dict(zip(g.nodes, rng.permutation(g.nodes)))
            relabeled = Graph([mapping[n] for n in g.nodes],
                              [(mapping[u], mapping[v]) for u, v in g.directed_arcs])
            want = {tuple(sorted((mapping[a], mapping[c]))) + (mapping[b],)
                    for a, b, c in find_vstructures(g)}
            got = {tuple(sorted((a, c))) + (b,)
                   for a, b, c in find_vstructures(relabeled)}
            assert got == want


class TestExtendPdag:
    def test_orients_to_avoid_new_vstructure(self):
        g = Graph("ABC", [("A", "B")], [("B", "C")])
        out = extend_pdag(g)
        assert ("B", "C") in out.directed_arcs

    def test_single_undirected_stays(self):
        g = Graph("AB", undirected_arcs=[("A", "B")])
        out = extend_pdag(g)
        assert out.undirected_arcs == frozenset({("A", "B")})

    def test_orients_to_avoid_cycle(self):
        g = Graph("ABC", [("A", "B"), ("B", "C")], [("A", "C")])
        out = extend_pdag(g)
        assert ("A", "C") in out.directed_arcs

    def test_three_fork_rule(self):
        g = Graph("ABCD", [("C", "B"), ("D", "B")],
                  [("A", "B"), ("A", "C"), ("A", "D")])
        out = extend_pdag(g)
        assert ("A", "B") in out.directed_arcs

    def test_idempotent_and_preserves_directed(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            dag = random_dag(rng, 6)
            # relax a random subset of arcs to undirected
            und, directed = [], []
            for arc in dag.directed_arcs:
                (und if rng.random() < 0.5 else directed).append(arc)
            g = Graph(dag.nodes, directed, und)
            once = extend_pdag(g)
            assert extend_pdag(once) == once
            assert g.directed_arcs <= once.directed_arcs

    def test_flag_report(self):
        g = Graph("ABC", [("A", "C"), ("B", "C")], [("A", "B")])
        # either orientation of A - B creates a new shielded... both are fine
        out, flagged = propagate_directions(g)
        assert isinstance(flagged, tuple)


CPDAG = perfbench_module("cpdag")


def _pattern(dag):
    """The DAG's v-structure arcs directed, every other arc undirected."""
    v_arcs = {(p, c) for p1, c, p2 in find_vstructures(dag) for p in (p1, p2)}
    return Graph(dag.nodes, v_arcs, dag.directed_arcs - v_arcs)


def test_propagation_matches_the_meek_cpdag():
    rng = np.random.default_rng(91)
    dags = [random_dag(rng, int(rng.integers(3, 10)), float(rng.uniform(0.2, 0.6)))
            for _ in range(300)]
    for dag in dags + [alarm()]:
        out, flagged = propagate_directions(_pattern(dag))
        assert flagged == ()
        assert ((out.directed_arcs, out.undirected_arcs)
                == CPDAG.cpdag(dag.nodes, dag.directed_arcs)), dag.directed_arcs


def _random_pdag(rng):
    """Arcs of a random DAG, each kept directed or relaxed to undirected, and
    in 40% of the cases an allowed() veto banning about 20% of ordered pairs."""
    dag = random_dag(rng, int(rng.integers(2, 10)), float(rng.uniform(0.2, 0.7)))
    directed, undirected = [], []
    for arc in sorted(dag.directed_arcs):
        (undirected if rng.random() < 0.5 else directed).append(arc)
    allowed = None
    if rng.random() < 0.4:
        banned = {(u, v) for u in dag.nodes for v in dag.nodes
                  if u != v and rng.random() < 0.2}

        def allowed(u, v):
            return (u, v) not in banned
    return Graph(dag.nodes, directed, undirected), allowed


# sha256 over 2000 seeded PDAGs of (directed, undirected, flagged): any change
# to the orientation rules, the veto, the sweep order or the flag report shows
PROPAGATION_DIGEST = "5220a86a4dc3dad6ffbaf91be642dd696ebe9afd104d61b671934b08c344017d"


@pytest.mark.hash_seed
def test_propagation_golden_digest():
    rng = np.random.default_rng(92)
    rows, n_flagged, n_vetoed = [], 0, 0
    for _ in range(2000):
        g, allowed = _random_pdag(rng)
        out, flagged = propagate_directions(g, allowed)
        rows.append(repr((sorted(out.directed_arcs), sorted(out.undirected_arcs),
                          flagged)))
        n_flagged += bool(flagged)
        n_vetoed += allowed is not None
    assert n_flagged > 200 and n_vetoed > 600  # the digest pins both paths
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == PROPAGATION_DIGEST


class TestNparams:
    def _discrete(self, names, n_levels=3):
        cols = {n: CategoricalColumn(tuple("abcd"[:n_levels]),
                                     np.zeros(4, dtype=np.int64)) for n in names}
        return Dataset(tuple(names), cols)

    def test_single_ternary_node(self):
        d = self._discrete(["A"])
        assert nparams(empty_graph(["A"]), d) == 2

    def test_one_parent(self):
        d = self._discrete(["A", "B"])
        assert nparams(parse_modelstring("[A][B|A]"), d) == 2 + 3 * 2

    def test_gaussian(self):
        d = Dataset(("X", "Y"), {"X": NumericColumn(np.zeros(4)),
                                 "Y": NumericColumn(np.zeros(4))})
        assert nparams(parse_modelstring("[X][Y|X]"), d) == 2 + 3

    def test_errors(self):
        d = self._discrete(["A", "B"])
        with pytest.raises(GraphError):
            nparams(Graph("AB", undirected_arcs=[("A", "B")]), d)
        with pytest.raises(GraphError):
            nparams(parse_modelstring("[A][C|A]"), d)


class TestDot:
    def test_directed_and_undirected_edges(self):
        g = Graph("ABC", [("A", "B")], [("B", "C")])
        dot = to_dot(g)
        assert dot.startswith("digraph")
        assert '"A" -> "B";' in dot
        assert '"B" -> "C" [dir=none];' in dot


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph("AB", [("A", "A")])

    def test_rejects_overlap(self):
        with pytest.raises(GraphError):
            Graph("AB", [("A", "B")], [("A", "B")])
        with pytest.raises(GraphError):
            Graph("AB", [("A", "B"), ("B", "A")])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(GraphError):
            Graph("AB", [("A", "Z")])

    def test_rejects_cycle(self):
        with pytest.raises(CycleError):
            Graph("ABC", [("A", "B"), ("B", "C"), ("C", "A")])

    def test_topological_order_label_ties(self):
        g = parse_modelstring(SIXNODE)
        assert topological_order(g) == ["A", "B", "C", "D", "F", "E"]

    @pytest.mark.parametrize("arcs,undirected,message", [
        ({("C", "C"), ("B", "B")}, (), "self-loop on 'B'"),
        ({("A", "Z"), ("A", "Y")}, (), "arc endpoint not in node set: 'A' -> 'Y'"),
        ((), {("B", "Z"), ("A", "Z")}, "arc endpoint not in node set: 'A' - 'Z'"),
        ({("A", "B"), ("B", "A"), ("C", "D"), ("D", "C")}, (),
         "both orientations of 'A'/'B' are directed"),
        ({("C", "D"), ("A", "B")}, {("D", "C"), ("B", "A")},
         "'A'/'B' is both directed and undirected"),
    ])
    def test_an_error_names_the_smallest_offending_arc(self, arcs, undirected, message):
        with pytest.raises(GraphError) as info:
            Graph("ABCD", arcs, undirected)
        assert str(info.value) == message


def _sorted_frontier_order(g):
    """topological_order as it was with by_label=True: pop the head of a frontier
    that is sorted again after each node that frees a child."""
    indeg = {n: len(g.parents(n)) for n in g.nodes}
    frontier = sorted(n for n in g.nodes if indeg[n] == 0)
    order = []
    while frontier:
        n = frontier.pop(0)
        order.append(n)
        added = False
        for c in g.children(n):
            indeg[c] -= 1
            if indeg[c] == 0:
                frontier.append(c)
                added = True
        if added:
            frontier.sort()
    return order


def test_topological_order_is_the_sorted_frontier_walk():
    rng = np.random.default_rng(27)
    for _ in range(300):
        g = random_dag(rng, int(rng.integers(1, 16)), float(rng.uniform(0.05, 0.6)))
        order = topological_order(g)
        assert order == _sorted_frontier_order(g)
        assert sorted(order) == sorted(g.nodes)


@pytest.mark.hash_seed
def test_order_and_messages_do_not_depend_on_the_hash_seed():
    script = """
from bnsl import Graph, GraphError, parse_modelstring
from bnsl.graph import topological_order
print(topological_order(parse_modelstring("[A][B|A][C|A][D|A][E|A][F|A]")))
print(topological_order(Graph("FEDCBA", {(u, "F") for u in "ABCDE"})))
for arcs, undirected in [({("A", "B"), ("B", "A"), ("C", "D"), ("D", "C")}, ()),
                         ({("C", "C"), ("B", "B"), ("D", "D")}, ()),
                         ({("D", "Z"), ("C", "Y"), ("B", "X")}, ()),
                         ((), {("D", "Z"), ("C", "Y"), ("B", "X")}),
                         ({("C", "D"), ("A", "B")}, {("D", "C"), ("B", "A")})]:
    try:
        Graph("ABCD", arcs, undirected)
    except GraphError as exc:
        print(exc)
"""
    outputs = under_hash_seeds(script)
    assert outputs[0] == outputs[1] == "\n".join([
        "['A', 'B', 'C', 'D', 'E', 'F']",
        "['A', 'B', 'C', 'D', 'E', 'F']",
        "both orientations of 'A'/'B' are directed",
        "self-loop on 'B'",
        "arc endpoint not in node set: 'B' -> 'X'",
        "arc endpoint not in node set: 'B' - 'X'",
        "'A'/'B' is both directed and undirected",
    ]) + "\n"


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=8))
def test_roundtrip_property(seed, n_nodes):
    rng = np.random.default_rng(seed)
    g = random_dag(rng, n_nodes)
    assert parse_modelstring(format_modelstring(g)) == g
