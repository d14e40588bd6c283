"""Whitelist/blacklist normalization algebra."""

import numpy as np
import pytest

from bnsl import (ArcList, CycleError, Graph, PriorError, PriorKnowledge,
                  normalize_priors)

NODES = ("A", "B", "C", "D")


def norm(wl=(), bl=()):
    return normalize_priors(PriorKnowledge(ArcList(tuple(wl)), ArcList(tuple(bl))),
                            NODES)


class TestNormalization:
    def test_both_direction_whitelist_leaves_orientation_free(self):
        c = norm(wl=[("A", "B"), ("B", "A")])
        assert ("A", "B") in c.required_edges
        assert not c.forced_arcs
        assert c.arc_allowed("A", "B") and c.arc_allowed("B", "A")
        assert c.undirected_allowed("A", "B")

    def test_both_direction_blacklist_removes_pair(self):
        c = norm(bl=[("A", "B"), ("B", "A")])
        assert not c.edge_allowed("A", "B")
        assert not c.undirected_allowed("A", "B")

    def test_single_whitelist_forces_direction(self):
        c = norm(wl=[("A", "B")])
        assert ("A", "B") in c.forced_arcs
        assert not c.arc_allowed("B", "A")
        assert not c.undirected_allowed("A", "B")
        assert c.arc_allowed("A", "B")

    def test_single_blacklist_leaves_reverse_available(self):
        c = norm(bl=[("A", "B")])
        assert not c.arc_allowed("A", "B")
        assert c.arc_allowed("B", "A")
        assert not c.undirected_allowed("A", "B")
        assert c.edge_allowed("A", "B")  # may still exist as B -> A

    def test_conflict_resolved_to_whitelist(self):
        c = norm(wl=[("A", "B")], bl=[("A", "B")])
        assert ("A", "B") in c.forced_arcs
        assert c.arc_allowed("A", "B")

    def test_whitelist_cycle_rejected(self):
        with pytest.raises(PriorError, match="cycle"):
            norm(wl=[("A", "B"), ("B", "C"), ("C", "A")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(PriorError):
            norm(wl=[("A", "Z")])

    def test_self_loop_rejected(self):
        with pytest.raises(PriorError):
            norm(bl=[("A", "A")])

    def test_no_pair_both_listed_after_normalization(self):
        c = norm(wl=[("A", "B"), ("C", "D")], bl=[("A", "B"), ("D", "C")])
        assert not (c.forced_arcs & c.forbidden_arcs)

    def test_whitelisted_both_plus_blacklisted_one_direction(self):
        # whitelist beats the blacklist orientation by orientation
        c = norm(wl=[("A", "B"), ("B", "A")], bl=[("B", "A")])
        assert ("A", "B") in c.required_edges

    def test_empty_priors(self):
        c = normalize_priors(None, NODES)
        assert not (c.forced_arcs or c.required_edges or c.forbidden_arcs)
        assert c.arc_allowed("A", "B")

    def test_forced_adjacency(self):
        c = norm(wl=[("A", "B"), ("C", "D"), ("D", "C")])
        adj = c.forced_adjacency()
        assert adj["A"] == {"B"} and adj["B"] == {"A"}
        assert adj["C"] == {"D"} and adj["D"] == {"C"}


class TestArcList:
    def test_duplicate_rows_rejected(self):
        with pytest.raises(PriorError, match="duplicate rows in arc list: 'C' -> 'A'$"):
            ArcList((("A", "B"), ("C", "A"), ("B", "C"), ("C", "A")))

    def test_iteration_and_len(self):
        rows = ArcList((("A", "B"), ("B", "C")))
        assert len(rows) == 2
        assert list(rows) == [("A", "B"), ("B", "C")]

    def test_priors_accept_plain_iterables(self):
        p = PriorKnowledge(whitelist=[("A", "B")], blacklist=[("B", "C")])
        assert isinstance(p.whitelist, ArcList)
        assert ("A", "B") in p.whitelist.rows


def _reference(wl, bl, u, v):
    """(arc_allowed(u, v), edge_allowed(u, v), undirected_allowed(u, v)) from the rules.

    An arc on both lists is whitelisted. A pair whitelisted both ways is
    required and free; a single-orientation whitelist bans the reverse arc
    and the undirected form. A blacklisted arc is banned together with the
    undirected form; blacklisting both orientations removes the pair.
    """
    bl = bl - wl
    forced = {(a, b) for a, b in wl if (b, a) not in wl}
    arc = (u, v) not in bl and (v, u) not in forced
    edge = not ((u, v) in bl and (v, u) in bl)
    required = (u, v) in wl and (v, u) in wl
    listed = {(u, v), (v, u)} & (wl | bl)
    return arc, edge, required or not listed


@pytest.mark.parametrize("n_nodes", [4, 5])
def test_predicates_match_the_rules(n_nodes):
    rng = np.random.default_rng(2010 + n_nodes)
    nodes = "ABCDE"[:n_nodes]
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    checked = 0
    for _ in range(400):
        p_white, p_black = rng.uniform(0.0, 0.4, size=2)
        wl = {pair for pair in pairs if rng.random() < p_white}
        bl = {pair for pair in pairs if rng.random() < p_black}
        priors = PriorKnowledge(ArcList(tuple(sorted(wl))), ArcList(tuple(sorted(bl))))
        forced = [(a, b) for a, b in wl if (b, a) not in wl]
        try:
            c = normalize_priors(priors, nodes)
        except PriorError:
            with pytest.raises(CycleError):
                Graph(nodes, forced)
            continue
        for u, v in pairs:
            got = (c.arc_allowed(u, v), c.edge_allowed(u, v), c.undirected_allowed(u, v))
            assert got == _reference(wl, bl, u, v), (sorted(wl), sorted(bl), u, v)
        checked += 1
    assert checked > 200
