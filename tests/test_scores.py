"""Network scores: hand values, equivalence classes, delta scoring, caching."""

import itertools
import math

import numpy as np
import pytest

from bnsl import (Dataset, Graph, HillClimbConfig, ScoreCache, ScoreError,
                  ScoreSpec, empty_graph, find_vstructures, forward_sample,
                  hill_climb, local_score, network_score, parse_modelstring,
                  score_delta)
import bnsl.data
import bnsl.scores
from bnsl.data import CategoricalColumn, DataError, NumericColumn, family_counts
from bnsl.networks import alarm_fitted
from bnsl.scores import _toggle_scores
from bnsl.special import lgamma_array

from helpers import perfbench_module, random_discrete_dataset, random_gaussian_dataset


def _binary_5050(n=100):
    codes = np.array([0]
                     * (n // 2) + [1] * (n // 2))
    return Dataset(("A",), {"A": CategoricalColumn(("a", "b"), codes)})


def all_dags(nodes):
    """Every DAG over the given nodes (25 for three nodes)."""
    pairs = list(itertools.combinations(nodes, 2))
    seen = []
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        arcs = []
        for (a, b), s in zip(pairs, states):
            if s == 1:
                arcs.append((a, b))
            elif s == 2:
                arcs.append((b, a))
        try:
            seen.append(Graph(nodes, arcs))
        except Exception:
            continue
    return seen


def equivalence_classes(dags):
    """Group DAGs by (skeleton, v-structures)."""
    groups = {}
    for g in dags:
        skel = frozenset(tuple(sorted(a)) for a in g.directed_arcs)
        key = (skel, find_vstructures(g))
        groups.setdefault(key, []).append(g)
    return list(groups.values())


class TestLocalScoreHandValues:
    def test_loglik_fair_coin(self):
        d = _binary_5050()
        got = local_score("A", [], d, ScoreSpec(kind="loglik"))
        assert got == pytest.approx(-100 * math.log(2), abs=1e-9)

    def test_k2_one_one(self):
        codes = np.array([0, 1])
        d = Dataset(("A",), {"A": CategoricalColumn(("a", "b"), codes)})
        got = local_score("A", [], d, ScoreSpec(kind="k2"))
        assert got == pytest.approx(math.log(1 / 6), abs=1e-12)

    def test_bic_fair_coin(self):
        d = _binary_5050()
        got = local_score("A", [], d, ScoreSpec(kind="bic"))
        assert got == pytest.approx(-100 * math.log(2) - 0.5 * math.log(100),
                                    abs=1e-9)

    def test_aic_penalty_coefficient(self):
        d = _binary_5050()
        ll = local_score("A", [], d, ScoreSpec(kind="loglik"))
        assert local_score("A", [], d, ScoreSpec(kind="aic")) == \
            pytest.approx(ll - 1.0)
        assert local_score("A", [], d, ScoreSpec(kind="aic", penalty=2.5)) == \
            pytest.approx(ll - 2.5)

    def test_lik_is_exp_loglik(self):
        codes = np.array([0, 0, 1, 1])
        d = Dataset(("A",), {"A": CategoricalColumn(("a", "b"), codes)})
        ll = local_score("A", [], d, ScoreSpec(kind="loglik"))
        assert local_score("A", [], d, ScoreSpec(kind="lik")) == \
            pytest.approx(math.exp(ll))

    def test_lik_underflow_is_faithful_zero(self):
        # the likelihood of 5000 rows is ~1e-3000: 0.0 is the nearest double
        rng = np.random.default_rng(40)
        codes = (rng.random(5000) < 0.2).astype(np.int64)
        d = Dataset(("A",), {"A": CategoricalColumn(("a", "b"), codes)})
        assert network_score(empty_graph(("A",)), d, ScoreSpec(kind="lik")) == 0.0

    def test_node_cannot_parent_itself(self):
        d = _binary_5050()
        with pytest.raises(ScoreError):
            local_score("A", ["A"], d, ScoreSpec(kind="loglik"))

    @pytest.mark.parametrize("kind", bnsl.scores.SCORE_LABELS)
    def test_repeated_parent_rejected(self, kind):
        # a repeated parent used to add one more digit to the discrete counts
        if kind == "bge":
            d = random_gaussian_dataset(np.random.default_rng(42), ["CVP", "HIST", "HR"], 80)
        else:
            d = forward_sample(alarm_fitted(1), 500, seed=3)
        spec = ScoreSpec(kind=kind)
        message = "parent 'CVP' of 'HIST' is listed twice"
        with pytest.raises(ScoreError, match=message):
            local_score("HIST", ["CVP", "CVP"], d, spec)
        with pytest.raises(ScoreError, match=message):
            _toggle_scores("HIST", ["CVP", "CVP"], ["HR"], d, spec)

    def test_bge_unknown_column(self):
        d = random_gaussian_dataset(np.random.default_rng(43), ["A", "B", "C"], 50)
        spec = ScoreSpec(kind="bge")
        for node, parents in (("Q", ["A"]), ("A", ["Q"]), ("A", ["B", "Q"])):
            with pytest.raises(DataError, match="unknown column 'Q'"):
                local_score(node, parents, d, spec)
        for node, parents, others in (("Q", [], ["A"]), ("A", ["B"], ["C", "Q"]),
                                      ("A", ["Q"], ["B"])):
            with pytest.raises(DataError, match="unknown column 'Q'"):
                _toggle_scores(node, parents, others, d, spec)

    def test_kind_data_mismatch(self):
        d = _binary_5050()
        with pytest.raises(ScoreError):
            local_score("A", [], d, ScoreSpec(kind="bge"))
        rng = np.random.default_rng(41)
        g = random_gaussian_dataset(rng, ["X"], 50)
        with pytest.raises(ScoreError):
            local_score("X", [], g, ScoreSpec(kind="bic"))

    def test_unknown_kind(self):
        with pytest.raises(ScoreError):
            ScoreSpec(kind="wishful")

    @pytest.mark.parametrize("kind,field,value", [
        ("bde", "iss", math.nan), ("bde", "iss", math.inf),
        ("bic", "penalty", math.nan), ("aic", "penalty", math.inf),
        ("bic", "penalty", -1.0), ("bge", "bge_dof", math.nan),
        ("bge", "bge_dof", math.inf)])
    def test_bad_hyperparameter_rejected(self, kind, field, value):
        with pytest.raises(ScoreError, match=field):
            ScoreSpec(kind=kind, **{field: value})


class TestNetworkScore:
    def test_decomposition_empty_graph(self):
        rng = np.random.default_rng(42)
        d = random_discrete_dataset(rng, ["A", "B", "C"], 200)
        spec = ScoreSpec(kind="loglik")
        total = network_score(empty_graph(d.names), d, spec)
        assert total == pytest.approx(sum(local_score(n, [], d, spec)
                                          for n in d.names))

    def test_bde_score_equivalent_two_node(self):
        rng = np.random.default_rng(43)
        d = random_discrete_dataset(rng, ["A", "B"], 500)
        spec = ScoreSpec(kind="bde")
        ab = network_score(parse_modelstring("[A][B|A]"), d, spec)
        ba = network_score(parse_modelstring("[B][A|B]"), d, spec)
        assert ab == pytest.approx(ba, rel=1e-10)

    def test_k2_not_score_equivalent(self):
        # skewed two-node data separates the K2 scores of A->B and B->A
        codes_a = np.array([0] * 70 + [1] * 30)
        codes_b = np.array(([0] * 60 + [1] * 10) + ([0] * 5 + [1] * 25))
        d = Dataset(("A", "B"), {
            "A": CategoricalColumn(("a", "b"), codes_a),
            "B": CategoricalColumn(("a", "b"), codes_b),
        })
        spec = ScoreSpec(kind="k2")
        ab = network_score(parse_modelstring("[A][B|A]"), d, spec)
        ba = network_score(parse_modelstring("[B][A|B]"), d, spec)
        assert abs(ab - ba) > 1e-6

    def test_rejects_pdag(self):
        from bnsl.graph import set_undirected
        rng = np.random.default_rng(44)
        d = random_discrete_dataset(rng, ["A", "B"], 50)
        g = set_undirected(empty_graph(d.names), "A", "B")
        with pytest.raises(Exception):
            network_score(g, d, ScoreSpec(kind="bic"))

    def test_permuting_node_order_never_changes_total(self):
        rng = np.random.default_rng(45)
        d = random_discrete_dataset(rng, ["A", "B", "C"], 300)
        g1 = parse_modelstring("[A][B|A][C|B]")
        g2 = parse_modelstring("[A][B|A][C|B]", nodes=("C", "B", "A"))
        spec = ScoreSpec(kind="bde")
        assert network_score(g1, d, spec) == pytest.approx(
            network_score(g2, d, spec), rel=1e-12)

    def test_row_duplication_doubles_loglik(self):
        rng = np.random.default_rng(46)
        d = random_discrete_dataset(rng, ["A", "B"], 100)
        doubled = Dataset(d.names, {
            n: CategoricalColumn(d.levels(n), np.concatenate([d.codes(n)] * 2))
            for n in d.names})
        g = parse_modelstring("[A][B|A]")
        spec = ScoreSpec(kind="loglik")
        assert network_score(g, doubled, spec) == pytest.approx(
            2 * network_score(g, d, spec), rel=1e-12)


class TestEquivalenceClasses:
    def test_three_node_classes_discrete(self):
        rng = np.random.default_rng(47)
        dags = all_dags(("A", "B", "C"))
        assert len(dags) == 25
        classes = equivalence_classes(dags)
        for trial in range(3):
            d = random_discrete_dataset(rng, ["A", "B", "C"], 200)
            for kind in ("loglik", "aic", "bic", "bde"):
                spec = ScoreSpec(kind=kind)
                for group in classes:
                    scores = [network_score(g, d, spec) for g in group]
                    ref = scores[0]
                    for s in scores[1:]:
                        assert s == pytest.approx(ref, rel=1e-8, abs=1e-8)

    def test_three_node_classes_bge(self):
        rng = np.random.default_rng(48)
        dags = all_dags(("A", "B", "C"))
        classes = equivalence_classes(dags)
        for trial in range(3):
            d = random_gaussian_dataset(rng, ["A", "B", "C"], 150)
            spec = ScoreSpec(kind="bge")
            for group in classes:
                scores = [network_score(g, d, spec) for g in group]
                ref = scores[0]
                for s in scores[1:]:
                    assert s == pytest.approx(ref, rel=1e-8, abs=1e-8)

    def test_k2_exposes_within_class_difference(self):
        rng = np.random.default_rng(49)
        d = random_discrete_dataset(rng, ["A", "B", "C"], 200)
        spec = ScoreSpec(kind="k2")
        found = False
        for group in equivalence_classes(all_dags(("A", "B", "C"))):
            if len(group) < 2:
                continue
            scores = [network_score(g, d, spec) for g in group]
            if max(scores) - min(scores) > 1e-6:
                found = True
        assert found


class TestBge:
    def test_two_node_equivalence(self):
        rng = np.random.default_rng(50)
        vals = rng.standard_normal(120)
        d = Dataset(("X", "Y"), {
            "X": NumericColumn(vals),
            "Y": NumericColumn(0.8 * vals + 0.6 * rng.standard_normal(120)),
        })
        spec = ScoreSpec(kind="bge")
        xy = network_score(parse_modelstring("[X][Y|X]"), d, spec)
        yx = network_score(parse_modelstring("[Y][X|Y]"), d, spec)
        assert xy == pytest.approx(yx, rel=1e-8)

    def test_prefers_true_edge_on_dependent_data(self):
        rng = np.random.default_rng(51)
        n = 500
        x = rng.standard_normal(n)
        d = Dataset(("X", "Y"), {
            "X": NumericColumn(x),
            "Y": NumericColumn(2.0 * x + 0.5 * rng.standard_normal(n)),
        })
        spec = ScoreSpec(kind="bge")
        with_edge = network_score(parse_modelstring("[X][Y|X]"), d, spec)
        without = network_score(empty_graph(("X", "Y")), d, spec)
        assert with_edge > without

    def test_prefers_empty_on_independent_data(self):
        rng = np.random.default_rng(52)
        d = random_gaussian_dataset(rng, ["X", "Y"], 1000)
        spec = ScoreSpec(kind="bge")
        with_edge = network_score(parse_modelstring("[X][Y|X]"), d, spec)
        without = network_score(empty_graph(("X", "Y")), d, spec)
        assert without > with_edge

    def test_iss_validation(self):
        with pytest.raises(ScoreError):
            ScoreSpec(kind="bge", iss=0.0)


class TestScoreDelta:
    def _setup(self, seed=53):
        rng = np.random.default_rng(seed)
        d = random_discrete_dataset(rng, ["A", "B", "C", "D", "E"], 300)
        g = parse_modelstring("[A][B|A][C|B][D][E|D]",
                              nodes=("A", "B", "C", "D", "E"))
        return d, g

    def test_add_then_delete_cancels(self):
        d, g = self._setup()
        spec = ScoreSpec(kind="bic")
        cache = ScoreCache()
        up = score_delta(g, ("add", "A", "C"), d, spec, cache)
        from bnsl.hillclimb import apply_move
        g2 = apply_move(g, ("add", "A", "C"))
        down = score_delta(g2, ("delete", "A", "C"), d, spec, cache)
        assert up + down == pytest.approx(0.0, abs=1e-9)

    def test_delta_equals_full_rescore(self):
        rng = np.random.default_rng(54)
        from bnsl.hillclimb import apply_move, enumerate_moves
        for trial in range(10):
            d = random_discrete_dataset(rng, ["A", "B", "C", "D", "E"], 150)
            from helpers import random_dag
            g = random_dag(rng, 5, p_edge=0.4)
            g = Graph([f"N{i}" for i in range(5)], g.directed_arcs)
            d = random_discrete_dataset(rng, list(g.nodes), 150)
            spec = ScoreSpec(kind="bde")
            cache = ScoreCache()
            base = network_score(g, d, spec)
            for move in enumerate_moves(g):
                delta = score_delta(g, move, d, spec, cache)
                full = network_score(apply_move(g, move), d, spec) - base
                assert delta == pytest.approx(full, abs=1e-9)

    def test_reverse_is_delete_plus_add(self):
        d, g = self._setup()
        spec = ScoreSpec(kind="bic")
        cache = ScoreCache()
        from bnsl.hillclimb import apply_move
        rev = score_delta(g, ("reverse", "A", "B"), d, spec, cache)
        mid = apply_move(g, ("delete", "A", "B"))
        composed = (score_delta(g, ("delete", "A", "B"), d, spec, cache)
                    + score_delta(mid, ("add", "B", "A"), d, spec, cache))
        assert rev == pytest.approx(composed, abs=1e-12)

    def test_illegal_moves_rejected(self):
        d, g = self._setup()
        spec = ScoreSpec(kind="bic")
        with pytest.raises(ScoreError):
            score_delta(g, ("add", "A", "B"), d, spec)  # already present
        with pytest.raises(ScoreError):
            score_delta(g, ("delete", "B", "A"), d, spec)  # absent
        with pytest.raises(ScoreError):
            score_delta(g, ("reverse", "C", "A"), d, spec)
        with pytest.raises(ScoreError, match="illegal add B -> A"):
            score_delta(g, ("add", "B", "A"), d, spec)  # the reverse is present


class TestBdeBicSanity:
    def test_small_iss_bde_ranking_approaches_bic(self):
        # fixed 3-node instance at large n: the bde (iss -> 0+) ordering of
        # candidate parent sets for one node tracks the bic ordering
        rng = np.random.default_rng(57)
        n = 4000
        a = rng.integers(0, 3, n)
        b = (a + (rng.random(n) < 0.2)) % 3
        c = rng.integers(0, 3, n)
        d = Dataset(("A", "B", "C"), {
            "A": CategoricalColumn(("x", "y", "z"), a),
            "B": CategoricalColumn(("x", "y", "z"), b),
            "C": CategoricalColumn(("x", "y", "z"), c),
        })
        parent_sets = [[], ["A"], ["C"], ["A", "C"]]
        bic = [local_score("B", ps, d, ScoreSpec(kind="bic"))
               for ps in parent_sets]
        bde = [local_score("B", ps, d, ScoreSpec(kind="bde", iss=1e-3))
               for ps in parent_sets]
        assert np.argsort(bic).tolist() == np.argsort(bde).tolist()


class TestHillClimbGlobalOptimumReport:
    def test_three_node_exhaustive_report(self):
        # every 3-node DAG is scoreable, so the global optimum is known;
        # local optima are expected, so this records the hit fraction
        # rather than pinning a threshold
        from bnsl import HillClimbConfig, hill_climb
        rng = np.random.default_rng(58)
        dags = all_dags(("A", "B", "C"))
        hits = 0
        trials = 20
        for _ in range(trials):
            d = random_discrete_dataset(rng, ["A", "B", "C"], 150)
            spec = ScoreSpec(kind="bic")
            best = max(network_score(g, d, spec) for g in dags)
            learned, _ = hill_climb(d, HillClimbConfig(score="bic"))
            if network_score(learned, d, spec) >= best - 1e-9:
                hits += 1
        fraction = hits / trials
        print(f"hill-climb reached the global bic optimum in {fraction:.0%} "
              f"of {trials} exhaustively checked 3-node instances")
        assert 0.0 <= fraction <= 1.0
        assert hits > 0  # finding it never would indicate a search bug


def _dirichlet_reference(d, node, parents, spec):
    """bde/k2 local score with lgamma_array evaluated on the counts directly."""
    counts, q = family_counts(d, node, sorted(parents))
    R = counts.shape[0]
    totals = counts.sum(axis=0)
    seen = totals > 0
    if spec.kind == "k2":
        value = float(lgamma_array(counts[:, seen] + 1.0).sum())
        value += counts[:, seen].shape[1] * math.lgamma(R)
        return value - float(lgamma_array(totals[seen] + R).sum())
    a_cell, a_col = spec.iss / (R * q), spec.iss / q
    value = float(lgamma_array(counts[:, seen] + a_cell).sum())
    value -= counts[:, seen].size * math.lgamma(a_cell)
    value += int(seen.sum()) * math.lgamma(a_col)
    return value - float(lgamma_array(totals[seen] + a_col).sum())


class TestLgammaTables:
    """bde/k2 read lgamma(count + a) from per-dataset tables, bit for bit."""

    SPECS = [ScoreSpec("k2"), ScoreSpec("bde", iss=1.0), ScoreSpec("bde", iss=7.5),
             ScoreSpec("bde", iss=0.3), ScoreSpec("bde", iss=120.0)]

    def _families(self, d, rng, count):
        for _ in range(count):
            k = int(rng.integers(0, 5))
            node, *parents = (str(v) for v in rng.choice(d.names, size=k + 1,
                                                         replace=False))
            yield node, parents

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.iss}")
    def test_equal_to_direct_lgamma(self, spec):
        rng = np.random.default_rng(21)
        d = forward_sample(alarm_fitted(1), 400, seed=21)
        for node, parents in self._families(d, rng, 60):
            assert local_score(node, parents, d, spec) == \
                _dirichlet_reference(d, node, parents, spec)
        assert any(key[0] == "lgamma" for key in d._memo)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.iss}")
    def test_above_cap_evaluates_directly(self, spec, monkeypatch):
        rng = np.random.default_rng(22)
        d = random_discrete_dataset(rng, ["A", "B", "C", "D", "E"], 300)
        monkeypatch.setattr(bnsl.scores, "_LGAMMA_TABLE_CAP", d.n)
        for node, parents in self._families(d, rng, 30):
            assert local_score(node, parents, d, spec) == \
                _dirichlet_reference(d, node, parents, spec)
        assert not any(key[0] == "lgamma" for key in d._memo)

    def test_alarm_hill_climb_builds_few_tables(self):
        d = forward_sample(alarm_fitted(1), 2000, seed=5)
        hill_climb(d, HillClimbConfig(score=ScoreSpec("bde", iss=1.0)))
        tables = [v for key, v in d._memo.items() if key[0] == "lgamma"]
        assert 0 < len(tables) <= 48
        assert all(t.shape == (d.n + 1,) for t in tables)
        assert d.n + 1 <= bnsl.scores._LGAMMA_TABLE_CAP


class TestScoreCache:
    def test_identical_keys_identical_values(self):
        rng = np.random.default_rng(55)
        d = random_discrete_dataset(rng, ["A", "B"], 200)
        spec = ScoreSpec(kind="bde")
        cache = ScoreCache()
        g = parse_modelstring("[A][B|A]")
        v1 = network_score(g, d, spec, cache)
        v2 = network_score(g, d, spec, cache)
        assert v1 == v2
        assert cache.hits > 0
        assert len(cache) == 2

    def test_cached_equals_uncached(self):
        rng = np.random.default_rng(56)
        d = random_discrete_dataset(rng, ["A", "B", "C"], 150)
        g = parse_modelstring("[A][B|A][C|A:B]")
        spec = ScoreSpec(kind="bic")
        assert network_score(g, d, spec, ScoreCache()) == \
            network_score(g, d, spec, None)


class TestBgePinned:
    # values the bge score gave before it read its scatter matrix from the
    # dataset's shared Gaussian moments; they must stay bit-identical
    @pytest.mark.parametrize("iss,dof,node,parents,expected", [
        (1.0, None, "A", (), -95.24575194664928),
        (1.0, None, "B", ("A",), -94.95036406813418),
        (1.0, None, "C", ("A", "B"), -103.05501625315725),
        (1.0, None, "E", ("A", "B", "C"), -163.37974320579116),
        (4.0, 9.0, "A", (), -93.30856299598152),
        (4.0, 9.0, "B", ("A",), -93.21011940761325),
        (4.0, 9.0, "C", ("A", "B"), -104.37511698918075),
        (4.0, 9.0, "E", ("A", "B", "C"), -158.98381234697024),
    ])
    def test_local_scores(self, iss, dof, node, parents, expected):
        rng = np.random.default_rng(2009)
        n = 60
        a = rng.standard_normal(n)
        b = 0.8 * a + rng.standard_normal(n)
        c = 2.0 + 0.5 * a - 0.7 * b + rng.standard_normal(n)
        e = 3.0 * rng.standard_normal(n) - 1.0
        d = Dataset(("A", "B", "C", "E"), {
            k: NumericColumn(v) for k, v in zip("ABCE", (a, b, c, e))})
        spec = ScoreSpec(kind="bge", iss=iss, bge_dof=dof)
        assert local_score(node, parents, d, spec) == expected


def _bge_set_reference(ctx, subset):
    """A log_set_marginals value as one expression, with no per-size or per-set cache."""
    idx = sorted(ctx.index[c] for c in subset)
    l = len(idx)
    a = ctx.alpha_w - ctx.nvar + l
    _, logdet = np.linalg.slogdet(ctx.posterior[np.ix_(idx, idx)])
    return (-(l * ctx.n / 2.0) * math.log(math.pi)
            + (l / 2.0) * math.log(ctx.alpha_mu / (ctx.alpha_mu + ctx.n))
            + ctx._log_multigamma(l, (a + ctx.n) / 2.0)
            - ctx._log_multigamma(l, a / 2.0)
            + (a / 2.0) * l * ctx.log_t
            - ((a + ctx.n) / 2.0) * logdet)


class TestBgeSetMarginal:
    @pytest.mark.parametrize("spec", [ScoreSpec("bge"),
                                      ScoreSpec("bge", iss=4.0, bge_dof=15.0)],
                             ids=["default", "iss4-dof15"])
    def test_equal_to_uncached_formula(self, spec):
        rng = np.random.default_rng(31)
        names = [f"V{i}" for i in range(8)]
        d = random_gaussian_dataset(rng, names, 90)
        ctx = bnsl.scores._bge_context(d, spec)
        for size in range(1, 7):
            for _ in range(12):
                subset = [str(c) for c in rng.choice(names, size, replace=False)]
                assert ctx.log_set_marginals([subset])[0] == _bge_set_reference(ctx, subset)


    @pytest.mark.parametrize("spec", [ScoreSpec("bge"),
                                      ScoreSpec("bge", iss=4.0, bge_dof=15.0)],
                             ids=["default", "iss4-dof15"])
    def test_stacked_equal_to_uncached_formula(self, spec):
        # the uncached sets of one size share one stacked slogdet
        rng = np.random.default_rng(32)
        names = [f"V{i}" for i in range(8)]
        d = random_gaussian_dataset(rng, names, 90)
        ctx = bnsl.scores._bge_context(d, spec)
        subsets = [[str(c) for c in rng.choice(names, int(rng.integers(0, 7)), replace=False)]
                   for _ in range(80)]
        got = ctx.log_set_marginals(subsets)
        assert got == [_bge_set_reference(ctx, s) if s else 0.0 for s in subsets]


def _outcome(score):
    """score()'s value, or the type and message of the error it raises."""
    try:
        return score()
    except (DataError, ScoreError) as exc:
        return type(exc), str(exc)


def _toggle_cases(rng, names, count, max_base=4):
    """(node, parents, others) rows: 0..max_base parents, others mixing adds and deletes."""
    for _ in range(count):
        node = str(rng.choice(names))
        rest = [c for c in names if c != node]
        parents = [str(c) for c in rng.choice(rest, int(rng.integers(0, max_base + 1)),
                                               replace=False)]
        others = [str(c) for c in rng.choice(rest, int(rng.integers(1, len(rest) + 1)),
                                             replace=False)]
        yield node, parents, others


class TestToggleScores:
    """A row of _toggle_scores equals local_score family by family, with ==.

    A row that fails raises what the first failing family raises alone.
    """

    DISCRETE = [ScoreSpec("loglik"), ScoreSpec("aic"), ScoreSpec("bic"),
                ScoreSpec("bic", penalty=3.5), ScoreSpec("bde", iss=1.0),
                ScoreSpec("bde", iss=7.5), ScoreSpec("k2"), ScoreSpec("lik")]

    @staticmethod
    def _check(d, spec, cases):
        adds = deletes = 0
        for node, parents, others in cases:
            row = _outcome(lambda: _toggle_scores(node, frozenset(parents), others, d, spec))
            single = [_outcome(lambda u=u: local_score(node, set(parents) ^ {u}, d, spec))
                      for u in others]
            first_error = next((s for s in single if isinstance(s, tuple)), None)
            assert row == (single if first_error is None else first_error)
            deletes += len(set(others) & set(parents))
            adds += len(set(others) - set(parents))
        return adds, deletes

    @pytest.mark.parametrize("spec", DISCRETE, ids=lambda s: f"{s.kind}-{s.iss}-{s.penalty}")
    def test_discrete_rows_equal_local_score(self, spec):
        rng = np.random.default_rng(61)
        d = forward_sample(alarm_fitted(1), 2000, seed=61)
        adds, deletes = self._check(d, spec, _toggle_cases(rng, list(d.names), 30))
        assert adds > 100 and deletes > 20

    @pytest.mark.parametrize("spec", [ScoreSpec("bge"),
                                      ScoreSpec("bge", iss=4.0, bge_dof=50.0)],
                             ids=["default", "iss4-dof50"])
    def test_bge_rows_equal_local_score_on_gauss40(self, spec):
        workloads = perfbench_module("workloads")
        rng = np.random.default_rng(62)
        d = forward_sample(workloads.gauss40_network(), 500, seed=62)
        adds, deletes = self._check(d, spec, _toggle_cases(rng, list(d.names), 30))
        assert adds > 100 and deletes > 20

    @pytest.mark.parametrize("spec", [ScoreSpec("k2"), ScoreSpec("bde", iss=2.0)],
                             ids=["k2", "bde"])
    def test_above_lgamma_table_cap(self, spec, monkeypatch):
        rng = np.random.default_rng(63)
        d = forward_sample(alarm_fitted(1), 700, seed=63)
        monkeypatch.setattr(bnsl.scores, "_LGAMMA_TABLE_CAP", d.n)
        self._check(d, spec, _toggle_cases(rng, list(d.names), 15))
        assert not any(key[0] == "lgamma" for key in d._memo)

    @pytest.mark.parametrize("spec", [ScoreSpec("bic"), ScoreSpec("bde")], ids=["bic", "bde"])
    def test_configuration_cap(self, spec, monkeypatch):
        rng = np.random.default_rng(64)
        d = forward_sample(alarm_fitted(1), 300, seed=64)
        monkeypatch.setattr(bnsl.data, "_MAX_PARENT_CONFIGS", 40)
        cases = list(_toggle_cases(rng, list(d.names), 40))
        self._check(d, spec, cases)
        failing = [_outcome(lambda c=c: _toggle_scores(*c, d, spec)) for c in cases]
        assert sum(isinstance(f, tuple) and "too large" in f[1] for f in failing) > 5
        assert sum(isinstance(f, list) for f in failing) > 5

    @pytest.mark.parametrize("kind", ["bic", "k2"])
    def test_unknown_column(self, kind):
        d = forward_sample(alarm_fitted(1), 300, seed=65)
        spec = ScoreSpec(kind)
        self._check(d, spec, [("HIST", ["CVP"], ["HR", "Q", "CVP"]),
                              ("HIST", ["CVP"], ["Q"]),
                              ("Q", ["CVP"], ["HR"]),
                              ("HIST", [], ["HR", "CVP"])])
        with pytest.raises(DataError, match="unknown column 'Q'"):
            _toggle_scores("HIST", ["CVP"], ["HR", "Q"], d, spec)

    @pytest.mark.parametrize("kind", ["bic", "bde", "bge"])
    def test_node_among_the_toggled(self, kind):
        if kind == "bge":
            d = random_gaussian_dataset(np.random.default_rng(66), ["CVP", "HIST", "HR"], 80)
        else:
            d = forward_sample(alarm_fitted(1), 300, seed=66)
        spec = ScoreSpec(kind)
        self._check(d, spec, [("HIST", ["CVP"], ["HR", "HIST"]), ("HIST", [], ["HIST"])])
        with pytest.raises(ScoreError, match="a node cannot be its own parent"):
            _toggle_scores("HIST", ["CVP"], ["HR", "HIST"], d, spec)


def _dirichlet_local(d, counts, a_cell, a_col):
    """The per-family bde/k2 scorer that stacked rows replaced, kept as the reference.

    counts[:, seen] is F-ordered, so its sums run column by column.
    """
    totals = counts.sum(axis=0)
    seen = totals > 0
    value = float(bnsl.scores._lgamma_shifted(d, counts[:, seen], a_cell).sum())
    value -= counts[:, seen].size * math.lgamma(a_cell)
    value += int(seen.sum()) * math.lgamma(a_col)
    value -= float(bnsl.scores._lgamma_shifted(d, totals[seen], a_col).sum())
    return value


def _mixed_levels_dataset(rng, levels, n):
    """Uniform columns C0, C1, ... with the given numbers of levels."""
    names = [f"C{i}" for i in range(len(levels))]
    return Dataset.from_codes(names, {c: [f"l{j}" for j in range(m)]
                                      for c, m in zip(names, levels)},
                              {c: rng.integers(0, m, size=n) for c, m in zip(names, levels)})


class TestStackedDirichletRows:
    """bde/k2 rows, scored as stacks of same-q tables, equal the per-family
    reference with ==, whatever the seen configurations of the stacked items."""

    SPECS = [ScoreSpec("bde", iss=1.0), ScoreSpec("bde", iss=7.5), ScoreSpec("k2")]

    @staticmethod
    def _check(d, spec, cases):
        """Checks each row; returns (R, q, seen configurations) per row and family."""
        shapes = []
        for node, parents, others in cases:
            row = _toggle_scores(node, parents, others, d, spec)
            shapes.append([])
            for u, value in zip(others, row):
                counts, q = family_counts(d, node, sorted(set(parents) ^ {u}))
                R = counts.shape[0]
                if spec.kind == "k2":
                    want = _dirichlet_local(d, counts, 1.0, float(R))
                else:
                    want = _dirichlet_local(d, counts, spec.iss / (R * q), spec.iss / q)
                assert value == want
                shapes[-1].append((R, q, int((counts.sum(axis=0) > 0).sum())))
        return shapes

    def _random_rows(self, d, spec, seed):
        rng = np.random.default_rng(seed)
        shapes = self._check(d, spec, _toggle_cases(rng, list(d.names), 80))
        families = [f for row in shapes for f in row]
        assert sum(seen < q / 2 for _, q, seen in families) > len(families) / 4
        # stacks whose items differ in their number of seen configurations
        mixed = [q for row in shapes for q in {q for _, q, _ in row}
                 if len({seen for _, q2, seen in row if q2 == q}) > 1]
        assert len(mixed) > 15

    def _wide_rows(self, d, spec):
        shapes = self._check(d, spec, [("C0", ["C1", "C2"], ["C3", "C4", "C5", "C1"]),
                                       ("C0", ["C1", "C2", "C3"], ["C5", "C4", "C3"])])
        assert max(R * seen for row in shapes for R, _, seen in row) > 2 * 8192
        assert sum(R * seen > 8192 for row in shapes for R, _, seen in row) >= 4

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.iss}")
    def test_random_rows_with_many_unseen_configurations(self, spec):
        rng = np.random.default_rng(71)
        d = _mixed_levels_dataset(rng, [3, 4, 5, 6, 4, 3, 5, 4], 60)
        self._random_rows(d, spec, 72)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.iss}")
    def test_more_than_8192_seen_cells(self, spec):
        d = _mixed_levels_dataset(np.random.default_rng(73), [4, 16, 16, 16, 16, 2], 6000)
        self._wide_rows(d, spec)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.iss}")
    def test_above_lgamma_table_cap(self, spec, monkeypatch):
        small = _mixed_levels_dataset(np.random.default_rng(74), [3, 4, 5, 6, 4, 3, 5, 4], 60)
        wide = _mixed_levels_dataset(np.random.default_rng(75), [4, 16, 16, 16, 16, 2], 6000)
        monkeypatch.setattr(bnsl.scores, "_LGAMMA_TABLE_CAP", small.n)
        self._random_rows(small, spec, 76)
        monkeypatch.setattr(bnsl.scores, "_LGAMMA_TABLE_CAP", wide.n)
        self._wide_rows(wide, spec)
        assert not any(key[0] == "lgamma" for d in (small, wide) for key in d._memo)


class TestTinyIss:
    """bde with an iss near the bottom of the float range."""

    @staticmethod
    def _data():
        return Dataset.from_codes(["A", "B"], {"A": ["a", "b"], "B": ["x", "y"]},
                                  {"A": [0, 1, 0, 1], "B": [0, 1, 0, 0]})

    def test_subnormal_prior_counts_score_finitely(self):
        d = self._data()
        a_cell, a_col = 1e-320 / 4, 1e-320 / 2  # R = q = 2
        cells = [2, 0, 1, 1]  # B|A: a -> (x, x), b -> (y, x)
        want = (sum(math.lgamma(c + a_cell) for c in cells) - 4 * math.lgamma(a_cell)
                + 2 * math.lgamma(a_col) - 2 * math.lgamma(2 + a_col))
        got = local_score("B", ["A"], d, ScoreSpec("bde", iss=1e-320))
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(-739.5998, abs=1e-4)
        assert _toggle_scores("B", [], ["A"], d, ScoreSpec("bde", iss=1e-320)) == [got]

    def test_prior_count_rounding_to_zero_is_a_score_error(self):
        d = self._data()
        spec = ScoreSpec("bde", iss=5e-324)
        message = r"iss 5e-324 is too small for node 'B': its bde prior count per cell"
        with pytest.raises(ScoreError, match=message):
            local_score("B", ["A"], d, spec)
        with pytest.raises(ScoreError, match=message):
            _toggle_scores("B", [], ["A"], d, spec)
        assert local_score("B", ["A"], d, ScoreSpec("k2")) < 0  # k2 has no iss
