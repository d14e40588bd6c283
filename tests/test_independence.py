"""Discrete and Gaussian independence tests: statistics, p-values, permutations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnsl import (ContingencyTable, Dataset, TestError, TestResult, aic_test,
                  ci_test, fmi_statistic, gaussian_statistic, mi_discrete,
                  permutation_pvalue, x2_discrete)
from bnsl.data import CategoricalColumn, NumericColumn
from bnsl.constraint import LearnConfig
from bnsl.independence import _null_tables, table_test

from helpers import random_gaussian_dataset, random_table


def _table(cells, L=1):
    counts = np.asarray(cells, dtype=np.int64)
    if counts.ndim == 2:
        counts = counts[:, :, None]
    return ContingencyTable(counts, counts.shape[0], counts.shape[1],
                            counts.shape[2], int(counts.sum()))


class TestMI:
    def test_perfect_dependence(self):
        t = _table([[50, 0], [0, 50]])
        assert mi_discrete(t) == pytest.approx(math.log(2), abs=1e-12)

    def test_uniform_independent(self):
        t = _table([[25, 25], [25, 25]])
        assert mi_discrete(t) == pytest.approx(0.0, abs=1e-12)

    def test_bruteforce_oracle(self):
        # direct cell-by-cell evaluation of the definition
        t = _table([[10, 20], [20, 10]])
        n = 60
        expected = 0.0
        counts = t.counts[:, :, 0]
        for i in range(2):
            for j in range(2):
                nij = counts[i, j]
                expected += (nij / n) * math.log(
                    nij * n / (counts[i, :].sum() * counts[:, j].sum()))
        assert mi_discrete(t) == pytest.approx(expected, abs=1e-12)

    def test_zero_cells_ignored(self):
        t = _table([[10, 0], [5, 5]])
        assert math.isfinite(mi_discrete(t))

    def test_g2_equals_2n_mi_oracle(self):
        # G^2 from saturated-vs-independence log-likelihoods, per stratum
        rng = np.random.default_rng(21)
        for _ in range(200):
            t = random_table(rng)
            counts = t.counts
            n = t.n
            g2 = 0.0
            for k in range(t.L):
                sub = counts[:, :, k]
                nk = sub.sum()
                if nk == 0:
                    continue
                ll_sat = sum(c * math.log(c / nk) for c in sub.flat if c > 0)
                rows = sub.sum(axis=1)
                cols = sub.sum(axis=0)
                ll_row = sum(c * math.log(c / nk) for c in rows if c > 0)
                ll_col = sum(c * math.log(c / nk) for c in cols if c > 0)
                g2 += 2.0 * (ll_sat - ll_row - ll_col)
            assert 2 * n * mi_discrete(t) == pytest.approx(g2, rel=1e-9, abs=1e-9)

    def test_symmetry_in_x_y(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            t = random_table(rng)
            swapped = ContingencyTable(np.swapaxes(t.counts, 0, 1),
                                       t.C, t.R, t.L, t.n)
            assert mi_discrete(t) == pytest.approx(mi_discrete(swapped), abs=1e-12)
            assert x2_discrete(t) == pytest.approx(x2_discrete(swapped), abs=1e-9)

    def test_invariance_under_level_relabeling(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            t = random_table(rng)
            perm = rng.permutation(t.R)
            relabeled = ContingencyTable(t.counts[perm], t.R, t.C, t.L, t.n)
            assert mi_discrete(t) == pytest.approx(mi_discrete(relabeled),
                                                   abs=1e-12)
            assert x2_discrete(t) == pytest.approx(x2_discrete(relabeled),
                                                   abs=1e-9)


class TestX2:
    def test_uniform_zero(self):
        assert x2_discrete(_table([[25, 25], [25, 25]])) == pytest.approx(0.0)

    def test_hand_value(self):
        assert x2_discrete(_table([[10, 20], [20, 10]])) == pytest.approx(20 / 3)

    def test_perfect_dependence_equals_n(self):
        assert x2_discrete(_table([[50, 0], [0, 50]])) == pytest.approx(100.0)


class TestFMI:
    def test_threshold_satisfied(self):
        t = _table([[30, 20], [20, 30]])  # df = 1, n = 100 >= 5
        assert fmi_statistic(t, 100) == mi_discrete(t)

    def test_small_sample_zeroed(self):
        counts = np.ones((3, 3, 4), dtype=np.int64)
        counts[0, 0, 0] = 14  # n = 50 < 5 * (2*2*4) = 80
        t = ContingencyTable(counts, 3, 3, 4, 50)
        assert fmi_statistic(t, 50) == 0.0

    def test_boundary_inclusive(self):
        t = _table([[2, 1], [1, 1]])  # df = 1, n = 5 == 5 * 1
        assert fmi_statistic(t, 5) == mi_discrete(t)

    def test_fmi_never_exceeds_mi(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            t = random_table(rng)
            assert fmi_statistic(t, t.n) <= mi_discrete(t) + 1e-15


class TestAicT:
    def test_reject_above_threshold(self):
        # MI = log 2 = 0.693 >= df/n = 1/100
        assert aic_test(_table([[50, 0], [0, 50]]), 100) is True

    def test_zero_mi_independent(self):
        assert aic_test(_table([[25, 25], [25, 25]]), 100) is False

    def test_threshold_is_inclusive(self):
        # build a table and test at n equal to df / MI exactly
        t = _table([[30, 20], [20, 30]])
        mi = mi_discrete(t)
        n_exact = 1 / mi  # df = 1
        assert mi >= 1 / math.ceil(n_exact)
        assert aic_test(t, math.ceil(n_exact)) is True

    def test_agrees_with_direct_aic_comparison(self):
        # oracle: explicit AIC of the dependent vs independence model
        rng = np.random.default_rng(24)
        for _ in range(100):
            t = random_table(rng)
            counts = t.counts
            n = t.n
            df = (t.R - 1) * (t.C - 1) * t.L
            ll_dep = 0.0
            ll_ind = 0.0
            for k in range(t.L):
                sub = counts[:, :, k]
                nk = sub.sum()
                if nk == 0:
                    continue
                ll_dep += sum(c * math.log(c / nk) for c in sub.flat if c > 0)
                for margin in (sub.sum(axis=1), sub.sum(axis=0)):
                    ll_ind += sum(c * math.log(c / nk) for c in margin if c > 0)
            # dependent model pays df extra parameters
            better = (ll_dep - ll_ind) >= df
            assert aic_test(t, n) == better


class TestGaussianStatistics:
    def test_cor_reference_values(self):
        res = gaussian_statistic(0.0352, 88, 1, "cor")
        assert res.df == 85
        assert res.p_value == pytest.approx(0.7459, abs=5e-4)

    def test_zf_reference_values(self):
        res = gaussian_statistic(0.0527, 88, 1, "zf")
        assert res.p_value == pytest.approx(0.6289, abs=5e-4)

    def test_mi_g_zero(self):
        res = gaussian_statistic(0.0, 100, 0, "mi-g")
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_mi_g_reference_value(self):
        res = gaussian_statistic(0.0527, 88, 1, "mi-g")
        assert res.p_value == pytest.approx(0.6209, abs=5e-4)

    def test_degenerate_rho(self):
        for kind in ("zf", "mi-g", "cor"):
            res = gaussian_statistic(1.0, 50, 0, kind)
            assert res.p_value == 0.0
            assert res.degenerate

    def test_preconditions(self):
        with pytest.raises(TestError):
            gaussian_statistic(0.5, 4, 2, "cor")
        with pytest.raises(TestError):
            gaussian_statistic(0.5, 5, 2, "zf")
        with pytest.raises(TestError):
            gaussian_statistic(1.5, 50, 0, "cor")

    def test_pvalue_monotone_in_statistic(self):
        rhos = np.linspace(0.0, 0.9, 20)
        for kind in ("cor", "zf", "mi-g"):
            ps = [gaussian_statistic(r, 60, 1, kind).p_value for r in rhos]
            assert all(p1 >= p2 - 1e-15 for p1, p2 in zip(ps, ps[1:]))


def _discrete_pair(rng, n, dependent=False):
    x = rng.integers(0, 3, size=n)
    if dependent:
        y = (x + (rng.random(n) < 0.15)) % 3
    else:
        y = rng.integers(0, 3, size=n)
    return Dataset(("X", "Y"), {
        "X": CategoricalColumn(("a", "b", "c"), x),
        "Y": CategoricalColumn(("a", "b", "c"), y),
    })


class TestPermutation:
    def test_constant_x_gives_p_one(self):
        n = 60
        rng = np.random.default_rng(25)
        d = Dataset(("X", "Y"), {
            "X": NumericColumn(np.zeros(n) + 1.0 + 1e-9 * rng.standard_normal(n)),
            "Y": NumericColumn(rng.standard_normal(n)),
        })
        res = permutation_pvalue(d, "X", "Y", kind="mc-cor", B=200, seed=1)
        assert res.p_value > 0.5  # a near-constant column carries no signal

    def test_deterministic_dependence_hits_floor(self):
        rng = np.random.default_rng(26)
        n = 2000
        x = rng.integers(0, 3, size=n)
        d = Dataset(("X", "Y"), {
            "X": CategoricalColumn(("a", "b", "c"), x),
            "Y": CategoricalColumn(("a", "b", "c"), x.copy()),
        })
        B = 1000
        res = permutation_pvalue(d, "X", "Y", kind="mc-mi", B=B, seed=2)
        assert res.p_value == pytest.approx(1 / (B + 1))

    def test_pvalue_range_and_reproducibility(self):
        rng = np.random.default_rng(27)
        d = _discrete_pair(rng, 300)
        for kind in ("mc-mi", "mc-x2"):
            r1 = permutation_pvalue(d, "X", "Y", kind=kind, B=199, seed=42)
            r2 = permutation_pvalue(d, "X", "Y", kind=kind, B=199, seed=42)
            assert r1.p_value == r2.p_value
            assert 1 / 200 <= r1.p_value <= 1.0
            assert r1.replicates == 199

    def test_stratified_permutation_respects_z(self):
        # x depends on y only through z; stratified nulls must keep p high
        rng = np.random.default_rng(28)
        n = 3000
        z = rng.integers(0, 2, size=n)
        x = (z + (rng.random(n) < 0.2)) % 2
        y = (z + (rng.random(n) < 0.2)) % 2
        d = Dataset(("X", "Y", "Z"), {
            "X": CategoricalColumn(("a", "b"), x),
            "Y": CategoricalColumn(("a", "b"), y),
            "Z": CategoricalColumn(("a", "b"), z),
        })
        res = permutation_pvalue(d, "X", "Y", ["Z"], kind="mc-mi", B=400, seed=3)
        assert res.p_value > 0.01
        marginal = permutation_pvalue(d, "X", "Y", kind="mc-mi", B=400, seed=3)
        assert marginal.p_value == pytest.approx(1 / 401)

    def test_gaussian_residual_permutation(self):
        rng = np.random.default_rng(29)
        n = 500
        z = rng.standard_normal(n)
        x = z + 0.5 * rng.standard_normal(n)
        y = -z + 0.5 * rng.standard_normal(n)
        d = Dataset(("X", "Y", "Z"), {
            "X": NumericColumn(x), "Y": NumericColumn(y), "Z": NumericColumn(z),
        })
        res = permutation_pvalue(d, "X", "Y", ["Z"], kind="mc-cor", B=400, seed=4)
        assert res.p_value > 0.01  # conditional independence holds
        dep = permutation_pvalue(d, "X", "Z", kind="mc-cor", B=400, seed=4)
        assert dep.p_value == pytest.approx(1 / 401)

    def test_b_validation(self):
        rng = np.random.default_rng(30)
        d = _discrete_pair(rng, 50)
        with pytest.raises(TestError):
            permutation_pvalue(d, "X", "Y", kind="mc-mi", B=0)


def _categorical(cells):
    """Rows of (x, y) codes reproducing a 2x2 table given as [[n00, n01], [n10, n11]]."""
    x = np.repeat([0, 0, 1, 1], np.ravel(cells))
    y = np.repeat([0, 1, 0, 1], np.ravel(cells))
    return Dataset(("X", "Y"), {
        "X": CategoricalColumn(("a", "b"), x),
        "Y": CategoricalColumn(("a", "b"), y),
    })


class TestNullSampler:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
           st.integers(1, 5), st.integers(0, 2**32 - 1), st.data())
    def test_replicates_keep_margins_within_strata(self, R, C, L, b, seed, data):
        cells = data.draw(st.lists(st.integers(0, 6), min_size=R * C * L,
                                   max_size=R * C * L))
        counts = np.asarray(cells, dtype=np.int64).reshape(R, C, L)
        rows, cols = counts.sum(axis=1), counts.sum(axis=0)
        tables = _null_tables(np.random.default_rng(seed), rows, cols, b)
        assert tables.shape == (b, R, C, L)
        assert (tables >= 0).all()
        assert (tables.sum(axis=2) == rows).all()
        assert (tables.sum(axis=1) == cols).all()

    @pytest.mark.parametrize("kind", ["mc-mi", "mc-x2"])
    def test_x_function_of_z_ties_every_replicate(self, kind):
        # within each stratum x is constant, so every replicate table is the
        # observed one and must tie with it exactly
        rng = np.random.default_rng(33)
        n = 400
        z = rng.integers(0, 3, size=n)
        d = Dataset(("X", "Y", "Z"), {
            "X": CategoricalColumn(("a", "b", "c"), (z + 1) % 3),
            "Y": CategoricalColumn(("a", "b"), rng.integers(0, 2, size=n)),
            "Z": CategoricalColumn(("a", "b", "c"), z),
        })
        res = permutation_pvalue(d, "X", "Y", ["Z"], kind=kind, B=300, seed=4)
        assert res.p_value == 1.0

    def test_mc_mi_matches_exact_hypergeometric_pvalue(self):
        cells = [[3, 1], [2, 6]]
        d = _categorical(cells)
        N, a, c = 12, 4, 5  # rows, x = "a" count, y = "a" count

        def stat(k):
            t = np.array([[k, a - k], [c - k, N - a - c + k]])
            return table_test(_table(t), "mi").statistic

        support = range(max(0, a + c - N), min(a, c) + 1)
        exact = sum(math.comb(a, k) * math.comb(N - a, c - k) / math.comb(N, c)
                    for k in support if stat(k) >= stat(cells[0][0]))
        assert exact == pytest.approx(2 / 9)
        B = 20000
        res = permutation_pvalue(d, "X", "Y", kind="mc-mi", B=B, seed=11)
        assert abs(res.p_value - exact) <= 3 * math.sqrt(exact * (1 - exact) / B)

    # p-values recorded before replicates were drawn in chunks: the Gaussian
    # tests must consume the random stream exactly as before
    @pytest.mark.parametrize("kind", ["mc-cor", "mc-zf", "mc-mi-g"])
    @pytest.mark.parametrize("seed,expected", [(5, 0.017), (2024, 0.021)])
    def test_gaussian_pvalues_pinned(self, kind, seed, expected):
        rng = np.random.default_rng(77)
        n = 150
        z = rng.standard_normal(n)
        x = 0.6 * z + rng.standard_normal(n)
        y = 0.4 * z + 0.15 * x + rng.standard_normal(n)
        d = Dataset(("X", "Y", "Z"), {
            "X": NumericColumn(x), "Y": NumericColumn(y), "Z": NumericColumn(z),
        })
        res = permutation_pvalue(d, "X", "Y", ["Z"], kind=kind, B=999, seed=seed)
        assert res.p_value == expected


class TestCiTestDispatcher:
    def test_labels_and_defaults(self):
        rng = np.random.default_rng(31)
        d = _discrete_pair(rng, 200, dependent=True)
        assert ci_test(d, "X", "Y").label == "mi"
        g = random_gaussian_dataset(rng, ["U", "V"], 100)
        assert ci_test(g, "U", "V").label == "cor"

    @pytest.mark.parametrize("B", [0, -5, 2.5, "100", True])
    def test_bad_replicate_count_rejected(self, B):
        rng = np.random.default_rng(34)
        d = _discrete_pair(rng, 50)
        with pytest.raises(TestError, match="B must"):
            ci_test(d, "X", "Y", test="mc-mi", B=B)
        with pytest.raises(TestError, match="B must"):
            LearnConfig(test="mc-mi", B=B)

    def test_numpy_integer_replicate_count_accepted(self):
        rng = np.random.default_rng(35)
        d = _discrete_pair(rng, 50)
        assert ci_test(d, "X", "Y", test="mc-mi", B=np.int64(9)).replicates == 9

    def test_type_mismatch(self):
        rng = np.random.default_rng(32)
        d = _discrete_pair(rng, 50)
        with pytest.raises(TestError):
            ci_test(d, "X", "Y", test="cor")
        g = random_gaussian_dataset(rng, ["U", "V"], 50)
        with pytest.raises(TestError):
            ci_test(g, "U", "V", test="mi")

    def test_unknown_label(self):
        rng = np.random.default_rng(33)
        d = _discrete_pair(rng, 50)
        with pytest.raises(TestError):
            ci_test(d, "X", "Y", test="frequentist-vibes")

    def test_all_labels_run(self):
        rng = np.random.default_rng(34)
        d = _discrete_pair(rng, 300)
        g = random_gaussian_dataset(rng, ["U", "V", "W"], 300)
        for label in ("mi", "x2", "fmi", "aict", "mc-mi", "mc-x2"):
            res = ci_test(d, "X", "Y", test=label, B=99, seed=0)
            assert isinstance(res, TestResult)
            assert 0.0 <= res.p_value <= 1.0
        for label in ("cor", "zf", "mi-g", "mc-cor", "mc-zf", "mc-mi-g"):
            res = ci_test(g, "U", "V", ["W"], test=label, B=99, seed=0)
            assert 0.0 <= res.p_value <= 1.0

    def test_asymptotic_df(self):
        rng = np.random.default_rng(35)
        d = _discrete_pair(rng, 400)
        res = ci_test(d, "X", "Y", test="mi")
        assert res.df == 4  # (3-1)(3-1)
        res = ci_test(d, "X", "Y", test="x2")
        assert res.df == 4

    def test_unidentifiable_gaussian_returns_degenerate(self):
        rng = np.random.default_rng(36)
        z = rng.standard_normal(30)
        d = Dataset(("X", "Y", "Z1", "Z2"), {
            "X": NumericColumn(rng.standard_normal(30)),
            "Y": NumericColumn(rng.standard_normal(30)),
            "Z1": NumericColumn(z),
            "Z2": NumericColumn(z.copy()),
        })
        res = ci_test(d, "X", "Y", ["Z1", "Z2"], test="cor")
        assert res.degenerate and res.p_value == 1.0


class TestTableTest:
    def test_mi_pvalue_matches_chi2(self):
        from bnsl.special import chi2_sf
        t = _table([[10, 20], [20, 10]])
        res = table_test(t, "mi")
        assert res.p_value == pytest.approx(chi2_sf(res.statistic, 1))

    def test_fmi_never_rejects_when_zeroed(self):
        counts = np.ones((3, 3, 4), dtype=np.int64)
        t = ContingencyTable(counts, 3, 3, 4, 36)
        res = table_test(t, "fmi")
        assert res.p_value == 1.0

    def test_aict_binary_pvalue(self):
        dep = table_test(_table([[50, 0], [0, 50]]), "aict")
        ind = table_test(_table([[25, 25], [25, 25]]), "aict")
        assert dep.p_value == 0.0
        assert ind.p_value == 1.0
