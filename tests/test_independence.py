"""Discrete and Gaussian independence tests: statistics, p-values, permutations."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnsl.data
import bnsl.independence
from bnsl import (TEST_LABELS, ContingencyTable, DataError, Dataset, TestError,
                  TestResult, aic_test, ci_test, fmi_statistic, gaussian_statistic,
                  mi_discrete, permutation_pvalue, x2_discrete)
from bnsl.data import CategoricalColumn, NumericColumn
from bnsl.constraint import LearnConfig
from bnsl.independence import _null_tables, table_df, table_test

from helpers import perfbench_module, random_gaussian_dataset, random_table


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
        # cor and zf keep the sign of rho; mi-g is a magnitude
        assert gaussian_statistic(-1.0, 50, 0, "cor").statistic == -math.inf
        for kind in ("zf", "mi-g", "cor"):
            for rho in (1.0, -1.0):
                res = gaussian_statistic(rho, 50, 0, kind)
                assert res.p_value == 0.0
                assert res.degenerate
                assert res.statistic == (math.inf if kind == "mi-g"
                                         else math.copysign(math.inf, rho))

    def test_preconditions(self):
        with pytest.raises(TestError):
            gaussian_statistic(0.5, 4, 2, "cor")
        with pytest.raises(TestError):
            gaussian_statistic(0.5, 5, 2, "zf")
        with pytest.raises(TestError, match=r"mi-g requires n > \|z\| \+ 2"):
            gaussian_statistic(0.5, 4, 2, "mi-g")
        with pytest.raises(TestError):
            gaussian_statistic(1.5, 50, 0, "cor")

    @pytest.mark.parametrize("kind", ["cor", "zf", "mi-g"])
    def test_nan_rho_rejected(self, kind):
        # the clamp max(-1, min(1, nan)) would read NaN as perfect dependence
        with pytest.raises(TestError, match="NaN"):
            gaussian_statistic(math.nan, 50, 0, kind)

    @pytest.mark.parametrize("n, zsize, name", [
        (100.5, 2, "n"), (100, -5, "zsize"), (True, 0, "n"), (100, False, "zsize"),
        (0, 0, "n"), (np.float64(50.0), 1, "n"), (50, 1.0, "zsize")])
    def test_integer_arguments_checked(self, n, zsize, name):
        # a fractional n or a negative zsize used to give a fractional or
        # inflated df; n=True used to read as one row
        with pytest.raises(TestError, match=f"^{name} must be an integer of at least"):
            gaussian_statistic(0.5, n, zsize, "cor")
        assert gaussian_statistic(0.5, np.int64(50), np.int64(1), "cor") == \
            gaussian_statistic(0.5, 50, 1, "cor")

    @pytest.mark.parametrize("label", ["cor", "zf", "mi-g", "mc-cor"])
    def test_nan_rho_from_overflowing_data_rejected(self, label):
        # moments of values near 1e200 overflow, and the correlation of two
        # such columns is NaN: ci_test refuses it as gaussian_statistic does
        rng = np.random.default_rng(17)
        cols = {c: rng.standard_normal(50) * scale
                for c, scale in zip("ABC", (1e200, 1e200, 1.0))}
        d = Dataset.from_values("ABC", cols)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TestError, match="^partial correlation is NaN$"):
            ci_test(d, "A", "B", test=label, B=1)

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

    @pytest.mark.parametrize("kind,discrete", [
        ("mi", True), ("cor", False), ("mc-foo", True), ("mc-", False), (None, True),
        ("mc-mi", False), ("mc-cor", True)])
    def test_invalid_kind_rejected(self, kind, discrete):
        rng = np.random.default_rng(31)
        d = _discrete_pair(rng, 50) if discrete else \
            random_gaussian_dataset(rng, ["X", "Y"], 50)
        with pytest.raises(TestError):
            permutation_pvalue(d, "X", "Y", kind=kind, B=19)

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
    @pytest.mark.hash_seed
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


# sha256 of repr(p-values) of the benchmark's mc-tests triples at seeds 1 and 2,
# recorded before permutation_pvalue took its statistic from the asymptotic twin
MC_TESTS_PVALUES_SHA256 = "0ec6096bcc8b559c844da7b8a9bde9c9ead2ae1a63dc3889d3a0ce521e4af074"


@pytest.mark.hash_seed
def test_benchmark_monte_carlo_pvalues_pinned(tmp_path):
    workloads = perfbench_module("workloads")
    pvalues = []
    for seed in (1, 2):
        inputs = workloads.make_inputs("mc-tests", seed, tmp_path)
        for label, k, x, y, z, test_seed in inputs.tests:
            d = inputs.samples[k].data
            res = ci_test(d, x, y, z, test=label, B=workloads.MC_REPLICATES, seed=test_seed)
            twin = ci_test(d, x, y, z, test=workloads.MC_TWIN[label])
            assert res.statistic == abs(twin.statistic)
            pvalues.append(res.p_value)
    assert len(pvalues) == 80
    assert hashlib.sha256(repr(pvalues).encode()).hexdigest() == MC_TESTS_PVALUES_SHA256


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
        for test in ("mc-mi", "mi"):  # a given B is checked for every label
            with pytest.raises(TestError, match="B must"):
                ci_test(d, "X", "Y", test=test, B=B)
            with pytest.raises(TestError, match="B must"):
                LearnConfig(test=test, B=B)

    @pytest.mark.parametrize("seed", [-1, 2.5, "3", True, None])
    def test_bad_seed_rejected(self, seed):
        rng = np.random.default_rng(36)
        d = _discrete_pair(rng, 50)
        for test in ("mc-mi", "mi"):  # the seed is checked for every label
            with pytest.raises(TestError, match="seed must be an integer of at least 0"):
                ci_test(d, "X", "Y", test=test, B=9, seed=seed)
        with pytest.raises(TestError, match="seed must be an integer of at least 0"):
            LearnConfig(seed=seed)

    def test_seed_objects_and_numpy_integers_accepted(self):
        rng = np.random.default_rng(37)
        d = _discrete_pair(rng, 50)
        p = ci_test(d, "X", "Y", test="mc-mi", B=9, seed=4).p_value
        assert ci_test(d, "X", "Y", test="mc-mi", B=9, seed=np.int64(4)).p_value == p
        assert ci_test(d, "X", "Y", test="mc-mi", B=9,
                       seed=np.random.SeedSequence(4)).p_value == p
        assert ci_test(d, "X", "Y", test="mc-mi", B=9,
                       seed=np.random.default_rng(4)).p_value == p

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

    @pytest.mark.parametrize("label", TEST_LABELS)
    @pytest.mark.parametrize("x,y,z,message", [
        ("X", "X", [], "distinct"),
        ("X", "Y", ["X"], "distinct"),
        ("X", "Y", ["Z", "Z"], "distinct"),
        ("X", "Q", [], "unknown column 'Q'"),
    ])
    def test_repeated_or_unknown_variables_rejected(self, label, x, y, z, message):
        rng = np.random.default_rng(37)
        if label in ("mi", "mc-mi", "x2", "mc-x2", "fmi", "aict"):
            d = Dataset(("X", "Y", "Z"), {
                c: CategoricalColumn(("a", "b"), rng.integers(0, 2, size=40))
                for c in ("X", "Y", "Z")})
        else:
            d = random_gaussian_dataset(rng, ["X", "Y", "Z"], 40)
        with pytest.raises(DataError, match=message):
            ci_test(d, x, y, z, test=label, B=19)

    @pytest.mark.parametrize("label", ["cor", "zf", "mi-g"])
    def test_asymptotic_gaussian_checks_variables_once(self, label, monkeypatch):
        calls = {"check": 0, "partial": 0}
        check = bnsl.data._check_variables
        partial = bnsl.independence.partial_correlation

        def counted_check(*args):
            calls["check"] += 1
            return check(*args)

        def counted_partial(*args, **kwargs):
            calls["partial"] += 1
            return partial(*args, **kwargs)

        monkeypatch.setattr(bnsl.data, "_check_variables", counted_check)
        monkeypatch.setattr(bnsl.independence, "_check_variables", counted_check)
        monkeypatch.setattr(bnsl.independence, "partial_correlation", counted_partial)
        d = random_gaussian_dataset(np.random.default_rng(41), ["X", "Y", "Z"], 40)
        ci_test(d, "X", "Y", ["Z"], test=label)
        assert calls == {"check": 1, "partial": 1}

    def test_singular_conditioning_set_is_tested(self):
        rng = np.random.default_rng(36)
        z = rng.standard_normal(30)
        d = Dataset(("X", "Y", "Z1", "Z2"), {
            "X": NumericColumn(rng.standard_normal(30)),
            "Y": NumericColumn(rng.standard_normal(30)),
            "Z1": NumericColumn(z),
            "Z2": NumericColumn(z.copy()),
        })
        res = ci_test(d, "X", "Y", ["Z1", "Z2"], test="cor")
        assert not res.degenerate
        # the span of [Z1, Z2] is that of Z1; the df still counts both columns
        ref = gaussian_statistic(
            bnsl.data.partial_correlation(d, "X", "Y", ["Z1"]), 30, 2, "cor")
        assert res.df == ref.df == 26
        assert res.p_value == pytest.approx(ref.p_value, abs=1e-12)

    def test_exact_relation_gives_p_zero(self):
        # Y = c X + b, exact up to rounding, given 0 to 3 columns that X may
        # depend on: one rule for every z, empty or not, reads |rho| = 1
        rng = np.random.default_rng(43)
        for _ in range(300):
            n, k = int(rng.integers(8, 300)), int(rng.integers(0, 4))
            zs = rng.standard_normal((n, k))
            x = rng.standard_normal(n) + zs @ rng.standard_normal(k)
            cols = {"X": x, "Y": rng.uniform(-5.0, 5.0) * x + rng.uniform(-5.0, 5.0)}
            cols.update((f"Z{i}", zs[:, i]) for i in range(k))
            d = Dataset.from_values(tuple(cols), cols)
            for label in ("cor", "zf", "mi-g"):
                res = ci_test(d, "X", "Y", list(cols)[2:], test=label)
                assert res.p_value == 0.0 and math.isinf(res.statistic)

    @pytest.mark.parametrize("label", ["cor", "zf", "mi-g", "mc-cor", "mc-zf", "mc-mi-g"])
    @pytest.mark.parametrize("sign", [2.0, -2.0])
    def test_exact_relation_given_unrelated_z_is_dependence(self, label, sign):
        # Y = +-2 X with an unrelated Z: a singular [Z, X, Y] whose residuals
        # on Z are proportional, so |rho| = 1 given Z as without it
        rng = np.random.default_rng(5)
        x = rng.standard_normal(300)
        d = Dataset.from_values(("X", "Y", "Z"), {"X": x, "Y": sign * x,
                                                  "Z": rng.standard_normal(300)})
        res = ci_test(d, "X", "Y", ["Z"], test=label, B=50)
        assert math.isinf(res.statistic)
        if label.startswith("mc-"):
            assert res.replicates == 50 and res.statistic > 0
            k = res.p_value * 51 - 1
            assert abs(k - round(k)) < 1e-9 and 0 <= round(k) <= 50
        else:
            assert res.p_value == 0.0 and res.degenerate
            assert (res.statistic > 0) == (sign > 0 or label == "mi-g")

    @pytest.mark.parametrize("label", ["cor", "zf", "mi-g", "mc-cor", "mc-zf", "mc-mi-g"])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_too_few_rows_is_degenerate(self, label, k):
        # cor and mi-g need n > |z| + 2, zf n > |z| + 3; an mc-* label as its twin
        rng = np.random.default_rng(38)
        names = ["X", "Y"] + [f"Z{i}" for i in range(k)]
        limit = k + (3 if label.endswith("zf") else 2)
        for n in range(max(2, k + 1), limit + 1):
            d = random_gaussian_dataset(rng, names, n)
            assert ci_test(d, "X", "Y", names[2:], test=label, B=19) == \
                TestResult(label, 0.0, 1.0, degenerate=True)
        d = random_gaussian_dataset(rng, names, limit + 1)
        assert not ci_test(d, "X", "Y", names[2:], test=label, B=19).degenerate

    @pytest.mark.parametrize("label", ["mc-cor", "mc-zf", "mc-mi-g"])
    def test_direct_permutation_test_with_too_few_rows_is_degenerate(self, label):
        rng = np.random.default_rng(39)
        d = random_gaussian_dataset(rng, ["X", "Y", "Z"], 4 if label == "mc-zf" else 3)
        assert permutation_pvalue(d, "X", "Y", ["Z"], kind=label, B=19) == \
            ci_test(d, "X", "Y", ["Z"], test=label, B=19) == \
            TestResult(label, 0.0, 1.0, degenerate=True)

    @pytest.mark.parametrize("label", ["mc-cor", "mc-zf", "mc-mi-g"])
    @pytest.mark.parametrize("case,x,y,z", [
        ("few-rows", "A", "B", ["C", "D"]),
        ("constant-C", "A", "B", ["C"]), ("constant-C", "C", "B", ["A"]),
        ("constant-C", "A", "C", []), ("constant-C", "A", "B", ["D", "C"]),
        ("D-is-2C", "A", "B", ["C", "D"]),
        ("A-is-2C+1", "A", "B", ["C"]), ("A-is-2C+1", "B", "A", ["C", "D"])])
    def test_monte_carlo_matches_twin_when_untestable(self, label, case, x, y, z):
        # an mc-* label decides whether it can test as its asymptotic twin does
        rng = np.random.default_rng(40)
        n = 4 if case == "few-rows" else 300
        cols = {c: rng.standard_normal(n) for c in "ABCD"}
        if case == "constant-C":
            cols["C"] = np.full(n, 1.5)
        elif case == "D-is-2C":
            cols["D"] = 2.0 * cols["C"]
        elif case == "A-is-2C+1":
            cols["A"] = 2.0 * cols["C"] + 1.0
        d = Dataset.from_values(("A", "B", "C", "D"), cols)
        twin = ci_test(d, x, y, z, test=label[3:])
        res = ci_test(d, x, y, z, test=label, B=50)
        assert permutation_pvalue(d, x, y, z, kind=label, B=50) == res
        if case == "D-is-2C":  # a singular z is tested given its span
            assert not twin.degenerate and res.replicates == 50
            assert res.statistic == abs(twin.statistic)
            return
        assert (res.statistic, res.p_value, res.degenerate) == \
            (twin.statistic, twin.p_value, twin.degenerate)
        if case.startswith("A-is"):  # a zero partial correlation, not untestable
            assert res == TestResult(label, 0.0, 1.0, replicates=50)
        else:
            assert twin == TestResult(label[3:], 0.0, 1.0, degenerate=True)
            assert res == TestResult(label, 0.0, 1.0, degenerate=True)

    @pytest.mark.parametrize("label", ["mc-cor", "mc-zf", "mc-mi-g"])
    @pytest.mark.parametrize("sign", [2.0, -2.0])
    def test_monte_carlo_draws_null_when_twin_has_unit_correlation(self, label, sign):
        # |rho| = 1 makes the twin degenerate with an infinite statistic, but the
        # mc-* test is still a permutation test: p on the (1 + k)/(1 + B) lattice
        x = np.arange(300.0)
        d = Dataset.from_values(("X", "Y"), {"X": x, "Y": sign * x})
        twin = ci_test(d, "X", "Y", test=label[3:])
        assert twin.degenerate and math.isinf(twin.statistic)
        res = ci_test(d, "X", "Y", test=label, B=50)
        assert permutation_pvalue(d, "X", "Y", kind=label, B=50) == res
        assert res.statistic == abs(twin.statistic)
        assert (res.replicates, res.df) == (50, None)
        k = res.p_value * 51 - 1
        assert abs(k - round(k)) < 1e-9 and 0 <= round(k) <= 50
        assert res.p_value == 1 / 51  # no permutation of 300 rows reaches |rho| = 1

    @pytest.mark.parametrize("label", TEST_LABELS)
    def test_string_conditioning_set_names_one_column(self, label):
        rng = np.random.default_rng(42)
        names = ("A", "B", "C", "D", "CD")
        if label in ("mi", "mc-mi", "x2", "mc-x2", "fmi", "aict"):
            d = Dataset(names, {c: CategoricalColumn(("a", "b"), rng.integers(0, 2, 200))
                                for c in names})
        else:
            d = random_gaussian_dataset(rng, names, 200)
        assert ci_test(d, "A", "B", "CD", test=label, B=19) == \
            ci_test(d, "A", "B", ["CD"], test=label, B=19)


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

    def test_mutual_information_computed_once(self, monkeypatch):
        calls = []
        kernel = bnsl.independence._mi_from_counts

        def counted(counts, n):
            calls.append(n)
            return kernel(counts, n)

        monkeypatch.setattr(bnsl.independence, "_mi_from_counts", counted)
        rng = np.random.default_rng(25)
        for _ in range(100):
            t = random_table(rng)
            assert t.n >= 5 * table_df(t)  # so fmi does not zero its MI unread
            for kind in ("mi", "fmi", "aict"):
                calls.clear()
                table_test(t, kind)
                assert len(calls) == 1, kind

    def test_equals_the_statistic_functions(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            t = random_table(rng)
            mi = table_test(t, "mi")
            assert mi.statistic == 2.0 * t.n * mi_discrete(t)
            fmi = table_test(t, "fmi")
            assert fmi.statistic == 2.0 * t.n * fmi_statistic(t, t.n)
            aict = table_test(t, "aict")
            assert aict.statistic == mi.statistic
            assert aict.p_value == (0.0 if aic_test(t, t.n) else 1.0)
            assert table_test(t, "x2").statistic == x2_discrete(t)
