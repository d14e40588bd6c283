"""Ingestion, sufficient statistics, MLE fitting and forward sampling."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnsl
from bnsl import (DataError, Dataset, FittedNetwork, ScoreSpec, ci_test,
                  contingency_counts, correlation_matrix, fit_mle, forward_sample,
                  load_table, local_score, parse_modelstring, partial_correlation,
                  write_table)
from bnsl.data import CategoricalColumn, ContingencyTable, DiscreteCPT, LinearGaussian, \
    NumericColumn, _gaussian_moments, _regress, _toggle_family_counts, family_counts, \
    joint_config_codes
from bnsl.independence import gaussian_statistic, table_test
from bnsl.networks import alarm_fitted


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadTable:
    def test_categorical_file(self, tmp_path):
        path = _write(tmp_path, "d.csv",
                      "A,B\n" + "\n".join(f"{x},{y}" for x, y in
                                          [("a", "b"), ("b", "a"), ("c", "b")]))
        d = load_table(path)
        assert d.discrete and d.n == 3
        assert d.levels("A") == ("a", "b", "c")
        assert list(d.codes("A")) == [0, 1, 2]

    def test_numeric_file(self, tmp_path):
        path = _write(tmp_path, "d.csv", "X,Y\n1.5,2\n-3,4.25\n0,1\n")
        d = load_table(path)
        assert not d.discrete
        assert d.values("X")[1] == -3.0

    def test_mixed_rejected(self, tmp_path):
        # the message names the first column of each kind
        path = _write(tmp_path, "d.csv", "X,A,Y,B\n1,a,2,c\n2,b,3,d\n")
        with pytest.raises(DataError, match="mixed data unsupported: column 'A' is "
                                            "categorical and column 'X' is numeric$"):
            load_table(path)

    def test_ragged_rejected(self, tmp_path):
        path = _write(tmp_path, "d.csv", "A,B\na,b\na\n")
        with pytest.raises(DataError, match="ragged"):
            load_table(path)

    def test_single_level_rejected(self, tmp_path):
        path = _write(tmp_path, "d.csv", "A,B\na,x\na,y\n")
        with pytest.raises(DataError, match="single level"):
            load_table(path)

    @pytest.mark.parametrize("text,type_hint", [
        ("A,B\na,b\nb,\na,a\n", None),       # categorical
        ("A,B\n1.5,2\n0.5, \n2,1\n", None),   # numeric
        ("A,B\n1,2\n2,\n1,1\n", "discrete"),
    ], ids=["categorical", "numeric", "forced-discrete"])
    def test_empty_cell_rejected(self, tmp_path, text, type_hint):
        path = _write(tmp_path, "d.csv", text)
        with pytest.raises(DataError, match="empty cell in row 3, column 'B'"):
            load_table(path, type_hint=type_hint)

    def test_errors_name_the_file_line_after_blank_lines(self, tmp_path):
        # blank and all-empty lines are skipped but still count as file lines
        path = _write(tmp_path, "d.csv", "A,B\na,b\n\n,,\nb,\na,a\n")
        with pytest.raises(DataError, match="empty cell in row 5, column 'B'"):
            load_table(path)
        path = _write(tmp_path, "r.csv", "A,B\na,b\n\n\na\nb,a\n")
        with pytest.raises(DataError, match="ragged row 5:"):
            load_table(path)

    def test_errors_name_the_file(self, tmp_path):
        path = _write(tmp_path, "r.csv", "A,B\na,b\na\n")
        with pytest.raises(DataError, match=f"in data file {re.escape(str(path))}$"):
            load_table(path)
        path = _write(tmp_path, "blank.csv", ",,\n \n")
        with pytest.raises(DataError, match=f"data file {re.escape(str(path))} is empty"):
            load_table(path)

    def test_delimiter_read_from_the_first_non_blank_line(self, tmp_path):
        path = _write(tmp_path, "d.tsv", "\n\nA\tB\na\tb\nb\ta\n")
        d = load_table(path)
        assert d.names == ("A", "B") and d.n == 2

    def test_duplicate_column_named(self, tmp_path):
        path = _write(tmp_path, "d.csv", "A,B,A\na,b,a\nb,a,b\n")
        with pytest.raises(DataError, match="duplicate column name 'A'") as err:
            load_table(path)
        assert str(err.value).endswith(f"in header fields 1 and 3, in data file {path}")

    def test_empty_rejected(self, tmp_path):
        path = _write(tmp_path, "d.csv", "")
        with pytest.raises(DataError, match="empty"):
            load_table(path)

    def test_delimiter_autodetect_and_override(self, tmp_path):
        semi = _write(tmp_path, "semi.csv", "A;B\na;b\nb;a\n")
        d = load_table(semi)
        assert d.names == ("A", "B")
        tab = _write(tmp_path, "tab.tsv", "A\tB\na\tb\nb\ta\n")
        assert load_table(tab).names == ("A", "B")
        forced = load_table(semi, delimiter=";")
        assert forced.names == ("A", "B")

    @pytest.mark.parametrize("delimiter", ["ab", "", 0])
    def test_delimiter_must_be_one_character(self, tmp_path, delimiter):
        path = _write(tmp_path, "d.csv", "A,B\na,b\nb,a\n")
        message = f"delimiter must be a single character, got {delimiter!r}"
        with pytest.raises(DataError, match=re.escape(message)):
            load_table(path, delimiter=delimiter)
        with pytest.raises(DataError, match=re.escape(message)):
            write_table(load_table(path), str(tmp_path / "out.csv"), delimiter=delimiter)
        assert not (tmp_path / "out.csv").exists()

    def test_type_hint_discrete(self, tmp_path):
        path = _write(tmp_path, "d.csv", "X,Y\n1,2\n2,1\n1,1\n")
        d = load_table(path, type_hint="discrete")
        assert d.discrete
        assert d.levels("X") == ("1", "2")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "NaN"])
    def test_non_finite_numeric_cell_rejected(self, tmp_path, cell):
        path = _write(tmp_path, "d.csv", f"A,B\n1.5,2\n\n0.5,{cell}\n2,1\n")
        with pytest.raises(DataError, match=f"non-finite value '{cell}' in row 4, "
                                            f"column 'B'"):
            load_table(path)

    def test_non_finite_text_is_a_level_when_discrete(self, tmp_path):
        path = _write(tmp_path, "d.csv", "A,B\n1,nan\n2,inf\n1,nan\n")
        assert load_table(path, type_hint="discrete").levels("B") == ("inf", "nan")

    def test_type_hint_continuous_rejects_text(self, tmp_path):
        path = _write(tmp_path, "d.csv", "A,B\na,1\nb,2\n")
        with pytest.raises(DataError):
            load_table(path, type_hint="continuous")

    def test_roundtrip_write(self, tmp_path):
        path = _write(tmp_path, "d.csv", "A,B\na,b\nb,a\nc,b\n")
        d = load_table(path)
        out = str(tmp_path / "out.csv")
        write_table(d, out)
        d2 = load_table(out)
        assert d2.levels("A") == d.levels("A")
        assert list(d2.codes("B")) == list(d.codes("B"))

    def test_roundtrip_write_continuous_exact(self, tmp_path):
        rng = np.random.default_rng(99)
        d = Dataset(("X", "Y"), {"X": NumericColumn(rng.standard_normal(20)),
                                 "Y": NumericColumn(rng.standard_normal(20))})
        out = str(tmp_path / "out.csv")
        write_table(d, out)
        d2 = load_table(out)
        assert not d2.discrete
        assert np.array_equal(d2.values("X"), d.values("X"))


class TestDatasetInvariants:
    def test_homogeneity(self):
        with pytest.raises(DataError, match="mixed"):
            Dataset(("A", "X"), {
                "A": CategoricalColumn(("a", "b"), np.zeros(3, dtype=np.int64)),
                "X": NumericColumn(np.zeros(3)),
            })

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            Dataset(("A", "B"), {
                "A": CategoricalColumn(("a", "b"), np.zeros(3, dtype=np.int64)),
                "B": CategoricalColumn(("a", "b"), np.zeros(4, dtype=np.int64)),
            })

    def test_missing_column_named(self):
        with pytest.raises(DataError, match="no data for column 'B'"):
            Dataset(("A", "B"), {"A": NumericColumn(np.zeros(3))})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_numeric_rejected(self, bad):
        with pytest.raises(DataError, match="column 'Y' has a non-finite value at row 2"):
            Dataset(("X", "Y"), {"X": NumericColumn(np.zeros(4)),
                                 "Y": NumericColumn(np.array([0.0, 1.0, bad, bad]))})

    @pytest.mark.parametrize("bad", [[0.7, 1.9, 0.2], [0.0, 1.0, math.nan],
                                     ["0", "1", "0"]])
    def test_non_integer_codes_rejected(self, bad):
        levels = {"A": ("a", "b"), "B": ("a", "b")}
        with pytest.raises(DataError, match="column 'A' has non-integer codes"):
            Dataset.from_codes(["A", "B"], levels, {"A": bad, "B": [0, 1, 0]})

    def test_integral_float_codes_accepted(self):
        d = Dataset.from_codes(["A", "B"], {"A": ("a", "b"), "B": ("a", "b")},
                               {"A": [0.0, 1.0, 0.0], "B": [True, False, True]})
        assert d.codes("A").tolist() == [0, 1, 0] and d.codes("A").dtype == np.int64
        assert d.codes("B").tolist() == [1, 0, 1]

    @pytest.mark.parametrize("bad", [[0.0, 2.0, 1.0], [0.0, math.inf, 1.0], [-1, 0, 1]])
    def test_out_of_range_codes_rejected(self, bad):
        with pytest.raises(DataError, match="column 'A' has out-of-range codes"):
            Dataset.from_codes(["A"], {"A": ("a", "b")}, {"A": bad})

    def test_codes_must_be_one_dimensional(self):
        with pytest.raises(DataError, match=re.escape(
                "column 'A' is not one-dimensional: its shape is (2, 2)")):
            Dataset.from_codes(["A", "B"], {"A": ("a", "b"), "B": ("a", "b")},
                               {"A": [[0, 1], [1, 0]], "B": [0, 1, 0, 1]})

    @pytest.mark.parametrize("bad", [5.0, [[1.0, 2.0]]])
    def test_values_must_be_one_dimensional(self, bad):
        with pytest.raises(DataError, match="column 'A' is not one-dimensional"):
            Dataset.from_values(["A", "B"], {"A": bad, "B": [3.0]})

    def test_columns_are_read_only(self):
        d = forward_sample(alarm_fitted(1), 300, seed=40)
        L = contingency_counts(d, "HR", "CVP", ["HIST"]).L
        with pytest.raises(ValueError, match="read-only"):
            d.codes("HIST")[:] = 0
        assert contingency_counts(d, "HR", "CVP", ["HIST"]).L == L > 1
        g = Dataset.from_values(["X", "Y"], {"X": [1.0, 2.0, 4.0], "Y": [0.0, 1.0, 0.0]})
        with pytest.raises(ValueError, match="read-only"):
            g.values("X")[0] = 3.0

    @pytest.mark.parametrize("discrete", [True, False])
    def test_only_arrays_the_caller_can_write_are_copied(self, discrete):
        dtype = np.int64 if discrete else np.float64
        made = [np.array([0, 1, 1, 0], dtype), np.array([1, 0, 1, 1], dtype)]
        frozen = made[1].copy()
        frozen.flags.writeable = False
        view = made[0].view()  # read-only, but its base stays writeable
        view.flags.writeable = False
        given = {"A": made[0], "B": frozen, "C": view, "D": [0, 0, 1, 1]}
        if discrete:
            d = Dataset.from_codes(list(given), dict.fromkeys(given, ("a", "b")), given)
        else:
            d = Dataset.from_values(list(given), given)
        read = Dataset.codes if discrete else Dataset.values
        made[0][:] = 1
        assert read(d, "A").tolist() == read(d, "C").tolist() == [0, 1, 1, 0]
        assert not np.shares_memory(read(d, "A"), made[0])
        assert not np.shares_memory(read(d, "C"), made[0])
        assert read(d, "B") is frozen
        assert all(not read(d, v).flags.writeable for v in given)
        again = Dataset(d.names, d.columns)
        assert all(read(again, v) is read(d, v) for v in given)

    def test_reorder(self):
        d = Dataset(("A", "B"), {
            "A": CategoricalColumn(("a", "b"), np.zeros(3, dtype=np.int64)),
            "B": CategoricalColumn(("a", "b"), np.ones(3, dtype=np.int64)),
        })
        assert d.reorder(("B", "A")).names == ("B", "A")


class TestContingency:
    def test_marginal_2x2(self):
        rng = np.random.default_rng(5)
        d = Dataset(("X", "Y"), {
            "X": CategoricalColumn(("a", "b"), rng.integers(0, 2, 100)),
            "Y": CategoricalColumn(("a", "b"), rng.integers(0, 2, 100)),
        })
        t = contingency_counts(d, "X", "Y")
        assert t.counts.shape == (2, 2, 1)
        assert t.counts.sum() == 100
        assert t.L == 1

    def test_all_configs_observed(self):
        codes = {
            "X": np.array([0, 1, 0, 1, 0, 1, 0, 1]),
            "Y": np.array([0, 0, 1, 1, 0, 0, 1, 1]),
            "Z1": np.array([0, 0, 0, 0, 1, 1, 1, 1]),
            "Z2": np.array([0, 1, 0, 1, 0, 1, 0, 1]),
        }
        d = Dataset(tuple(codes), {k: CategoricalColumn(("a", "b"), v)
                                   for k, v in codes.items()})
        t = contingency_counts(d, "X", "Y", ["Z1", "Z2"])
        assert t.L == 4

    def test_unobserved_config_absent(self):
        # hand-built 10-row table: z2 config (b, b) never occurs
        z1 = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
        z2 = np.array([0, 1, 0, 1, 0, 0, 0, 0, 0, 0])
        x = np.array([0, 1, 1, 0, 0, 1, 0, 1, 0, 1])
        y = np.array([1, 0, 1, 0, 1, 0, 1, 0, 1, 0])
        d = Dataset(("X", "Y", "Z1", "Z2"), {
            "X": CategoricalColumn(("a", "b"), x),
            "Y": CategoricalColumn(("a", "b"), y),
            "Z1": CategoricalColumn(("a", "b"), z1),
            "Z2": CategoricalColumn(("a", "b"), z2),
        })
        t = contingency_counts(d, "X", "Y", ["Z1", "Z2"])
        assert t.L == 3  # (a,a), (a,b), (b,a) observed; (b,b) absent
        assert t.counts.sum() == 10
        # margins reconcile
        assert np.array_equal(t.margin_x().sum(axis=0), t.margin_y().sum(axis=0))
        assert t.margin_x().sum() == 10

    def test_errors(self):
        d = Dataset(("X", "Y"), {"X": NumericColumn(np.zeros(5)),
                                 "Y": NumericColumn(np.zeros(5))})
        with pytest.raises(DataError):
            contingency_counts(d, "X", "Y")


def _unique_codes(d, names):
    """Reference numbering: np.unique over the mixed-radix configuration codes."""
    combined = np.zeros(d.n, dtype=np.int64)
    for name in names:
        combined = combined * len(d.levels(name)) + d.codes(name)
    uniq, dense = np.unique(combined, return_inverse=True)
    return dense.astype(np.int64), int(uniq.size)


class TestConfigCodes:
    """joint_config_codes and contingency_counts against a direct np.unique reference."""

    @pytest.fixture(scope="class")
    def alarm_sample(self):
        return forward_sample(alarm_fitted(1), 300, seed=11)

    def _check(self, d, rng, zsize):
        x, y, *z = (str(v) for v in rng.choice(d.names, size=zsize + 2, replace=False))
        codes, L = joint_config_codes(d, z)
        want, want_L = _unique_codes(d, z)
        assert L == want_L and codes.dtype == want.dtype == np.int64
        assert codes.tobytes() == want.tobytes()
        t = contingency_counts(d, x, y, z)
        R, C = len(d.levels(x)), len(d.levels(y))
        flat = (d.codes(x) * C + d.codes(y)) * want_L + want
        counts = np.bincount(flat, minlength=R * C * want_L).reshape(R, C, want_L)
        assert (t.R, t.C, t.L, t.n) == (R, C, want_L, d.n)
        assert t.counts.dtype == counts.dtype
        assert t.counts.tobytes() == counts.tobytes()
        return math.prod(len(d.levels(v)) for v in z)

    @pytest.mark.parametrize("zsize", range(8))
    def test_matches_unique(self, alarm_sample, zsize):
        rng = np.random.default_rng(zsize)
        spaces = [self._check(alarm_sample, rng, zsize) for _ in range(40)]
        # n = 300: small sets take the marking path, some of the largest the sort
        bound = 4 * alarm_sample.n + 1024
        assert zsize > 4 or max(spaces) <= bound
        assert zsize < 7 or max(spaces) > bound

    @pytest.mark.parametrize("zsize", range(5))
    def test_fallback_matches_unique(self, alarm_sample, monkeypatch, zsize):
        monkeypatch.setattr(bnsl.data, "_CODE_SPACE_PER_ROW", 0)
        monkeypatch.setattr(bnsl.data, "_CODE_SPACE_BASE", 0)
        rng = np.random.default_rng(100 + zsize)
        for _ in range(20):
            self._check(alarm_sample, rng, zsize)

    def test_empty_z_and_unobserved_configurations(self):
        # 3 x 3 configuration space of (Z1, Z2) with only 4 configurations seen
        z1 = np.array([2, 0, 2, 1, 0, 2])
        z2 = np.array([1, 0, 1, 2, 0, 0])
        d = Dataset(("Z1", "Z2"), {"Z1": CategoricalColumn(("a", "b", "c"), z1),
                                   "Z2": CategoricalColumn(("a", "b", "c"), z2)})
        codes, L = joint_config_codes(d, [])
        assert L == 1 and codes.tobytes() == np.zeros(6, dtype=np.int64).tobytes()
        codes, L = joint_config_codes(d, ["Z1", "Z2"])
        assert L == 4 and codes.tolist() == [3, 0, 3, 1, 0, 2]
        codes, L = joint_config_codes(d, ["Z2", "Z1"])
        assert L == 4 and codes.tolist() == [2, 0, 2, 3, 0, 1]

    def test_cache_returns_the_uncached_codes_within_its_byte_cap(self):
        d = forward_sample(alarm_fitted(1), 20000, seed=12)
        capacity = bnsl.data._CODE_CACHE_BYTES // (8 * d.n)
        rng = np.random.default_rng(13)
        pool = list(d.names[:9])  # few columns, so sets recur and get evicted
        seen = set()
        for _ in range(6 * capacity):
            z = tuple(str(v) for v in rng.choice(pool, size=int(rng.integers(0, 4)),
                                                 replace=False))
            codes, L = joint_config_codes(d, z)
            want, want_L = bnsl.data._config_codes(d, z)
            assert L == want_L and codes.dtype == want.dtype
            assert codes.tobytes() == want.tobytes()
            assert not codes.flags.writeable
            with pytest.raises(ValueError):
                codes[0] = 1
            cache = d._memo["config-codes"]
            assert sum(c.nbytes for c, _ in cache.values()) <= bnsl.data._CODE_CACHE_BYTES
            assert cache[z][0] is codes  # the latest set is always kept
            seen.add(z)
        assert len(seen) > capacity and len(cache) == capacity


def _mixed_levels(n, seed):
    """Random data whose columns have 2 to 6 levels, some of them never observed."""
    rng = np.random.default_rng(seed)
    names = [f"V{i}" for i in range(9)]
    levels = {v: tuple(f"l{j}" for j in range(int(rng.integers(2, 7)))) for v in names}
    # each column draws from a random subset of its levels
    codes = {v: rng.choice(rng.permutation(len(levels[v]))[:int(rng.integers(1, 4))], n)
             for v in names}
    return Dataset.from_codes(names, levels, codes)


_PAIR_DATASETS = {"alarm": lambda: forward_sample(alarm_fitted(1), 5000, seed=35),
                  "mixed": lambda: _mixed_levels(700, 36),
                  "one-row": lambda: _mixed_levels(1, 37)}


class TestPairTables:
    """Every joint table of a column pair comes from the dataset's one-hot product."""

    @staticmethod
    def _fill(d, nodes):
        """The rows of an empty graph over nodes: every node with every other added."""
        families = {}
        for v in nodes:
            others = [u for u in nodes if u != v]
            families.update(((v, u), table) for u, table
                            in zip(others, _toggle_family_counts(d, v, [], others)))
        return families

    @staticmethod
    def _assert_fresh(d, families):
        for (v, u), (counts, q) in families.items():
            want, want_q = family_counts(d, v, [u])
            assert q == want_q == len(d.levels(u))
            assert counts.dtype == np.int64 and counts.flags.c_contiguous
            assert counts.flags.writeable and np.array_equal(counts, want)

    @staticmethod
    def _assert_tables_fresh(d):
        for x in d.names:
            for y in d.names:
                if x != y:
                    t = contingency_counts(d, x, y)
                    R, C = len(d.levels(x)), len(d.levels(y))
                    want = np.bincount(d.codes(x) * C + d.codes(y), minlength=R * C)
                    assert t.counts.dtype == np.int64 and t.counts.flags.c_contiguous
                    assert t.counts.flags.writeable and t.L == 1 and t.n == d.n
                    assert np.array_equal(t.counts, want.reshape(R, C, 1))

    @pytest.mark.parametrize("data", _PAIR_DATASETS)
    def test_families_and_tables_equal_fresh_counts(self, data):
        d = _PAIR_DATASETS[data]()
        nodes = list(d.names)
        first, second = self._fill(d, nodes), self._fill(d, nodes)
        self._assert_fresh(d, first)
        self._assert_fresh(d, second)
        self._assert_tables_fresh(d)
        span, product = d._memo["pair-tables"]
        width = sum(len(d.levels(v)) for v in d.names)
        assert product.shape == (width, width) and product.dtype == np.int64
        assert not product.flags.writeable
        assert [span[v].stop - span[v].start for v in nodes] == [len(d.levels(v))
                                                                 for v in nodes]

    def test_writing_into_a_family_changes_no_later_family(self):
        d = forward_sample(alarm_fitted(1), 500, seed=32)
        nodes = ["HR", "CVP", "HIST"]
        for counts, _ in self._fill(d, nodes).values():
            counts += 1000
        for counts, _ in self._fill(d, nodes).values():
            counts[...] = -1
        for x in nodes:
            for y in nodes:
                if x != y:
                    contingency_counts(d, x, y).counts[...] = -1
        self._assert_fresh(d, self._fill(d, nodes))
        self._assert_tables_fresh(d)

    def test_one_product_per_dataset(self, monkeypatch):
        d = forward_sample(alarm_fitted(1), 5000, seed=33)
        passes, blocks = [], []
        bincount, stack = np.bincount, np.stack

        def counting(x, *args, **kwargs):
            passes.append(len(x))
            return bincount(x, *args, **kwargs)

        def stacking(arrays, *args, **kwargs):
            blocks.append(len(arrays[0]))
            return stack(arrays, *args, **kwargs)

        monkeypatch.setattr(bnsl.data.np, "bincount", counting)
        monkeypatch.setattr(bnsl.data.np, "stack", stacking)
        self._fill(d, list(d.names))
        assert len(d.names) == 37 and passes == [] and blocks == [1024] * 4 + [904]
        product = d._memo["pair-tables"]
        blocks.clear()
        self._fill(d, list(d.names))
        for x in d.names:
            contingency_counts(d, x, "HR" if x != "HR" else "CVP")
        assert passes == [] and blocks == [] and d._memo["pair-tables"] is product

    def test_past_the_level_bound_pairs_are_counted_each_time(self, monkeypatch):
        d = _mixed_levels(400, 34)
        width = sum(len(d.levels(v)) for v in d.names)
        monkeypatch.setattr(bnsl.data, "_PAIR_LEVELS", width - 1)
        passes = []
        bincount = np.bincount

        def counting(x, *args, **kwargs):
            passes.append(len(x))
            return bincount(x, *args, **kwargs)

        monkeypatch.setattr(bnsl.data.np, "bincount", counting)
        nodes = list(d.names)
        families = self._fill(d, nodes)
        assert passes == [d.n] * 72 and d._memo["pair-tables"] is None
        passes.clear()
        contingency_counts(d, "V0", "V1")
        assert passes == [d.n]
        monkeypatch.setattr(bnsl.data.np, "bincount", bincount)
        self._assert_fresh(d, families)
        self._assert_tables_fresh(d)

    @pytest.mark.parametrize("rows, dtype", [(700, np.float64), (701, np.float32)])
    def test_float64_product_from_the_row_threshold(self, monkeypatch, rows, dtype):
        d = _mixed_levels(700, 38)
        dtypes = []
        zeros = np.zeros

        def recording(shape, dtype=float, *args, **kwargs):
            dtypes.append(np.dtype(dtype))
            return zeros(shape, dtype, *args, **kwargs)

        monkeypatch.setattr(bnsl.data, "_FLOAT32_ROWS", rows)
        monkeypatch.setattr(bnsl.data.np, "zeros", recording)
        bnsl.data._pair_tables(d)
        monkeypatch.setattr(bnsl.data.np, "zeros", zeros)
        assert dtypes and set(dtypes) == {np.dtype(dtype)}
        self._assert_fresh(d, self._fill(d, list(d.names)))
        self._assert_tables_fresh(d)

    @pytest.mark.parametrize("test", ["mi", "x2"])
    def test_empty_z_pvalues_equal_those_of_bincount_tables(self, test):
        d = forward_sample(alarm_fitted(1), 5000, seed=39)
        for x in d.names:
            for y in d.names:
                if x != y:
                    R, C = len(d.levels(x)), len(d.levels(y))
                    flat = np.bincount(d.codes(x) * C + d.codes(y), minlength=R * C)
                    want = table_test(ContingencyTable(flat.reshape(R, C, 1), R, C, 1,
                                                       d.n), test)
                    got = ci_test(d, x, y, test=test)
                    assert got.p_value == want.p_value
                    assert got.statistic == want.statistic


class TestCountCap:
    """A contingency table past 2^24 cells is refused before it is counted."""

    @staticmethod
    def _ids(n):
        """Two ID-like columns (n levels each) and a two-level column."""
        ids = np.arange(n)
        levels = tuple(str(i) for i in range(n))
        return Dataset.from_codes(["X", "Y", "Z"], {"X": levels, "Y": levels,
                                                    "Z": ("a", "b")},
                                  {"X": ids, "Y": ids[::-1].copy(), "Z": ids % 2})

    @pytest.mark.parametrize("n, z, cells", [(3000, ["Z"], 18000000),
                                             (4097, [], 16785409)])
    def test_huge_tables_are_data_errors(self, n, z, cells):
        d = self._ids(n)
        with pytest.raises(DataError, match=re.escape(
                f"the contingency table of 'X' and 'Y' has {cells} cells, "
                f"more than {2 ** 24}")):
            contingency_counts(d, "X", "Y", z)
        with pytest.raises(DataError, match="contingency table of 'X' and 'Y'"):
            ci_test(d, "X", "Y", z, test="mc-mi", B=10)

    def test_the_cap_is_the_family_cap(self, monkeypatch):
        d = self._ids(30)
        monkeypatch.setattr(bnsl.data, "_MAX_PARENT_CONFIGS", 30 * 30 * 2 - 1)
        with pytest.raises(DataError, match="has 1800 cells"):
            contingency_counts(d, "X", "Y", ["Z"])
        assert contingency_counts(d, "X", "Y").counts.sum() == 30
        monkeypatch.setattr(bnsl.data, "_MAX_PARENT_CONFIGS", 30 * 30 * 2)
        assert contingency_counts(d, "X", "Y", ["Z"]).L == 2


class TestCorrelation:
    def test_self_correlation(self):
        rng = np.random.default_rng(6)
        d = Dataset(("X", "Y"), {"X": NumericColumn(rng.standard_normal(50)),
                                 "Y": NumericColumn(rng.standard_normal(50))})
        m = correlation_matrix(d, ["X", "Y"])
        assert m[0, 0] == pytest.approx(1.0)

    def test_string_names_one_column(self):
        rng = np.random.default_rng(7)
        d = Dataset.from_values(("X", "Y", "XY"), {c: rng.standard_normal(50)
                                                   for c in ("X", "Y", "XY")})
        assert np.array_equal(correlation_matrix(d, "XY"), correlation_matrix(d, ["XY"]))
        assert partial_correlation(d, "X", "Y", "XY") == \
            partial_correlation(d, "X", "Y", ["XY"])

    def test_anticorrelation(self):
        x = np.arange(10.0)
        d = Dataset(("X", "Y"), {"X": NumericColumn(x), "Y": NumericColumn(-x)})
        assert correlation_matrix(d, ["X", "Y"])[0, 1] == pytest.approx(-1.0)

    def test_four_point_hand_value(self):
        # {(0,0),(1,1),(2,2),(3,0)}: direct Pearson formula
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([0.0, 1.0, 2.0, 0.0])
        n = 4
        sxy = (x * y).sum() / n - x.mean() * y.mean()
        r = sxy / (x.std() * y.std())
        d = Dataset(("X", "Y"), {"X": NumericColumn(x), "Y": NumericColumn(y)})
        assert correlation_matrix(d, ["X", "Y"])[0, 1] == pytest.approx(r, abs=1e-12)

    def test_zero_variance_rejected(self):
        d = Dataset(("X", "Y"), {"X": NumericColumn(np.ones(5)),
                                 "Y": NumericColumn(np.arange(5.0))})
        with pytest.raises(DataError, match="zero-variance"):
            correlation_matrix(d, ["X", "Y"])

    def test_psd_and_symmetric(self):
        rng = np.random.default_rng(8)
        names = ["V1", "V2", "V3", "V4"]
        d = Dataset(tuple(names),
                    {n: NumericColumn(rng.standard_normal(60)) for n in names})
        m = correlation_matrix(d, names)
        assert np.allclose(m, m.T)
        assert np.linalg.eigvalsh(m).min() > -1e-10


    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 40), st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
    def test_matches_corrcoef(self, n, p, seed, data):
        rng = np.random.default_rng(seed)
        mixed = rng.standard_normal((n, p)) @ rng.standard_normal((p, p))
        mat = mixed * rng.uniform(0.1, 10.0, p) + rng.uniform(-100.0, 100.0, p)
        names = [f"V{i}" for i in range(p)]
        d = Dataset(tuple(names), {c: NumericColumn(mat[:, i])
                                   for i, c in enumerate(names)})
        subset = data.draw(st.lists(st.sampled_from(range(p)), min_size=1,
                                    max_size=p, unique=True))
        got = correlation_matrix(d, [names[i] for i in subset])
        want = np.atleast_2d(np.corrcoef(mat[:, subset], rowvar=False))
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    def test_constant_column_rejected_only_when_requested(self):
        rng = np.random.default_rng(19)
        names = ("X", "K", "Y", "Z")
        cols = {c: NumericColumn(rng.standard_normal(50)) for c in names}
        cols["K"] = NumericColumn(np.full(50, 2.5))
        d = Dataset(names, cols)
        others = np.column_stack([cols[c].values for c in ("X", "Y", "Z")])
        assert np.allclose(correlation_matrix(d, ["X", "Y", "Z"]),
                           np.corrcoef(others, rowvar=False), rtol=0.0, atol=1e-12)
        for label in ("cor", "zf", "mi-g"):
            assert not ci_test(d, "X", "Y", ["Z"], test=label).degenerate
        assert 0.0 < ci_test(d, "X", "Y", ["Z"], test="mc-cor", B=49).p_value <= 1.0
        with pytest.raises(DataError, match="zero-variance column 'K'"):
            correlation_matrix(d, ["X", "K"])
        with pytest.raises(DataError, match="zero-variance column 'K'"):
            partial_correlation(d, "X", "Y", ["K"])


    def test_memoised_matrix_equals_direct_formula(self):
        # every entry is the element-wise formula on the requested submatrix
        rng = np.random.default_rng(41)
        names = [f"V{i}" for i in range(9)]
        mat = rng.standard_normal((70, 9)) @ rng.standard_normal((9, 9))
        d = Dataset(tuple(names), {c: NumericColumn(mat[:, i] * (i + 1) + 3.0 * i)
                                   for i, c in enumerate(names)})
        index, _, sds, scatter, _ = _gaussian_moments(d)
        for _ in range(200):
            subset = [names[i] for i in rng.choice(9, int(rng.integers(1, 10)),
                                                   replace=False)]
            idx = [index[c] for c in subset]
            sd = sds[idx]
            want = scatter[np.ix_(idx, idx)] / (d.n * np.outer(sd, sd))
            np.fill_diagonal(want, 1.0)
            want = np.clip(want, -1.0, 1.0)
            got = correlation_matrix(d, subset)
            assert got.shape == want.shape and np.all(got == want)
        assert list(d._memo) == ["gaussian-moments"]

    def test_correlations_and_bge_share_one_gaussian_entry(self):
        rng = np.random.default_rng(43)
        d = Dataset(("X", "Y", "Z"), {c: NumericColumn(rng.standard_normal(40))
                                      for c in ("X", "Y", "Z")})
        correlation_matrix(d, ["X", "Z"])
        local_score("Y", ["X"], d, ScoreSpec(kind="bge"))
        # one entry of moments and correlations, beside the bge posterior
        assert sorted(map(str, d._memo)) == ["('bge-context', 1.0, None)",
                                             "gaussian-moments"]

    def test_constant_column_does_not_warn(self):
        rng = np.random.default_rng(42)
        d = Dataset(("X", "K", "Y"), {"X": NumericColumn(rng.standard_normal(20)),
                                      "K": NumericColumn(np.zeros(20)),
                                      "Y": NumericColumn(rng.standard_normal(20))})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(correlation_matrix(d, ["X", "Y"])))


class TestPartialCorrelation:
    def test_empty_z_reduces_to_correlation(self):
        rng = np.random.default_rng(9)
        d = Dataset(("X", "Y"), {"X": NumericColumn(rng.standard_normal(40)),
                                 "Y": NumericColumn(rng.standard_normal(40))})
        assert partial_correlation(d, "X", "Y") == pytest.approx(
            correlation_matrix(d, ["X", "Y"])[0, 1])

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        cols = {n: NumericColumn(rng.standard_normal(60))
                for n in ("X", "Y", "Z")}
        d = Dataset(("X", "Y", "Z"), cols)
        assert partial_correlation(d, "X", "Y", ["Z"]) == \
            partial_correlation(d, "Y", "X", ["Z"])

    def test_regression_residual_oracle(self):
        rng = np.random.default_rng(12)
        n = 200
        z = rng.standard_normal(n)
        x = 1.5 * z + rng.standard_normal(n)
        y = -2.0 * z + rng.standard_normal(n)
        d = Dataset(("X", "Y", "Z"), {"X": NumericColumn(x),
                                      "Y": NumericColumn(y),
                                      "Z": NumericColumn(z)})
        # oracle: correlation of the two regression residual vectors
        def resid(v):
            design = np.column_stack([np.ones(n), z])
            beta, *_ = np.linalg.lstsq(design, v, rcond=None)
            return v - design @ beta
        rx, ry = resid(x), resid(y)
        oracle = float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))
        assert partial_correlation(d, "X", "Y", ["Z"]) == pytest.approx(
            oracle, abs=1e-10)

    def test_deterministic_function_of_z(self):
        rng = np.random.default_rng(13)
        n = 100
        z = rng.standard_normal(n)
        x = rng.standard_normal(n)
        y = 3.0 * z + 1.0  # exactly determined by z: residuals vanish
        d = Dataset(("X", "Y", "Z"), {"X": NumericColumn(x),
                                      "Y": NumericColumn(y),
                                      "Z": NumericColumn(z)})
        assert abs(partial_correlation(d, "X", "Y", ["Z"])) < 1e-10

    def test_singular_conditioning_set_tests_its_span(self):
        rng = np.random.default_rng(18)
        n = 50
        z1 = rng.standard_normal(n)
        d = Dataset(("X", "Y", "Z1", "Z2"), {
            "X": NumericColumn(rng.standard_normal(n)),
            "Y": NumericColumn(rng.standard_normal(n)),
            "Z1": NumericColumn(z1),
            "Z2": NumericColumn(z1.copy()),  # duplicated conditioning column
        })
        assert abs(partial_correlation(d, "X", "Y", ["Z1", "Z2"])
                   - partial_correlation(d, "X", "Y", ["Z1"])) <= 1e-12

    def test_near_deterministic_residual_vanishes(self):
        rng = np.random.default_rng(14)
        n = 100
        z = rng.standard_normal(n)
        x = rng.standard_normal(n)
        y = 3.0 * z + 1e-8 * rng.standard_normal(n)
        d = Dataset(("X", "Y", "Z"), {"X": NumericColumn(x),
                                      "Y": NumericColumn(y),
                                      "Z": NumericColumn(z)})
        assert abs(partial_correlation(d, "X", "Y", ["Z"])) < 0.2

    def test_not_enough_rows(self):
        d = Dataset(("X", "Y", "Z"), {n: NumericColumn(np.arange(3.0) + i)
                                      for i, n in enumerate(("X", "Y", "Z"))})
        with pytest.raises(DataError):
            partial_correlation(d, "X", "Y", ["Z"])


def _inverse_rule(d, x, y, z):
    """Partial correlation by the rule it had before the Cholesky kernel.

    The SVD condition number of the [a, b] + z correlation matrix must be
    below 1e12, then rho comes from its inverse ("value"); otherwise the
    regression fallback: 0 when a residual vanishes ("zero"), else the
    correlation of the residuals ("residual"). Returns rho and its rule.
    """
    if d.n <= len(z) + 2:
        raise DataError("not enough rows for the conditioning set")
    a, b = (x, y) if x <= y else (y, x)
    corr = correlation_matrix(d, [a, b] + z)
    if np.linalg.cond(corr) < 1e12:
        omega = np.linalg.inv(corr)
        rho = -omega[0, 1] / math.sqrt(omega[0, 0] * omega[1, 1])
        if math.isfinite(rho):
            return float(np.clip(rho, -1.0, 1.0)), "value"
    resid = []
    for name in (a, b):
        vals = d.values(name)
        _, r = _regress(d, name, z)
        if np.linalg.norm(r) <= 1e-6 * max(np.linalg.norm(vals - vals.mean()), 1e-30):
            return 0.0, "zero"
        resid.append(r)
    ra, rb = resid
    return float(np.clip(ra @ rb / np.sqrt((ra @ ra) * (rb @ rb)), -1.0, 1.0)), "residual"


def _near_collinear_case(rng):
    """x a near-linear function of z; sometimes z1 close to 2 z0."""
    n, k = int(rng.integers(8, 301)), int(rng.integers(1, 7))
    noise = 10.0 ** rng.uniform(-17.0, 0.0)
    zs = rng.standard_normal((n, k))
    if k > 1 and rng.random() < 0.3:
        zs[:, 1] = 2.0 * zs[:, 0] + noise * rng.standard_normal(n)
    x = zs @ rng.standard_normal(k) + noise * rng.standard_normal(n)
    y = 0.5 * zs[:, 0] + rng.standard_normal(n)
    z = [f"Z{i}" for i in range(k)]
    cols = {"X": NumericColumn(x), "Y": NumericColumn(y)}
    cols.update((c, NumericColumn(zs[:, i])) for i, c in enumerate(z))
    return Dataset(("X", "Y", *z), cols), z


class TestNearCollinearSweep:
    def test_keeps_every_decision(self, monkeypatch):
        # the eigenvalue guard and the Cholesky factor decide value / 0.0
        # exactly as the SVD guard and the inverse did, and a matrix neither
        # trusts takes the residuals' correlation. The regressions counted
        # show which path partial_correlation took: none for a trusted factor.
        regressions = []
        def counted(*args):
            regressions.append(args[1])
            return _regress(*args)
        monkeypatch.setattr(bnsl.data, "_regress", counted)
        rng = np.random.default_rng(2024)
        seen = {"value": 0, "zero": 0, "residual": 0}
        compared = 0
        for _ in range(4000):
            d, z = _near_collinear_case(rng)
            try:
                ref_rho, rule = _inverse_rule(d, "X", "Y", z)
            except DataError:  # too few rows: both rules refuse
                with pytest.raises(DataError, match="not enough rows"):
                    partial_correlation(d, "X", "Y", z)
                continue
            regressions.clear()
            rho = partial_correlation(d, "X", "Y", z)
            assert bool(regressions) == (rule != "value"), (rule, regressions)
            assert (rho == 0.0) == (rule == "zero")
            seen[rule] += 1
            if rule == "residual":
                assert abs(rho - ref_rho) <= 1e-12
            if rule != "value":
                continue
            if np.linalg.cond(correlation_matrix(d, ["X", "Y"] + z)) >= 1e4:
                continue
            compared += 1
            labels = ("cor", "zf", "mi-g") if d.n > len(z) + 3 else ("cor", "mi-g")
            for label in labels:
                p = gaussian_statistic(rho, d.n, len(z), label).p_value
                q = gaussian_statistic(ref_rho, d.n, len(z), label).p_value
                assert abs(p - q) <= 1e-12
        assert min(seen.values()) >= 50 and compared >= 200, (seen, compared)


class TestFitMLE:
    def test_parentless_counts(self):
        codes = np.array([0] * 30 + [1] * 70)
        d = Dataset(("A",), {"A": CategoricalColumn(("a", "b"), codes)})
        f = fit_mle(parse_modelstring("[A]"), d)
        assert np.allclose(f.locals["A"].table[:, 0], [0.3, 0.7])

    def test_unseen_parent_config_uniform(self):
        a = np.zeros(50, dtype=np.int64)  # parent stuck at level a
        b = np.array([0, 1] * 25)
        d = Dataset(("A", "B"), {"A": CategoricalColumn(("a", "b"), a),
                                 "B": CategoricalColumn(("a", "b"), b)})
        f = fit_mle(parse_modelstring("[A][B|A]"), d)
        assert np.allclose(f.locals["B"].table[:, 1], [0.5, 0.5])

    def test_gaussian_coefficients(self):
        rng = np.random.default_rng(15)
        n = 1000
        x = rng.standard_normal(n)
        y = 2.0 * x + 1.0 + 0.1 * rng.standard_normal(n)
        d = Dataset(("X", "Y"), {"X": NumericColumn(x), "Y": NumericColumn(y)})
        f = fit_mle(parse_modelstring("[X][Y|X]"), d)
        loc = f.locals["Y"]
        assert loc.coefficients[0] == pytest.approx(2.0, abs=0.05)
        assert loc.intercept == pytest.approx(1.0, abs=0.05)
        assert loc.sd == pytest.approx(0.1, abs=0.02)

    def test_parent_configuration_cap(self):
        # 300^3 parent configurations exceed the cap, which must fire before
        # anything of that size is allocated
        rng = np.random.default_rng(16)
        levels = tuple(f"l{i}" for i in range(300))
        cols = {c: CategoricalColumn(levels, rng.integers(0, 300, size=10))
                for c in ("P1", "P2", "P3")}
        cols["C"] = CategoricalColumn(("a", "b"), rng.integers(0, 2, size=10))
        d = Dataset(("P1", "P2", "P3", "C"), cols)
        with pytest.raises(DataError, match="parent configuration space of 'C'"):
            local_score("C", ["P1", "P2", "P3"], d, ScoreSpec(kind="bic"))
        with pytest.raises(DataError, match="parent configuration space of 'C'"):
            fit_mle(parse_modelstring("[P1][P2][P3][C|P1:P2:P3]"), d)

    def test_rejects_pdag(self):
        from bnsl.graph import set_undirected
        d = Dataset(("A", "B"), {
            "A": CategoricalColumn(("a", "b"), np.array([0, 1])),
            "B": CategoricalColumn(("a", "b"), np.array([0, 1])),
        })
        g = set_undirected(parse_modelstring("[A][B]"), "A", "B")
        with pytest.raises(bnsl.GraphError):
            fit_mle(g, d)


class TestForwardSample:
    def test_deterministic_cpts_give_constant_columns(self):
        g = parse_modelstring("[A][B|A]")
        locals_ = {
            "A": DiscreteCPT(("a", "b"), (), (), np.array([[1.0], [0.0]])),
            "B": DiscreteCPT(("a", "b"), ("A",), (("a", "b"),),
                             np.array([[0.0, 1.0], [1.0, 0.0]])),
        }
        f = FittedNetwork(g, locals_)
        d = forward_sample(f, 50, seed=0)
        assert set(d.codes("A")) == {0}
        assert set(d.codes("B")) == {1}  # A stuck at a, so B flips to b

    def test_same_seed_identical(self):
        from bnsl import networks
        f = networks.sixnode()
        d1 = forward_sample(f, 500, seed=123)
        d2 = forward_sample(f, 500, seed=123)
        for n in d1.names:
            assert np.array_equal(d1.codes(n), d2.codes(n))
        d3 = forward_sample(f, 500, seed=124)
        assert any(not np.array_equal(d1.codes(n), d3.codes(n)) for n in d1.names)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_rejected(self, seed):
        from bnsl import networks
        with pytest.raises(DataError, match="seed must be an integer of at least 0"):
            forward_sample(networks.sixnode(), 10, seed=seed)

    @pytest.mark.parametrize("n", [0, 2.5, True])
    def test_bad_sample_size_rejected(self, n):
        from bnsl import networks
        with pytest.raises(DataError, match="n must be an integer of at least 1"):
            forward_sample(networks.sixnode(), n, seed=0)

    def test_law_of_large_numbers(self):
        g = parse_modelstring("[A]")
        probs = np.array([[0.2], [0.5], [0.3]])
        f = FittedNetwork(g, {"A": DiscreteCPT(("a", "b", "c"), (), (), probs)})
        d = forward_sample(f, 50000, seed=77)
        freq = np.bincount(d.codes("A"), minlength=3) / d.n
        for got, want in zip(freq, probs[:, 0]):
            tol = 3 * math.sqrt(want * (1 - want) / d.n)
            assert abs(got - want) <= tol

    def test_fit_then_sample_then_fit_recovers(self):
        from bnsl import networks
        base = networks.sixnode()
        d0 = forward_sample(base, 4000, seed=5)
        fitted = fit_mle(base.graph, d0)
        d1 = forward_sample(fitted, 60000, seed=6)
        refit = fit_mle(base.graph, d1)
        for node in base.graph.nodes:
            loc = fitted.locals[node]
            t1, t2 = loc.table, refit.locals[node].table
            cfg = bnsl.data._parent_config_index(
                [len(ls) for ls in loc.parent_levels],
                [d1.codes(p) for p in loc.parents], d1.n)
            counts = np.bincount(cfg, minlength=t1.shape[1])
            for j in range(t1.shape[1]):
                if counts[j] == 0:
                    continue
                for i in range(t1.shape[0]):
                    p = t1[i, j]
                    tol = 3 * math.sqrt(max(p * (1 - p), 1e-12) / counts[j]) + 1e-9
                    assert abs(t2[i, j] - p) <= tol

    def test_gaussian_sampling(self):
        g = parse_modelstring("[X][Y|X]")
        locals_ = {
            "X": LinearGaussian((), 0.0, np.array([]), 1.0),
            "Y": LinearGaussian(("X",), 1.0, np.array([2.0]), 0.1),
        }
        f = FittedNetwork(g, locals_)
        d = forward_sample(f, 20000, seed=3)
        x, y = d.values("X"), d.values("Y")
        beta = np.polyfit(x, y, 1)
        assert beta[0] == pytest.approx(2.0, abs=0.02)
        assert beta[1] == pytest.approx(1.0, abs=0.02)


class TestFittedNetworkJson:
    def test_discrete_roundtrip(self):
        from bnsl import networks
        f = networks.sixnode()
        back = FittedNetwork.from_json(f.to_json())
        assert back.graph == f.graph
        for n in f.graph.nodes:
            assert np.allclose(back.locals[n].table, f.locals[n].table)

    def test_continuous_roundtrip(self):
        g = parse_modelstring("[X][Y|X]")
        f = FittedNetwork(g, {
            "X": LinearGaussian((), 0.5, np.array([]), 2.0),
            "Y": LinearGaussian(("X",), 1.0, np.array([-0.5]), 0.25),
        })
        back = FittedNetwork.from_json(f.to_json())
        assert back.locals["Y"].coefficients[0] == -0.5
        assert back.locals["Y"].sd == 0.25

    @pytest.mark.parametrize("field, value", [
        ("intercept", math.nan), ("intercept", math.inf), ("coefficients", [math.nan]),
        ("sd", math.inf), ("sd", math.nan)])
    def test_linear_gaussian_must_be_finite(self, field, value):
        params = {"intercept": 0.0, "coefficients": [0.5], "sd": 1.0, field: value}
        with pytest.raises(DataError, match=f"{field} of 'Y' must be finite"):
            FittedNetwork(parse_modelstring("[X][Y|X]"), {
                "X": LinearGaussian((), 0.0, np.array([]), 1.0),
                "Y": LinearGaussian(("X",), params["intercept"],
                                    np.array(params["coefficients"]), params["sd"])})

    def test_invariants_enforced(self):
        g = parse_modelstring("[A]")
        bad = DiscreteCPT(("a", "b"), (), (), np.array([[0.6], [0.5]]))
        with pytest.raises(DataError):
            FittedNetwork(g, {"A": bad})
