"""Ingestion, sufficient statistics, MLE fitting and forward sampling."""

import itertools
import math
import re
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnsl
from bnsl import (DataError, Dataset, FittedNetwork, LearnConfig, ScoreSpec, ci_test,
                  constraint_learn, contingency_counts, correlation_matrix, fit_mle,
                  forward_sample, load_table, local_score, parse_modelstring,
                  partial_correlation, write_table)
from bnsl.data import _NOT_BUILT, CategoricalColumn, ContingencyTable, DiscreteCPT, \
    LinearGaussian, NumericColumn, _gaussian_moments, _pair_statistic, _regress, \
    _toggle_family_counts, family_counts, joint_config_codes
from bnsl.independence import _KERNELS, gaussian_statistic, table_test
from bnsl.networks import alarm_fitted
from bnsl.scores import network_score

# the slots in which a Dataset keeps the statistics it computes
_STORE = [slot for slot in Dataset.__slots__ if slot.startswith("_")]


def _kept(d):
    """The store slots in which d differs from a fresh Dataset over its columns."""
    fresh = Dataset(d.names, d.columns)
    return [slot for slot in _STORE if getattr(d, slot) != getattr(fresh, slot)]


def test_only_data_names_the_store():
    # one module owns what a dataset keeps: no other reads or writes its slots
    slot = re.compile(r"\.(%s)\b" % "|".join(_STORE))
    for path in sorted(Path(bnsl.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert "_memo" not in text, path.name
        if path.name != "data.py":
            assert slot.search(text) is None, (path.name, slot.search(text))


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


def _random_cells(rng, numeric):
    """Header and rows of clean cell texts: 2-6 columns, 1-40 rows, all one kind."""
    names = [f"C{j}" for j in range(int(rng.integers(2, 7)))]
    nrows = int(rng.integers(1, 41))
    pool = ["a", "b", "lvl 3", "x_y", "1a", "NORMAL", "é"]
    columns = []
    for _ in names:
        if numeric:
            columns.append([repr(float(v)) for v in rng.standard_normal(nrows)
                            * 10.0 ** int(rng.integers(-3, 4))])
        else:
            # two levels at least, in random order, so one-row tables still have both
            levels = list(rng.choice(pool, size=int(rng.integers(2, len(pool) + 1)),
                                     replace=False))
            cells = [levels[0], levels[1]] + [str(rng.choice(levels))
                                              for _ in range(max(nrows, 2) - 2)]
            columns.append([cells[i] for i in rng.permutation(len(cells))])
    nrows = len(columns[0])
    return names, [[col[i] for col in columns] for i in range(nrows)]


def _noisy_text(rng, names, rows):
    """The table as delimited text with spaces or tabs around cells, blank lines and
    a random mix of \\n and \\r\\n line ends; also each data row's file line.

    Cells may also sit between the separator \\x1f, which str.strip() drops
    but float() alone does not.
    """
    blanks = ["", " ", "\t", " , ", ",\t,"]

    def pad(cell, tabs=True):
        space = [" ", "  ", "\t", "\x1f"] if tabs else [" ", "  "]
        left, right = ("" if rng.random() < 0.5 else str(rng.choice(space)) for _ in "lr")
        return left + cell + right

    lines = [str(rng.choice(blanks)) for _ in range(int(rng.integers(0, 3)))]
    # the header takes no tabs: the delimiter is read from its line
    lines.append(",".join(pad(name, tabs=False) for name in names))
    at = []
    for row in rows:
        lines.extend(str(rng.choice(blanks)) for _ in range(int(rng.integers(0, 3))))
        lines.append(",".join(pad(cell) for cell in row))
        at.append(len(lines))
    lines.extend(str(rng.choice(blanks)) for _ in range(int(rng.integers(0, 3))))
    ends = [str(rng.choice(["\n", "\r\n"])) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends)), at


@pytest.mark.hash_seed
class TestLoadTableNoise:
    """Spaces, tabs, blank lines and \\r\\n change neither a table nor an error's place."""

    @staticmethod
    def _write(tmp_path, name, text):
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        return str(path)

    @pytest.mark.parametrize("numeric", [False, True], ids=["categorical", "numeric"])
    def test_noisy_file_loads_as_the_clean_one(self, tmp_path, numeric):
        rng = np.random.default_rng(60 + numeric)
        for case in range(60):
            names, rows = _random_cells(rng, numeric)
            clean = "\n".join(",".join(r) for r in [names] + rows) + "\n"
            noisy, _ = _noisy_text(rng, names, rows)
            want = load_table(self._write(tmp_path, f"clean{case}.csv", clean))
            got = load_table(self._write(tmp_path, f"noisy{case}.csv", noisy))
            assert got.names == want.names == tuple(names)
            assert got.discrete == want.discrete == (not numeric)
            for name in names:
                if numeric:
                    assert got.values(name).tobytes() == want.values(name).tobytes()
                    assert got.values(name).tolist() == [float(r[names.index(name)])
                                                         for r in rows]
                else:
                    assert got.levels(name) == want.levels(name)
                    assert got.codes(name).tobytes() == want.codes(name).tobytes()
                    assert [got.levels(name)[c] for c in got.codes(name)] == \
                        [r[names.index(name)] for r in rows]

    @pytest.mark.parametrize("fault", ["empty", "ragged", "non-finite"])
    def test_errors_name_the_file_line_and_column(self, tmp_path, fault):
        rng = np.random.default_rng(["empty", "ragged", "non-finite"].index(fault) + 70)
        for case in range(40):
            names, rows = _random_cells(rng, numeric=fault == "non-finite")
            # one or two faulty cells in distinct rows, so no row turns blank; the
            # error names the first column with one (the first row for a ragged
            # row), at its first row
            faulty = rng.choice(len(rows), size=min(len(rows), int(rng.integers(1, 3))),
                                replace=False)
            column = int(rng.integers(len(names)))  # often the column of both faults
            places = {(int(i), column if rng.random() < 0.5 else int(rng.integers(len(names))))
                      for i in faulty}
            for i, j in places:
                if fault == "empty":
                    rows[i][j] = "" if rng.random() < 0.5 else str(rng.choice([" ", "\t"]))
                elif fault == "non-finite":
                    rows[i][j] = str(rng.choice(["nan", "inf", "-Infinity", "NaN"]))
            if fault == "ragged":
                for i in {i for i, _ in places}:
                    rows[i] = rows[i][:-1] if rng.random() < 0.5 else rows[i] + ["extra"]
            noisy, at = _noisy_text(rng, names, rows)
            if fault == "ragged":
                i = min(i for i, _ in places)
                message = f"ragged row {at[i]}: expected {len(names)} fields, " \
                          f"got {len(rows[i])}, "
            else:
                j, i = min((j, i) for i, j in places)
                message = f"empty cell in row {at[i]}, column {names[j]!r}, " \
                    if fault == "empty" else \
                    f"non-finite value {rows[i][j]!r} in row {at[i]}, column {names[j]!r}"
            with pytest.raises(DataError, match=re.escape(message)):
                load_table(self._write(tmp_path, f"bad{case}.csv", noisy))


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


@pytest.mark.blas_threads
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


@pytest.mark.blas_threads
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

    def test_codes_past_int64_are_made_dense_on_the_way(self, monkeypatch):
        # 9^21 configurations pass 2^63: the running code is renumbered before
        # it would overflow, and the codes still follow the configurations' order
        rng = np.random.default_rng(21)
        names = [f"C{i}" for i in range(21)]
        d = Dataset.from_codes(names, {c: tuple("abcdefghi") for c in names},
                               {c: rng.integers(0, 9, size=300) for c in names})
        unique, calls = np.unique, []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return unique(*args, **kwargs)

        monkeypatch.setattr(bnsl.data.np, "unique", counting)
        codes, L = bnsl.data._config_codes(d, names)
        monkeypatch.undo()
        assert len(calls) >= 2  # at least one renumbering, then the final one
        rows = np.stack([d.codes(c) for c in names], axis=1)
        uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
        assert codes.dtype == np.int64 and L == len(uniq)
        assert codes.tolist() == inverse.ravel().tolist()

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
            cache = d._codes
            assert sum(c.nbytes for c, _ in cache.values()) <= bnsl.data._CODE_CACHE_BYTES
            if len(z) == 1 and L == len(d.levels(z[0])):
                # a column all of whose levels occur is its own codes, not a cache entry
                assert codes is d.codes(z[0]) and z not in cache
            else:
                assert cache[z][0] is codes  # the latest other set is always kept
                seen.add(z)
        assert () in seen and len(seen) > capacity and len(cache) == capacity

    @pytest.mark.parametrize("sort", [False, True], ids=["mark", "sort"])
    @pytest.mark.parametrize("data", ["alarm", "unobserved"])
    def test_sets_in_random_orders_match_the_uncached_codes(self, alarm_sample, monkeypatch,
                                                            data, sort):
        # sets of 1-4 columns in random orders, in a cache of six sets: the first
        # m - 1 columns of a set are cached, evicted or never asked for
        if data == "alarm":
            d = Dataset(alarm_sample.names, alarm_sample.columns)  # a fresh cache
        else:  # three levels a column; the even columns never take the third
            rng = np.random.default_rng(38)
            names = [f"U{i}" for i in range(8)]
            d = Dataset.from_codes(names, {v: ("a", "b", "c") for v in names},
                                   {v: rng.integers(0, 3 - (i % 2 == 0), 300)
                                    for i, v in enumerate(names)})
        if sort:
            monkeypatch.setattr(bnsl.data, "_CODE_SPACE_PER_ROW", 0)
            monkeypatch.setattr(bnsl.data, "_CODE_SPACE_BASE", 0)
        monkeypatch.setattr(bnsl.data, "_CODE_CACHE_BYTES", 6 * 8 * d.n)
        config_codes, numbered = bnsl.data._config_codes, []

        def counting(d, names):
            numbered.append(tuple(names))
            return config_codes(d, names)

        monkeypatch.setattr(bnsl.data, "_config_codes", counting)
        pool = list(d.names[:8])
        full = {v for v in pool if np.bincount(d.codes(v), minlength=len(d.levels(v))).all()}
        rng = np.random.default_rng(39)
        asked, kinds = set(), Counter()
        for _ in range(400):
            z = tuple(str(v) for v in rng.choice(pool, size=int(rng.integers(1, 5)),
                                                 replace=False))
            cache = d._codes
            prefix = z[:-1]
            if z in cache:
                kind = "hit"
            elif len(z) == 1:
                kind = "full column" if z[0] in full else "column"
            elif prefix in cache or len(prefix) == 1 and prefix[0] in full:
                kind = "prefix cached"
            else:
                kind = "prefix evicted" if prefix in asked else "prefix never asked"
            kinds[kind] += 1
            numbered.clear()
            codes, L = joint_config_codes(d, z)
            assert numbered == ([z] if kind in ("column", "prefix evicted",
                                                "prefix never asked") else [])
            want, want_L = config_codes(d, z)
            assert L == want_L and codes.dtype == want.dtype == np.int64
            assert codes.tobytes() == want.tobytes()
            assert not codes.flags.writeable
            if kind == "full column":
                assert codes is d.codes(z[0]) and z not in d._codes
            asked.add(z)
        assert all(kinds[k] for k in ("hit", "full column", "prefix cached",
                                      "prefix evicted", "prefix never asked"))
        assert kinds["column"] if data == "unobserved" else not kinds["column"]

    @staticmethod
    def _ranked(d, names):
        """The marking path as it was: rank the mixed-radix codes that occur."""
        code = np.zeros(d.n, dtype=np.int64)
        for name in names:
            code = code * len(d.levels(name)) + d.codes(name)
        space = math.prod(len(d.levels(name)) for name in names)
        rank = np.cumsum(np.bincount(code, minlength=space) > 0) - 1
        return rank[code], int(rank[-1]) + 1

    @pytest.mark.parametrize("data", ["alarm", "mixed"])
    def test_fully_observed_spaces_skip_the_rank(self, monkeypatch, data):
        d = _PAIR_DATASETS[data]()
        ranks = []
        cumsum = np.cumsum

        def ranking(*args, **kwargs):
            ranks.append(1)
            return cumsum(*args, **kwargs)

        monkeypatch.setattr(bnsl.data.np, "cumsum", ranking)
        rng = np.random.default_rng(14)
        full = partial = 0
        for zsize in (1, 1, 1, 2, 2, 3, 4):
            for _ in range(15):
                z = [str(v) for v in rng.choice(d.names, size=zsize, replace=False)]
                want, want_L = self._ranked(d, z)
                ranks.clear()
                codes, L = bnsl.data._config_codes(d, z)
                assert L == want_L and codes.dtype == np.int64
                assert codes.tobytes() == want.tobytes()
                space = math.prod(len(d.levels(v)) for v in z)
                assert space <= bnsl.data._CODE_SPACE_PER_ROW * d.n + bnsl.data._CODE_SPACE_BASE
                assert ranks == ([] if L == space else [1])
                full += L == space
                partial += L < space
        assert full and partial


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


def _product(d):
    """The pair tables d keeps (None past their bound), failing if none were built."""
    assert d._pair_tables is not _NOT_BUILT
    return d._pair_tables


def _record_builds(monkeypatch):
    """A list of whether each later call of data._pair_tables built the product."""
    asked = bnsl.data._pair_tables
    builds = []

    def asking(d, *args):
        unbuilt = d._pair_tables is _NOT_BUILT
        tables = asked(d, *args)
        builds.append(unbuilt and tables is not None)
        return tables

    monkeypatch.setattr(bnsl.data, "_pair_tables", asking)
    return builds


@pytest.mark.hash_seed
@pytest.mark.blas_threads
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
        span, product = _product(d)
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
        product = _product(d)
        span, gram = product
        blocks.clear()
        self._fill(d, list(d.names))
        assert passes == [] and blocks == []
        for x in d.names:  # a table is always its own bincount, equal to its block
            y = "HR" if x != "HR" else "CVP"
            passes.clear()
            t = contingency_counts(d, x, y)
            assert passes == [d.n]
            assert t.counts.tobytes() == gram[span[x], span[y]].tobytes()
        assert blocks == [] and _product(d) is product

    def test_a_lone_table_is_one_bincount_and_the_second_builds_the_product(
            self, monkeypatch):
        rng = np.random.default_rng(40)
        names = [f"V{i}" for i in range(500)]
        d = Dataset.from_codes(names, {v: ("a", "b", "c", "d") for v in names},
                               {v: rng.integers(0, 4, 5000) for v in names})
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
        first = ci_test(d, "V0", "V1")
        assert passes == [5000] and blocks == [] and d._pair_tables is _NOT_BUILT
        passes.clear()
        second = ci_test(d, "V2", "V3")
        assert passes == [] and len(blocks) == 5 and _product(d) is not None
        monkeypatch.setattr(bnsl.data.np, "bincount", bincount)
        for (x, y), got in ((("V0", "V1"), first), (("V2", "V3"), second)):
            flat = np.bincount(d.codes(x) * 4 + d.codes(y), minlength=16)
            want = table_test(ContingencyTable(flat.reshape(4, 4, 1), 4, 4, 1, d.n), "mi")
            assert got == want
            assert ci_test(d, x, y) == want  # now from the product

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
        assert passes == [d.n] * 72 and _product(d) is None
        passes.clear()
        contingency_counts(d, "V0", "V1")
        assert passes == [d.n]
        monkeypatch.setattr(bnsl.data.np, "bincount", bincount)
        self._assert_fresh(d, families)
        self._assert_tables_fresh(d)

    def test_the_product_is_int64_throughout_its_build(self, monkeypatch):
        d = _mixed_levels(1000, 38)
        width = sum(len(d.levels(v)) for v in d.names)
        squares, sums = [], []
        zeros, add = np.zeros, np.add

        def recording(shape, dtype=float, *args, **kwargs):
            if tuple(np.atleast_1d(shape)) == (width, width):
                squares.append(np.dtype(dtype))
            return zeros(shape, dtype, *args, **kwargs)

        def adding(a, b, *args, out=None, **kwargs):
            sums.append((out is a, a.dtype, b.dtype, b.shape))
            return add(a, b, *args, out=out, **kwargs)

        monkeypatch.setattr(bnsl.data, "_PAIR_CHUNK_ROWS", 7)
        monkeypatch.setattr(bnsl.data.np, "zeros", recording)
        monkeypatch.setattr(bnsl.data.np, "add", adding)
        span, product = bnsl.data._pair_tables(d, 2)
        monkeypatch.setattr(bnsl.data.np, "zeros", zeros)
        monkeypatch.setattr(bnsl.data.np, "add", add)
        # one int64 table, each block's float32 product added into it in place
        assert squares == [np.dtype(np.int64)]
        assert sums == [(True, np.dtype(np.int64), np.dtype(np.float32),
                         (width, width))] * 143
        assert product.dtype == np.int64 and not product.flags.writeable
        self._assert_fresh(d, self._fill(d, list(d.names)))
        self._assert_tables_fresh(d)
        assert _product(d)[1] is product

    @pytest.mark.parametrize("test_first", [True, False], ids=["test-first", "hc-first"])
    def test_one_ask_counter_serves_tests_and_hill_climbing(self, monkeypatch, test_first):
        d = forward_sample(alarm_fitted(1), 2000, seed=68)
        spec = ScoreSpec(kind="bic")

        def learn(data):
            g, trace = bnsl.hill_climb(data, bnsl.HillClimbConfig(score=spec))
            return g, network_score(g, data, spec), trace.lines()

        want_graph, want_score, want_lines = learn(Dataset(d.names, d.columns))
        want_test = ci_test(Dataset(d.names, d.columns), "HR", "CVP")
        builds = _record_builds(monkeypatch)
        if test_first:
            got_test = ci_test(d, "HR", "CVP")
            assert builds == [False] and d._pair_tables is _NOT_BUILT
            got_graph, got_score, got_lines = learn(d)
        else:
            got_graph, got_score, got_lines = learn(d)
            got_test = ci_test(d, "HR", "CVP")
        assert builds.count(True) == 1 and _product(d) is not None
        assert got_graph == want_graph and got_score == want_score
        assert got_lines == want_lines and _digits(got_test) == _digits(want_test)

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


def _discrete_sample(n, seed):
    """Random data whose columns have 2 to 4 levels, some of them never observed."""
    rng = np.random.default_rng(seed)
    names = [f"V{i}" for i in range(7)]
    levels = {v: tuple("abcd"[:int(rng.integers(2, 5))]) for v in names}
    codes = {v: rng.integers(0, max(1, len(levels[v]) - int(rng.integers(0, 2))), n)
             for v in names}
    return Dataset.from_codes(names, levels, codes)


def _fresh_table_test(d, x, y, label):
    """The test of x and y from a table counted on a dataset without a memo."""
    return table_test(contingency_counts(Dataset(d.names, d.columns), x, y), label)


def _digits(r):
    return repr((r.label, r.statistic, r.p_value, r.df, r.replicates, r.degenerate))


@pytest.mark.blas_threads
class TestPairStatistics:
    """An empty-z test reads its statistic from one stacked pass over the pair tables."""

    def test_a_stacked_kernel_call_gives_each_table_its_lone_bits(self):
        rng = np.random.default_rng(60)
        for _ in range(300):
            R, C = (int(v) for v in rng.integers(2, 5, size=2))
            stack = (int(rng.integers(1, 8)), int(rng.integers(1, 8)), R, C, 1)
            counts = _sparse_counts(rng, stack) % int(rng.choice([3, 50, 10 ** 6]))
            counts[0, 0] += 1  # no empty table
            n = int(counts.sum(axis=(-3, -2, -1)).max())
            mi = bnsl.independence._mi_from_counts(counts, n)
            x2 = bnsl.independence._x2_from_counts(counts)
            assert mi.shape == x2.shape == stack[:2]
            for i, j in np.ndindex(stack[:2]):
                lone = counts[i, j].copy()
                assert mi[i, j].tobytes() == bnsl.independence._mi_from_counts(lone, n).tobytes()
                assert x2[i, j].tobytes() == bnsl.independence._x2_from_counts(lone).tobytes()

    @pytest.mark.parametrize("cells", [1, 100, 2 ** 14])
    @pytest.mark.parametrize("data", _PAIR_DATASETS)
    def test_stacks_hold_every_block_once(self, data, cells):
        d = _PAIR_DATASETS[data]()
        tables = []  # every table the pass sends, in order

        def numbering(counts, n):  # each table's statistic is its place in tables
            rows, cols, R, C, depth = counts.shape
            assert depth == 1 and counts.dtype == np.int64 and n == d.n
            assert counts.flags.c_contiguous
            assert counts.size <= max(cells, cols * R * C)  # whole rows, about cells
            tables.extend(counts.reshape(rows * cols, R, C))
            return len(tables) - rows * cols + np.arange(rows * cols).reshape(rows, cols)

        pair = d.names[:2]
        assert _pair_statistic(d, *pair, numbering, cells) is None  # the first ask
        span, product = bnsl.data._pair_tables(d, 1)
        seen = Counter()
        for x, y in itertools.product(d.names, d.names):
            place = _pair_statistic(d, x, y, numbering, cells)
            assert np.array_equal(tables[int(place)], product[span[x], span[y]])
            seen[place] += 1
        assert sorted(seen) == list(range(len(tables))) and set(seen.values()) == {1}

    @pytest.mark.parametrize("cells", [1, 50])
    def test_small_stacks_give_the_same_statistics(self, monkeypatch, cells):
        d = _mixed_levels(700, 36)
        whole = Dataset(d.names, d.columns)
        monkeypatch.setattr(bnsl.independence, "_CHUNK_ELEMENTS", cells)
        got = {(label, pair): ci_test(d, *pair, test=label) for label in ("mi", "x2")
               for pair in itertools.permutations(d.names, 2)}
        assert d._derived.get(_KERNELS["x2"]) is not None
        monkeypatch.undo()
        for (label, pair), result in got.items():
            assert _digits(result) == _digits(ci_test(whole, *pair, test=label))

    @pytest.mark.parametrize("n, seed", [(6, 61), (40, 62), (300, 63), (6000, 64)])
    @pytest.mark.parametrize("label", ["mi", "x2", "fmi", "aict"])
    def test_empty_z_tests_equal_tests_on_fresh_tables(self, monkeypatch, n, seed, label):
        d = _discrete_sample(n, seed)
        pairs = [(x, y) for x in d.names for y in d.names if x != y]
        first = ci_test(d, *pairs[0], test=label)  # one bincount, before the product
        assert d._pair_tables is _NOT_BUILT
        assert _digits(first) == _digits(_fresh_table_test(d, *pairs[0], label))
        ci_test(d, *pairs[1], test=label)  # the second lone table builds the product
        tables = []
        counted = bnsl.independence.contingency_counts

        def counting(*args, **kwargs):
            tables.append(args[1:])
            return counted(*args, **kwargs)

        monkeypatch.setattr(bnsl.independence, "contingency_counts", counting)
        got = {pair: ci_test(d, *pair, test=label) for pair in pairs}
        assert tables == []  # every statistic came from the stacked pass
        monkeypatch.setattr(bnsl.independence, "contingency_counts", counted)
        for (x, y), result in got.items():
            assert _digits(result) == _digits(_fresh_table_test(d, x, y, label))

    @pytest.mark.parametrize("label", ["mc-mi", "mc-x2"])
    def test_monte_carlo_labels_still_draw_from_their_table(self, label):
        d = _discrete_sample(500, 65)
        ci_test(d, "V0", "V1")
        ci_test(d, "V1", "V2")
        assert _pair_statistic(d, "V0", "V1", _KERNELS["mi"], 2 ** 14) is not None
        for x, y in (("V0", "V1"), ("V3", "V2")):
            got = ci_test(d, x, y, test=label, B=200, seed=3)
            want = ci_test(Dataset(d.names, d.columns), x, y, test=label, B=200, seed=3)
            assert got.replicates == 200 and _digits(got) == _digits(want)

    def test_contingency_counts_never_reads_the_product_and_the_pass_builds_it(
            self, monkeypatch):
        d = forward_sample(alarm_fitted(1), 5000, seed=67)
        fresh = Dataset(d.names, d.columns)
        want = {pair: ci_test(fresh, *pair) for pair in (("HR", "CVP"), ("HIST", "LVV"))}
        want_mc = {label: ci_test(fresh, "PAP", "SHNT", test=label, B=200, seed=3)
                   for label in ("mc-mi", "mc-x2")}
        passes, tables = [], []
        bincount, counted = np.bincount, bnsl.independence.contingency_counts

        def counting(x, *args, **kwargs):
            passes.append(len(x))
            return bincount(x, *args, **kwargs)

        def reading(*args, **kwargs):
            tables.append(args[1:3])
            return counted(*args, **kwargs)

        builds = _record_builds(monkeypatch)
        monkeypatch.setattr(bnsl.data.np, "bincount", counting)
        monkeypatch.setattr(bnsl.independence, "contingency_counts", reading)
        first = ci_test(d, "HR", "CVP")
        assert passes == [d.n] and tables == [("HR", "CVP")] and True not in builds
        assert d._pair_tables is _NOT_BUILT
        del passes[:], tables[:], builds[:]
        second = ci_test(d, "HIST", "LVV")  # the statistics pass asks and builds
        assert passes == [] and tables == [] and builds == [True]
        span, gram = _product(d)
        builds.clear()
        for x, y in itertools.permutations(d.names, 2):
            passes.clear()
            t = contingency_counts(d, x, y)
            assert passes == [d.n]
            assert t.counts.tobytes() == gram[span[x], span[y]].tobytes()
        got_mc = {}
        for label in want_mc:
            del passes[:], tables[:]
            got_mc[label] = ci_test(d, "PAP", "SHNT", test=label, B=200, seed=3)
            assert passes == [d.n] and tables == [("PAP", "SHNT")]
        assert builds == [] and _product(d)[1] is gram
        assert _digits(first) == _digits(want["HR", "CVP"])
        assert _digits(second) == _digits(want["HIST", "LVV"])
        assert {label: repr(r) for label, r in got_mc.items()} == \
            {label: repr(r) for label, r in want_mc.items()}

    def test_a_dataset_without_rows_tests_its_tables(self):
        empty = np.zeros(0, dtype=np.int64)
        d = Dataset.from_codes("AB", {"A": "ab", "B": "abc"}, {"A": empty, "B": empty})
        for _ in range(3):  # a bincount each time: nothing asks for the product
            with pytest.raises(bnsl.TestError, match="empty contingency table"):
                ci_test(d, "A", "B")
            fmi = ci_test(d, "A", "B", test="fmi")
            assert (fmi.statistic, fmi.p_value, fmi.df) == (0.0, 1.0, 2)
        assert d._pair_tables is _NOT_BUILT
        assert _pair_statistic(d, "A", "B", _KERNELS["mi"], 2 ** 14) is None

    @pytest.mark.parametrize("label", ["mi", "x2", "fmi", "aict"])
    def test_a_refused_test_never_asks_for_the_pair_tables(self, monkeypatch, label):
        d = _discrete_sample(200, 68)
        with pytest.raises(DataError, match="distinct"):
            ci_test(d, "V0", "V0", test=label)
        with pytest.raises(DataError, match="unknown column 'W'"):
            ci_test(d, "V0", "W", test=label)
        assert d._pair_asks == 0 and d._pair_tables is _NOT_BUILT
        passes, bincount = [], np.bincount

        def counting(x, *args, **kwargs):
            passes.append(len(x))
            return bincount(x, *args, **kwargs)

        builds = _record_builds(monkeypatch)
        monkeypatch.setattr(bnsl.data.np, "bincount", counting)
        result = ci_test(d, "V0", "V1", test=label)  # the first valid test: one bincount
        assert passes == [d.n] and True not in builds
        assert d._pair_asks == 1 and d._pair_tables is _NOT_BUILT
        assert _digits(result) == _digits(_fresh_table_test(d, "V0", "V1", label))

    def test_repeated_or_unknown_variables_are_still_refused(self):
        d = _discrete_sample(200, 66)
        ci_test(d, "V0", "V1")
        ci_test(d, "V1", "V2")
        with pytest.raises(DataError, match="distinct"):
            ci_test(d, "V0", "V0")
        with pytest.raises(DataError, match="unknown column 'W'"):
            ci_test(d, "V0", "W")


class TestCheckInteger:
    """The integer check accepts and refuses what it did before its fast path."""

    @pytest.mark.parametrize("value", [0, 3, np.int64(0), np.int64(7), np.uint8(2)])
    def test_integers_are_accepted(self, value):
        bnsl.data._check_integer("seed", value, 0, DataError)

    @pytest.mark.parametrize("value", [True, False, 1.0, "1", None, -1, np.int64(-1)])
    def test_others_are_refused_with_the_value(self, value):
        with pytest.raises(DataError, match=re.escape(
                f"seed must be an integer of at least 0, got {value!r}")):
            bnsl.data._check_integer("seed", value, 0, DataError)

    def test_the_least_value_holds_for_both_paths(self):
        for value in (1, np.int64(1)):
            bnsl.data._check_integer("B", value, 1, DataError)
        for value in (0, np.int64(0)):
            with pytest.raises(DataError, match="B must be an integer of at least 1"):
                bnsl.data._check_integer("B", value, 1, DataError)


@pytest.mark.blas_threads
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


def _reference_mi(counts, n):
    """The mutual-information kernel as it was before it shared one buffer."""
    nik = counts.sum(axis=-2, keepdims=True)
    njk = counts.sum(axis=-3, keepdims=True)
    nk = counts.sum(axis=(-3, -2), keepdims=True)
    num = counts.astype(float) * nk
    den = nik.astype(float) * njk
    ratio = np.divide(num, den, out=np.ones_like(num, dtype=float), where=counts > 0)
    return (counts * np.log(ratio)).sum(axis=(-3, -2, -1)) / n


def _reference_x2(counts):
    """The Pearson X^2 kernel as it was before it took its margins from one float table."""
    nik = counts.sum(axis=-2, keepdims=True).astype(float)
    njk = counts.sum(axis=-3, keepdims=True).astype(float)
    nk = counts.sum(axis=(-3, -2), keepdims=True).astype(float)
    m = np.divide(nik * njk, nk, out=np.zeros_like(nik * njk), where=nk > 0)
    terms = np.divide((counts - m) ** 2, m, out=np.zeros_like(m), where=m > 0)
    return terms.sum(axis=(-3, -2, -1))


def _sparse_counts(rng, shape):
    """Counts up to 10^6 (of a random order of magnitude), a quarter of them 0."""
    counts = rng.integers(0, int(10 ** rng.uniform(0, 6)) + 1, size=shape)
    counts[rng.random(shape) < 0.25] = 0
    return counts


@pytest.mark.hash_seed
@pytest.mark.blas_threads
class TestCountKernels:
    """The count layer and the MI and X^2 kernels give the reference bits."""

    def test_lone_tables_equal_the_reference_kernel(self):
        rng = np.random.default_rng(50)
        for _ in range(400):
            R, C = (int(v) for v in rng.integers(2, 6, size=2))
            L = int(rng.integers(1, 601)) if rng.random() < 0.5 else int(rng.integers(1, 9))
            counts = _sparse_counts(rng, (R, C, L))
            n = max(int(counts.sum()), 1)
            got = bnsl.independence._mi_from_counts(counts, n)
            assert got == _reference_mi(counts, n)
            t = ContingencyTable(counts, R, C, L, n)
            want = 2.0 * n * float(_reference_mi(counts, n))
            assert table_test(t, "mi").statistic == want

    def test_monte_carlo_batches_equal_the_reference_kernel(self):
        rng = np.random.default_rng(51)
        for _ in range(60):
            b = int(rng.integers(1, 200))
            R, C, L = (int(v) for v in rng.integers([2, 2, 1], [6, 6, 30]))
            batches = [_sparse_counts(rng, (b, R, C, L))]
            # null draws of a random table's margins, as permutation_pvalue draws them
            t = _sparse_counts(rng, (R, C, L)) % 50
            batches.append(bnsl.independence._null_tables(rng, t.sum(axis=1), t.sum(axis=0),
                                                          b))
            for counts in batches:
                n = max(int(counts[0].sum()), 1)
                got = bnsl.independence._mi_from_counts(counts, n)
                want = _reference_mi(counts, n)
                assert got.shape == want.shape == (b,)
                assert got.tobytes() == want.tobytes()

    def test_x2_equals_the_reference_kernel_with_empty_strata(self):
        rng = np.random.default_rng(54)
        for _ in range(400):
            R, C = (int(v) for v in rng.integers(2, 6, size=2))
            L = int(rng.integers(1, 601)) if rng.random() < 0.5 else int(rng.integers(1, 9))
            counts = _sparse_counts(rng, (R, C, L))
            counts[..., rng.random(L) < 0.2] = 0  # whole strata unseen
            assert bnsl.independence._x2_from_counts(counts) == _reference_x2(counts)
            n = int(counts.sum())
            if n:
                t = ContingencyTable(counts, R, C, L, n)
                assert table_test(t, "x2").statistic == float(_reference_x2(counts))
        for _ in range(60):
            b = int(rng.integers(1, 200))
            R, C, L = (int(v) for v in rng.integers([2, 2, 1], [6, 6, 30]))
            t = _sparse_counts(rng, (R, C, L)) % 50
            t[..., rng.random(L) < 0.2] = 0
            for counts in (_sparse_counts(rng, (b, R, C, L)),
                           bnsl.independence._null_tables(rng, t.sum(axis=1), t.sum(axis=0),
                                                          b)):
                got = bnsl.independence._x2_from_counts(counts)
                want = _reference_x2(counts)
                assert got.shape == want.shape == (b,)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("zsize", range(5))
    def test_tables_equal_one_bincount_of_the_cell_index(self, zsize):
        d = forward_sample(alarm_fitted(1), 2000, seed=52)
        before = {name: d.codes(name).copy() for name in d.names}
        rng = np.random.default_rng(53 + zsize)
        for _ in range(30):
            x, y, *z = (str(v) for v in rng.choice(d.names, size=zsize + 2, replace=False))
            zcodes, L = _unique_codes(d, z)
            R, C = len(d.levels(x)), len(d.levels(y))
            flat = (d.codes(x) * C + d.codes(y)) * L + zcodes
            want = np.bincount(flat, minlength=R * C * L).reshape(R, C, L)
            t = contingency_counts(d, x, y, z)
            assert (t.R, t.C, t.L, t.n) == (R, C, L, d.n)
            assert t.counts.dtype == want.dtype and t.counts.tobytes() == want.tobytes()
        for name in d.names:
            assert not d.codes(name).flags.writeable
            assert np.array_equal(d.codes(name), before[name])


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
        moments = _gaussian_moments(d)
        index, sds, scatter = moments.index, moments.sds, moments.scatter
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
        assert _kept(d) == ["_moments"]

    def test_correlations_and_bge_share_one_gaussian_entry(self):
        rng = np.random.default_rng(43)
        d = Dataset(("X", "Y", "Z"), {c: NumericColumn(rng.standard_normal(40))
                                      for c in ("X", "Y", "Z")})
        correlation_matrix(d, ["X", "Z"])
        local_score("Y", ["X"], d, ScoreSpec(kind="bge"))
        # one entry of moments and correlations, beside the bge posterior
        assert _kept(d) == ["_moments", "_derived"]
        assert list(d._derived) == [("bge-context", 1.0, None)]

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


def _per_test_rule(d, x, y, z):
    """partial_correlation as it was while every test checked its own matrix.

    Returns rho and whether the Cholesky factor was trusted.
    """
    if d.n <= len(z) + 2:
        raise DataError("not enough rows for the conditioning set")
    a, b = (x, y) if x <= y else (y, x)
    corr = correlation_matrix(d, z + [a, b])
    trusted = _per_test_check(corr)
    if trusted:
        chol = np.linalg.cholesky(corr)
        l21, l22 = float(chol[-1, -2]), float(chol[-1, -1])
        rho = l21 / math.sqrt(l21 * l21 + l22 * l22)
    else:
        ra, rb = (_regress(d, name, z)[1] for name in (a, b))
        for name, resid in ((a, ra), (b, rb)):
            vals = d.values(name)
            scale = max(np.linalg.norm(vals - vals.mean()), 1e-30)
            if np.linalg.norm(resid) <= 1e-6 * scale:
                return 0.0, False
        rho = float(ra @ rb) / math.sqrt(float(ra @ ra) * float(rb @ rb))
    return (math.copysign(1.0, rho) if 1.0 - rho * rho <= 1e-12 else rho), trusted


def _per_test_check(corr):
    lam = np.abs(np.linalg.eigvalsh(corr))
    smallest = float(lam.min())
    return smallest > 0.0 and float(lam.max()) / smallest < 1e12


def _certificate_case(rng, kind):
    """A numeric Dataset of the given kind and whether it should be certified (None: either)."""
    if kind == "near-collinear":
        return _near_collinear_case(rng)[0], None
    n = int(rng.integers(6, 11)) if kind == "wide" else int(rng.integers(12, 301))
    k = n + int(rng.integers(0, 4)) if kind == "wide" else int(rng.integers(3, 9))
    mat = rng.standard_normal((n, k)) @ (np.eye(k) + 0.3 * rng.standard_normal((k, k)))
    mat = mat * rng.uniform(0.1, 10.0, k) + rng.uniform(-100.0, 100.0, k)
    if kind == "duplicate":
        mat[:, -1] = mat[:, 0]
    elif kind == "constant":
        mat[:, int(rng.integers(k))] = 2.5
    names = [f"V{i}" for i in range(k)]
    certified = {"random": True, "constant": True}.get(kind, False)
    return Dataset.from_values(names, dict(zip(names, mat.T))), certified


@pytest.mark.blas_threads
class TestCorrelationCertificate:
    KINDS = ("random", "near-collinear", "duplicate", "constant", "wide")

    def test_every_decision_and_value_as_per_test(self, monkeypatch):
        # the certificate changes which spectra are computed, never a value
        # or a path: rho is equal to the per-test rule's, and the regressions
        # counted show the residual path was taken exactly when it was there
        regressions = []
        def counted(*args):
            regressions.append(args[1])
            return _regress(*args)
        monkeypatch.setattr(bnsl.data, "_regress", counted)
        rng = np.random.default_rng(2410)
        seen = Counter()
        for _ in range(600):
            kind = self.KINDS[int(rng.integers(len(self.KINDS)))]
            d, certified = _certificate_case(rng, kind)
            for _ in range(5):
                x, y, *z = (d.names[i] for i in rng.permutation(len(d.names)))
                z = z[:int(rng.integers(1, len(z) + 1))]
                try:
                    want, trusted = _per_test_rule(d, x, y, z)
                except DataError as exc:
                    with pytest.raises(DataError, match=re.escape(str(exc))):
                        partial_correlation(d, x, y, z)
                    seen[kind, "refused"] += 1
                    continue
                regressions.clear()
                got = partial_correlation(d, x, y, z)
                assert got == want and repr(got) == repr(want), (kind, x, y, z)
                assert bool(regressions) == (not trusted), (kind, regressions)
                held = _gaussian_moments(d).certified
                assert certified is None or held == certified, kind
                seen[kind, held, trusted] += 1
        # certified, certified past a constant column, a failed certificate
        # whose tests mostly pass their own check, wide data that skips the
        # spectrum, and near-collinear data on both sides of the margin
        for key in (("random", True, True), ("constant", True, True),
                    ("constant", "refused"), ("duplicate", False, True),
                    ("duplicate", False, False), ("wide", False, True),
                    ("wide", "refused"), ("near-collinear", True, True),
                    ("near-collinear", False, True), ("near-collinear", False, False)):
            assert seen[key] >= 50, (key, seen)

    def test_certified_submatrices_pass_the_per_test_check(self):
        # soundness: on a certified dataset, every principal submatrix of the
        # nonconstant columns' correlations, in any order, passes the check
        rng = np.random.default_rng(2411)
        certified = 0
        for _ in range(400):
            d, _ = _certificate_case(rng, self.KINDS[int(rng.integers(4))])
            z = [c for c in d.names if np.ptp(d.values(c)) > 0]
            if len(z) < 3 or d.n <= len(z) or not bnsl.data._certified(d):
                continue
            certified += 1
            corr = correlation_matrix(d, z)
            assert _per_test_check(corr)
            for _ in range(20):
                idx = rng.permutation(len(z))[:int(rng.integers(3, len(z) + 1))]
                assert _per_test_check(corr[idx[:, None], idx])
        assert certified >= 150

    def test_spectrum_skipped_with_at_least_n_columns(self, monkeypatch):
        spectra, eigvalsh = [], np.linalg.eigvalsh
        def counted(a):
            spectra.append(a.shape)
            return eigvalsh(a)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        rng = np.random.default_rng(2412)
        names = [f"V{i}" for i in range(8)]
        d = Dataset.from_values(names, dict(zip(names, rng.standard_normal((8, 8)))))
        partial_correlation(d, "V0", "V1", ["V2"])
        assert not bnsl.data._certified(d) and spectra == [(3, 3)]

    @pytest.mark.parametrize("shape", [(7, 3), (50, 9), (2000, 40), (5, 12)])
    def test_moments_correlations_exactly_symmetric(self, shape):
        # the certificate's proof needs each test's matrix to be exactly
        # symmetric, so every order of a subset sees the same entries
        rng = np.random.default_rng(list(shape))
        n, k = shape
        mat = rng.standard_normal((n, k)) @ rng.standard_normal((k, k)) * 3.0 + 7.0
        mat[:, 1] = 1.0  # a constant column's non-finite row and column too
        names = [f"V{i}" for i in range(k)]
        moments = _gaussian_moments(Dataset.from_values(names, dict(zip(names, mat.T))))
        scatter, corr = moments.scatter, moments.correlations
        assert np.array_equal(scatter, scatter.T)
        assert np.array_equal(corr, corr.T, equal_nan=True)

    @staticmethod
    def _chain(n, duplicate):
        rng = np.random.default_rng(2413)
        cols = {"A": rng.standard_normal(n)}
        for prev, name in zip("ABCD", "BCDE"):
            cols[name] = 0.8 * cols[prev] + rng.standard_normal(n)
        if duplicate:
            cols["F"] = cols["C"].copy()
        return Dataset.from_values(tuple(cols), cols)

    @pytest.mark.parametrize("duplicate", [False, True])
    def test_one_spectrum_for_a_certified_learn(self, monkeypatch, duplicate):
        # a certified gs/cor learn computes one spectrum in all; with a
        # duplicated column, one for the failed certificate and one per
        # conditioned test. The learned graph and trace are those of the
        # per-test check either way.
        spectra, conditioned = [], []
        eigvalsh, partial = np.linalg.eigvalsh, bnsl.independence.partial_correlation
        def spectrum(a):
            spectra.append(a.shape)
            return eigvalsh(a)
        def counted(d, x, y, z=()):
            conditioned.extend([z] if z else [])
            return partial(d, x, y, z)
        monkeypatch.setattr(np.linalg, "eigvalsh", spectrum)
        monkeypatch.setattr(bnsl.independence, "partial_correlation", counted)
        cfg = LearnConfig(algorithm="gs", test="cor")
        g, trace = constraint_learn(self._chain(500, duplicate), cfg)
        assert conditioned
        assert len(spectra) == (1 + len(conditioned) if duplicate else 1)
        monkeypatch.setattr(bnsl.data, "_certified", lambda d: False)
        g_per_test, trace_per_test = constraint_learn(self._chain(500, duplicate), cfg)
        assert g == g_per_test and trace.lines() == trace_per_test.lines()



@pytest.mark.blas_threads
class TestGaussianTestPath:
    """ci_test's Gaussian labels skip gaussian_statistic's checks, never a bit of its result."""

    KINDS = TestCorrelationCertificate.KINDS + ("gaussian",)

    def test_results_equal_the_public_statistic(self):
        # random Gaussian data, and the certificate's collinear, failing,
        # constant-column and wide datasets; z may be empty
        rng = np.random.default_rng(2900)
        seen = Counter()
        for _ in range(300):
            kind = self.KINDS[int(rng.integers(len(self.KINDS)))]
            if kind == "gaussian":
                names = [f"V{i}" for i in range(int(rng.integers(2, 8)))]
                mat = rng.standard_normal((int(rng.integers(3, 200)), len(names)))
                d = Dataset.from_values(names, dict(zip(names, mat.T)))
            else:
                d, _ = _certificate_case(rng, kind)
            for _ in range(3):
                x, y, *z = (d.names[i] for i in rng.permutation(len(d.names)))
                z = z[:int(rng.integers(0, len(z) + 1))]
                for label in ("cor", "zf", "mi-g"):
                    got = ci_test(d, x, y, z, test=label)
                    try:
                        want = gaussian_statistic(partial_correlation(d, x, y, z), d.n,
                                                  len(z), label)
                    except (DataError, bnsl.TestError):
                        # untestable: too few rows for the label, or a zero-variance column
                        assert got == bnsl.TestResult(label, 0.0, 1.0, degenerate=True)
                        seen[kind, "untestable"] += 1
                        continue
                    assert got == want and repr(got) == repr(want), (kind, x, y, z, label)
                    # the mc-* label runs the same twin
                    twin = ci_test(d, x, y, z, test=f"mc-{label}", B=1)
                    assert twin.statistic == abs(want.statistic)
                    seen[kind, "tested", bool(z)] += 1
        for kind in self.KINDS:
            assert seen[kind, "tested", True] >= 20 and seen[kind, "tested", False] >= 5, seen
        for kind in ("constant", "wide"):
            assert seen[kind, "untestable"] >= 20, seen

    @staticmethod
    def _bad_columns():
        rng = np.random.default_rng(2901)
        cols = {c: rng.standard_normal(40) for c in "WXY"}
        cols.update(K=np.full(40, 2.5), L=np.zeros(40))
        return Dataset.from_values(tuple(cols), cols)

    @staticmethod
    def _raise_alike(d, x, y, z, message, matrix=True):
        for label in ("cor", "zf", "mi-g", "mc-cor"):
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                ci_test(d, x, y, z, test=label, B=1)
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            partial_correlation(d, x, y, z)
        if matrix:
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                correlation_matrix(d, [x, y, *z])

    def test_unknown_column_named_alike_on_every_route(self):
        # the first unknown column in argument order, before a constant one
        d = self._bad_columns()
        for x, y, z, name in (("X", "Q", ["R"], "Q"), ("X", "Y", ["W", "R", "Q"], "R"),
                              ("P", "Y", ["K"], "P"), ("K", "Y", ["L", "Q"], "Q")):
            self._raise_alike(d, x, y, z, f"unknown column {name!r}")

    def test_repeated_column_refused_by_the_tests(self):
        # a repeated column is refused before an unknown or constant one;
        # correlation_matrix takes repeats and returns their equal rows
        d = self._bad_columns()
        for x, y, z in (("X", "X", ["W"]), ("X", "Y", ["W", "Y"]), ("K", "Q", ["Q"]),
                        ("X", "Y", ["L", "L"])):
            self._raise_alike(d, x, y, z, "x, y and z must be distinct", matrix=False)
        m = correlation_matrix(d, ["X", "W", "X"])
        assert np.array_equal(m[0], m[2]) and np.array_equal(m[:, 0], m[:, 2])

    def test_zero_variance_column_named_and_untestable(self):
        # correlation_matrix names the first constant column of its list, and
        # partial_correlation that of its matrix's list, z + sorted([x, y]);
        # ci_test finds the test untestable
        d = self._bad_columns()
        for names, name in ((["X", "K", "W", "L"], "K"), (["L", "Y", "K"], "L"),
                            (["W", "X", "K"], "K")):
            with pytest.raises(DataError, match=f"^zero-variance column {name!r}$"):
                correlation_matrix(d, names)
        for x, y, z, name in (("X", "K", ["W", "L"], "L"), ("X", "K", ["W"], "K"),
                              ("L", "K", [], "K"), ("Y", "X", ["L"], "L")):
            with pytest.raises(DataError, match=f"^zero-variance column {name!r}$"):
                partial_correlation(d, x, y, z)
            for label in ("cor", "zf", "mi-g", "mc-cor"):
                res = ci_test(d, x, y, z, test=label, B=1)
                assert res == bnsl.TestResult(label, 0.0, 1.0, degenerate=True)
        assert d._moments.constant == {"K", "L"}

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

    def test_a_perfect_gaussian_fit_keeps_a_positive_sd(self):
        # Y is identically 0, so its residuals are exactly 0
        rng = np.random.default_rng(17)
        d = Dataset(("X", "Y"), {"X": NumericColumn(rng.standard_normal(50)),
                                 "Y": NumericColumn(np.zeros(50))})
        f = fit_mle(parse_modelstring("[X][Y|X]"), d)
        loc = f.locals["Y"]
        assert loc.sd == 1e-12
        assert loc.intercept == 0.0 and loc.coefficients.tolist() == [0.0]
        sample = forward_sample(f, 20, seed=1)
        assert np.abs(sample.values("Y")).max() < 1e-9

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
