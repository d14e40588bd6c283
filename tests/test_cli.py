"""Batch CLI: subcommands, formats, exit codes, reproducibility."""

import json
import subprocess
import sys

import numpy as np
import pytest

import bnsl
from bnsl import (HillClimbConfig, ScoreSpec, forward_sample, hill_climb,
                  load_table, network_score, write_table)
from bnsl.cli import load_graph, main, summary_block
from bnsl.networks import SIXNODE_MODEL, sixnode

from helpers import under_hash_seeds


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "sixnode.csv"
    write_table(forward_sample(sixnode(), 5000, seed=1), str(path))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLearn:
    def test_gs_summary_fields(self, capsys, data_path):
        code, out, err = run_cli(capsys, "learn", data_path, "--algo", "gs")
        assert code == 0
        assert "Constraint-based methods" in out
        assert "undirected arcs:                     1" in out
        assert "directed arcs:                       4" in out
        assert "Grow-Shrink" in out
        assert "alpha threshold:                       0.05" in out
        assert "optimized:                             TRUE" in out
        assert "tests used in the learning procedure:" in out

    def test_hc_summary_fields(self, capsys, data_path):
        code, out, _ = run_cli(capsys, "learn", data_path, "--algo", "hc",
                               "--score", "aic")
        assert code == 0
        assert "Score-based methods" in out
        assert SIXNODE_MODEL in out
        assert "penalization coefficient:              1" in out
        assert "Akaike Information Criterion" in out

    def test_summary_format_alone(self, capsys, data_path):
        code, out, _ = run_cli(capsys, "learn", data_path, "--algo", "hc",
                               "--score", "bde", "--format", "summary")
        assert code == 0
        graph, _ = hill_climb(load_table(data_path), HillClimbConfig(score=ScoreSpec("bde")))
        assert out == summary_block(graph)
        assert out.startswith("\n  Bayesian network learned via Score-based methods\n")
        assert "  score:                                 Bayesian Dirichlet (BDe) \n" \
            "  equivalent sample size:                1 \n" in out
        assert "penalization coefficient" not in out

    def test_summary_arithmetic(self, capsys, data_path):
        code, out, _ = run_cli(capsys, "learn", data_path, "--algo", "gs")
        graph, _ = bnsl.constraint_learn(load_table(data_path),
                                         bnsl.LearnConfig(algorithm="gs"))
        nedges = graph.narcs()
        v = len(graph.nodes)
        nbr_avg = 2 * nedges / v
        assert f"average neighbourhood size:            {nbr_avg:.2f}" in out
        mb_avg = sum(len(graph.mb(n)) for n in graph.nodes) / v
        assert f"average markov blanket size:           {mb_avg:.2f}" in out

    def test_format_modelstring_out_file(self, capsys, data_path, tmp_path):
        out_file = tmp_path / "model.txt"
        code, out, _ = run_cli(capsys, "learn", data_path, "--algo", "hc",
                               "--format", "modelstring", "--out", str(out_file))
        assert code == 0
        assert out_file.read_text().strip() == SIXNODE_MODEL

    def test_format_dot(self, capsys, data_path):
        code, out, _ = run_cli(capsys, "learn", data_path, "--algo", "gs",
                               "--format", "dot")
        assert code == 0
        assert "digraph" in out
        assert "[dir=none]" in out  # the undirected A - B arc

    def test_format_arcs_roundtrip(self, capsys, data_path, tmp_path):
        out_file = tmp_path / "arcs.csv"
        run_cli(capsys, "learn", data_path, "--algo", "gs",
                "--format", "arcs", "--out", str(out_file))
        g = load_graph(str(out_file))
        assert g.undirected_arcs == frozenset({("A", "B")})
        assert len(g.directed_arcs) == 4

    def test_blacklist_file(self, capsys, data_path, tmp_path):
        bl = tmp_path / "bl.csv"
        bl.write_text("from,to\nB,A\n")
        code, out, _ = run_cli(capsys, "learn", data_path, "--algo", "gs",
                               "--blacklist", str(bl))
        assert code == 0
        assert SIXNODE_MODEL in out  # fully directed now

    def test_whitelist_cycle_exit_code(self, capsys, data_path, tmp_path):
        wl = tmp_path / "wl.csv"
        wl.write_text("from,to\nA,B\nB,E\nE,A\n")
        code, _, err = run_cli(capsys, "learn", data_path, "--algo", "gs",
                               "--whitelist", str(wl))
        assert code == 4
        assert "cycle" in err

    @pytest.mark.parametrize("algo", ["gs", "hc"])
    def test_invalid_label_not_reported_as_cycle(self, capsys, tmp_path, algo):
        bad = tmp_path / "label.csv"
        bad.write_text("X-1,B\na,x\nb,y\na,y\nb,x\n")
        code, _, err = run_cli(capsys, "learn", str(bad), "--algo", algo)
        assert code not in (0, 4)
        assert "X-1" in err
        assert "whitelist" not in err

    @pytest.mark.parametrize("argv", [("learn", "DATA", "--whitelist", "EMPTY"),
                                      ("learn", "DATA", "--blacklist", "EMPTY"),
                                      ("modelstring", "EMPTY")])
    def test_empty_arc_file_exit_code(self, capsys, data_path, tmp_path, argv):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        paths = {"DATA": data_path, "EMPTY": str(empty)}
        code, _, err = run_cli(capsys, *(paths.get(a, a) for a in argv))
        assert code == 3
        assert str(empty) in err

    def test_empty_data_file_names_path(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, _, err = run_cli(capsys, "learn", str(empty))
        assert code == 3
        assert str(empty) in err

    def test_nan_iss_rejected(self, capsys, data_path):
        code, _, err = run_cli(capsys, "learn", data_path, "--algo", "hc",
                               "--score", "bde", "--iss", "nan")
        assert code == 1
        assert "iss" in err

    def test_hc_rejects_optimized_false(self, capsys, data_path):
        # the flag selects backtracking for the constraint learners only
        code, out, err = run_cli(capsys, "learn", data_path, "--algo", "hc",
                                 "--optimized", "false")
        assert code == 1
        assert "--optimized" in err
        assert out == ""

    def test_constraint_learner_accepts_optimized_false(self, capsys, data_path):
        code, out, _ = run_cli(capsys, "learn", data_path, "--algo", "gs",
                               "--optimized", "false")
        assert code == 0
        assert "optimized:                             FALSE" in out

    @pytest.mark.parametrize("flag,value", [
        ("--seed", "-1"), ("--restart", "-1"), ("--perturb", "-2")])
    def test_hc_bad_integer_names_parameter(self, capsys, data_path, flag, value):
        argv = ["learn", data_path, "--algo", "hc", "--restart", "1", flag, value]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert {"--seed": "seed", "--restart": "restarts",
                "--perturb": "perturb"}[flag] + " must be an integer" in err
        assert out == ""

    @pytest.mark.parametrize("test", ["cor", "zf", "mc-zf"])
    def test_too_few_rows_for_the_test(self, capsys, tmp_path, test):
        # 4 rows leave zf given one variable no degrees of freedom: untestable, p = 1
        path = tmp_path / "four.csv"
        path.write_text("A,B,C\n0,0.1,-0.2\n1,1.8,1.7\n2,4.05,4.25\n3.5,7.1,7.05\n")
        code, out, err = run_cli(capsys, "learn", str(path), "--algo", "gs",
                                 "--test", test, "--B", "19")
        assert code == 0, err
        assert "Constraint-based methods" in out

    def test_missing_data_exit_code(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "learn", str(tmp_path / "nope.csv"))
        assert code == 3
        assert "error:" in err

    def test_mixed_data_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "mixed.csv"
        bad.write_text("A,X\na,1\nb,2\n")
        code, _, err = run_cli(capsys, "learn", str(bad))
        assert code == 3
        assert "mixed data unsupported" in err

    @pytest.mark.parametrize("flag", ["--whitelist", "--blacklist"])
    def test_duplicate_arc_row_exit_code(self, capsys, data_path, tmp_path, flag):
        arcs = tmp_path / "arcs.csv"
        arcs.write_text("from,to\nA,B\nC,D\nA,B\n")
        code, out, err = run_cli(capsys, "learn", data_path, flag, str(arcs))
        assert code == 4
        assert "duplicate rows in arc list: 'A' -> 'B'" in err
        assert out == ""

    def test_empty_cell_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "holes.csv"
        bad.write_text("A,B\na,b\nb,\na,a\nb,b\n")
        code, out, err = run_cli(capsys, "learn", str(bad))
        assert code == 3
        assert "empty cell in row 3, column 'B'" in err
        assert out == ""

    def test_empty_header_field_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "unnamed.csv"
        bad.write_text("A,,C\na,b,a\nb,a,b\n")
        code, out, err = run_cli(capsys, "learn", str(bad))
        assert code == 3
        assert f"empty column name in header field 2, in data file {bad}" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [("modelstring", "ARCS"),
                                      ("learn", "DATA", "--whitelist", "ARCS")])
    @pytest.mark.parametrize("text, message", [
        ("from,to\nA,B\nC\n", "ragged row 3: expected 2 fields, got 1"),
        ("from,to\nA,B\nC,\n", "empty cell in row 3, column 'to'"),
        ("from,\nA,B\n", "empty column name in header field 2")])
    def test_malformed_arc_file_exit_code(self, capsys, data_path, tmp_path, argv,
                                          text, message):
        arcs = tmp_path / "arcs.csv"
        arcs.write_text(text)
        paths = {"DATA": data_path, "ARCS": str(arcs)}
        code, out, err = run_cli(capsys, *(paths.get(a, a) for a in argv))
        assert code == 3
        assert f"{message}, in arc file {arcs}" in err
        assert out == ""

    @pytest.mark.parametrize("argv, what", [
        (("learn", "BLANK"), "data"),
        (("modelstring", "BLANK"), "arc"),
        (("learn", "DATA", "--blacklist", "BLANK"), "arc")])
    def test_blank_file_reported_empty(self, capsys, data_path, tmp_path, argv, what):
        blank = tmp_path / "blank.csv"
        blank.write_text(",,\n")
        paths = {"DATA": data_path, "BLANK": str(blank)}
        code, out, err = run_cli(capsys, *(paths.get(a, a) for a in argv))
        assert code == 3
        assert f"{what} file {blank} is empty" in err
        assert out == ""

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["citest", "learn", "score"])
    def test_non_finite_cell_exit_code(self, capsys, tmp_path, command, cell):
        bad = tmp_path / "nonfinite.csv"
        rows = "".join(f"{i},{(i * 7) % 5},{(i * 3) % 4}\n" for i in range(20))
        bad.write_text(f"X,Y,Z\n{rows}1,{cell},2\n")
        argv = {"citest": ["citest", str(bad), "X", "Y", "--test", "zf"],
                "learn": ["learn", str(bad)],
                "score": ["score", "[X][Y][Z]", str(bad)]}[command]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert f"non-finite value '{cell}' in row 22, column 'Y'" in err
        assert out == ""

    def test_seeded_outputs_byte_identical(self, capsys, data_path):
        args = ("learn", data_path, "--algo", "hc", "--score", "bic",
                "--restart", "2", "--perturb", "2", "--seed", "7")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_whitelist_conflicting_with_start_graph_exit_code(self, capsys, data_path,
                                                              tmp_path):
        wl = tmp_path / "wl.csv"
        wl.write_text("from,to\nC,A\n")
        code, out, err = run_cli(capsys, "learn", data_path, "--algo", "hc",
                                 "--start", "[A][B|A][C|B][D][E][F]",
                                 "--whitelist", str(wl))
        assert code == 4
        assert "priors conflict with the start graph" in err
        assert out == ""

    def test_hc_start_graph(self, capsys, data_path):
        code, out, _ = run_cli(capsys, "learn", data_path, "--algo", "hc",
                               "--score", "aic", "--start", "[A][B][C][D][E|B:F][F]")
        assert code == 0
        assert SIXNODE_MODEL in out

    def test_monte_carlo_seeded(self, capsys, data_path):
        args = ("learn", data_path, "--algo", "gs", "--test", "mc-mi",
                "--B", "120", "--seed", "5")
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestScore:
    def test_score_round_trips_full_precision(self, capsys, data_path, tmp_path):
        out_file = tmp_path / "model.txt"
        run_cli(capsys, "learn", data_path, "--algo", "hc", "--score", "bic",
                "--format", "modelstring", "--out", str(out_file))
        code, out, _ = run_cli(capsys, "score", str(out_file), data_path,
                               "--score", "bic")
        assert code == 0
        data = load_table(data_path)
        g, _ = hill_climb(data, HillClimbConfig(score="bic"))
        expected = network_score(g, data, ScoreSpec(kind="bic"))
        assert float(out.strip()) == expected

    def test_score_ordering_of_worse_graph(self, capsys, data_path):
        worse = "[A][B][C][D|A][E|B][F]"
        code, out1, _ = run_cli(capsys, "score", worse, data_path,
                                "--score", "aic")
        code, out2, _ = run_cli(capsys, "score", SIXNODE_MODEL, data_path,
                                "--score", "aic")
        assert float(out1.strip()) < float(out2.strip())

    def test_score_literal_modelstring(self, capsys, data_path):
        code, out, _ = run_cli(capsys, "score", "[A][B][C][D][E][F]", data_path)
        assert code == 0
        float(out.strip())

    def test_bde_equal_scores_for_equivalent_orientations(self, capsys, data_path):
        ab = SIXNODE_MODEL
        ba = "[B][C][F][A|B][D|A:C][E|B:F]"
        _, out1, _ = run_cli(capsys, "score", ab, data_path, "--score", "bde")
        _, out2, _ = run_cli(capsys, "score", ba, data_path, "--score", "bde")
        assert float(out1.strip()) == pytest.approx(float(out2.strip()), rel=1e-9)

    def test_bde_with_a_subnormal_iss(self, capsys, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("A,B\na,x\nb,y\na,x\nb,x\n")
        code, out, err = run_cli(capsys, "score", "[A][B|A]", str(path),
                                 "--score", "bde", "--iss", "1e-320")
        want = network_score(bnsl.parse_modelstring("[A][B|A]"), load_table(str(path)),
                             ScoreSpec(kind="bde", iss=1e-320))
        assert (code, err) == (0, "")
        assert out == f"{want!r}\n" and np.isfinite(want)
        code, out, err = run_cli(capsys, "score", "[A][B|A]", str(path),
                                 "--score", "bde", "--iss", "5e-324")
        assert (code, out) == (1, "")
        assert "iss 5e-324 is too small for node 'A'" in err

    def test_bge_score_prints_a_plain_float(self, capsys, tmp_path):
        rng = np.random.default_rng(8)
        a = rng.standard_normal(100)
        data = bnsl.Dataset.from_values(["A", "B"], {"A": a, "B": a + rng.standard_normal(100)})
        path = tmp_path / "gauss.csv"
        write_table(data, str(path))
        code, out, _ = run_cli(capsys, "score", "[A][B|A]", str(path))
        expected = network_score(bnsl.parse_modelstring("[A][B|A]"), load_table(str(path)),
                                 ScoreSpec(kind="bge"))
        assert code == 0
        assert out == f"{float(expected)!r}\n"


class TestCitest:
    def test_block_layout(self, capsys, data_path):
        code, out, _ = run_cli(capsys, "citest", data_path, "A", "B")
        assert code == 0
        assert "Mutual Information (discrete)" in out
        assert "data:  A ~ B" in out
        assert "p-value" in out
        assert "alternative hypothesis: true value is not equal to 0" in out

    def test_conditioning_set_rendered(self, capsys, data_path):
        code, out, _ = run_cli(capsys, "citest", data_path, "A", "E", "B", "D")
        assert code == 0
        assert "data:  A ~ E | B + D" in out

    def test_monte_carlo_shows_replicates(self, capsys, data_path):
        code, out, _ = run_cli(capsys, "citest", data_path, "A", "B",
                               "--test", "mc-mi", "--B", "150", "--seed", "3")
        assert code == 0
        assert "B = 150" in out

    @pytest.mark.parametrize("delimiter", ["ab", ""])
    def test_delimiter_of_other_length_exit_code(self, capsys, data_path, delimiter):
        code, out, err = run_cli(capsys, "citest", data_path, "A", "B",
                                 "--delimiter", delimiter)
        assert code == 3
        assert f"delimiter must be a single character, got {delimiter!r}" in err
        assert out == ""

    def test_huge_table_exit_code(self, capsys, tmp_path):
        path = tmp_path / "ids.csv"
        path.write_text("X,Y,Z\n" + "".join(f"x{i},y{i},z{i % 2}\n" for i in range(3000)))
        code, out, err = run_cli(capsys, "citest", str(path), "X", "Y", "Z")
        assert code == 3 and out == ""
        assert "the contingency table of 'X' and 'Y' has 18000000 cells" in err

    @pytest.mark.parametrize("variables", [("A", "A"), ("A", "B", "A"), ("A", "Q")])
    def test_repeated_or_unknown_variable_exit_code(self, capsys, tmp_path, variables):
        rows = np.random.default_rng(81).standard_normal((30, 3))
        path = tmp_path / "gauss.csv"
        path.write_text("A,B,C\n" + "\n".join(",".join(map(repr, map(float, r)))
                                               for r in rows) + "\n")
        code, out, err = run_cli(capsys, "citest", str(path), *variables,
                                 "--test", "cor")
        assert code == 3
        assert "error:" in err and out == ""

    def test_gaussian_citest(self, capsys, tmp_path):
        rng = np.random.default_rng(80)
        n = 200
        x = rng.standard_normal(n)
        rows = ["X,Y,Z"]
        z = rng.standard_normal(n)
        y = 0.7 * x + 0.7 * z + 0.5 * rng.standard_normal(n)
        for i in range(n):
            rows.append(f"{float(x[i])!r},{float(y[i])!r},{float(z[i])!r}")
        path = tmp_path / "gauss.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "citest", str(path), "X", "Y", "Z",
                               "--test", "cor")
        assert code == 0
        assert "cor =" in out and "df = " in out

    @pytest.mark.parametrize("test", ["cor", "zf", "mi-g", "mc-cor"])
    def test_untestable_gaussian_citest(self, capsys, tmp_path, test):
        # a constant conditioning column: p = 1, and no degrees of freedom to print
        path = tmp_path / "const.csv"
        path.write_text("A,B,C\n1,2,5\n2,1,5\n3,5,5\n4,3,5\n5,6,5\n")
        code, out, _ = run_cli(capsys, "citest", str(path), "A", "B", "C",
                               "--test", test)
        assert code == 0
        assert f"{test} = 0, p-value = 1\n" in out

    @pytest.mark.parametrize("B", ["0", "-3"])
    def test_replicates_below_one_rejected(self, capsys, data_path, B):
        code, _, err = run_cli(capsys, "citest", data_path, "A", "B",
                               "--test", "mc-mi", "--B", B)
        assert code == 1
        assert "B must" in err

    def test_bad_label_usage_error(self, capsys, data_path):
        with pytest.raises(SystemExit) as exc:
            main(["citest", data_path, "A", "B", "--test", "nope"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv,code", [
    (["learn", "{data}", "--algo", "gs"], 1),
    (["learn", "{data}", "--algo", "mmpc", "--test", "mc-mi", "--B", "19"], 1),
    (["learn", "{data}", "--algo", "hc"], 1),
    (["citest", "{data}", "A", "B", "--test", "mc-mi"], 1),
    (["citest", "{data}", "A", "B"], 1),
    (["sample", "--model", SIXNODE_MODEL, "--data", "{data}", "--n", "5"], 3),
])
def test_negative_seed_rejected_naming_seed(capsys, data_path, argv, code):
    argv = [data_path if a == "{data}" else a for a in argv] + ["--seed", "-1"]
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert "seed must be an integer of at least 0" in err
    assert out == ""


# a given --B is checked whatever the test, asymptotic ones included
@pytest.mark.parametrize("argv", [
    ["citest", "{data}", "A", "B", "--B", "-5"],
    ["learn", "{data}", "--algo", "gs", "--test", "mi", "--B", "0"],
])
def test_bad_replicate_count_rejected_for_any_test(capsys, data_path, argv):
    argv = [data_path if a == "{data}" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert "B must be an integer of at least 1" in err
    assert out == ""


class TestCompare:
    def test_equal_learns(self, capsys, data_path, tmp_path):
        f1, f2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        run_cli(capsys, "learn", data_path, "--algo", "gs",
                "--format", "arcs", "--out", str(f1))
        run_cli(capsys, "learn", data_path, "--algo", "iamb",
                "--format", "arcs", "--out", str(f2))
        code, out, _ = run_cli(capsys, "compare", str(f1), str(f2))
        assert code == 0
        assert out.strip() == "true"

    def test_unequal_with_diff(self, capsys, data_path, tmp_path):
        f1 = tmp_path / "g1.csv"
        run_cli(capsys, "learn", data_path, "--algo", "gs",
                "--format", "arcs", "--out", str(f1))
        code, out, _ = run_cli(capsys, "compare", str(f1), SIXNODE_MODEL)
        assert code == 0
        assert out.startswith("false")
        assert "only in" in out

    def test_node_mismatch_error(self, capsys):
        code, _, err = run_cli(capsys, "compare", "[A][B]", "[A][C]")
        assert code == 1
        assert "error:" in err


class TestSample:
    def test_fit_and_sample(self, capsys, data_path, tmp_path):
        out_file = tmp_path / "synthetic.csv"
        code, _, _ = run_cli(capsys, "sample", "--model", SIXNODE_MODEL,
                             "--data", data_path, "--n", "500",
                             "--seed", "11", "--out", str(out_file))
        assert code == 0
        d = load_table(str(out_file))
        assert d.n == 500
        assert set(d.names) == set("ABCDEF")

    def test_seeded_reproducibility(self, capsys, data_path):
        args = ("sample", "--model", SIXNODE_MODEL, "--data", data_path,
                "--n", "50", "--seed", "11")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_params_file(self, capsys, tmp_path):
        params = tmp_path / "net.json"
        params.write_text(sixnode().to_json())
        code, out, _ = run_cli(capsys, "sample", "--params", str(params),
                               "--n", "20", "--seed", "0")
        assert code == 0
        assert out.splitlines()[0] == "A,C,F,B,D,E"
        assert len(out.strip().splitlines()) == 21

    def test_missing_inputs_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--n", "10")
        assert code == 3

    @staticmethod
    def _network(kind):
        if kind == "discrete":
            nodes = [{"name": "A", "levels": ["a", "b"], "parents": [],
                      "parent_levels": [], "cpt": [[0.5], [0.5]]},
                     {"name": "B", "levels": ["x", "y"], "parents": ["A"],
                      "parent_levels": [["a", "b"]], "cpt": [[0.3, 0.6], [0.7, 0.4]]}]
        else:
            nodes = [{"name": "A", "parents": [], "intercept": 0.0,
                      "coefficients": [], "sd": 1.0},
                     {"name": "B", "parents": ["A"], "intercept": 0.0,
                      "coefficients": [0.8], "sd": 1.0}]
        return {"type": kind, "nodes": nodes}

    @pytest.mark.parametrize("kind, field, value, message", [
        ("discrete", "parents", None, "node 'B' has no 'parents' field"),
        ("discrete", "cpt", [0.3, 0.7], "cpt of 'B' has shape (2,)"),
        ("discrete", "cpt", [[0.3], [0.7]], "cpt of 'B' has shape (2, 1)"),
        ("discrete", "parent_levels", [["a", "c"]], "parent_levels of 'B'"),
        ("continuous", "coefficients", [], "coefficients of 'B' must hold one value"),
        ("continuous", "sd", None, "node 'B' has no 'sd' field"),
        ("continuous", "sd", "wide", "node 'B' has a malformed field"),
        ("continuous", "intercept", "inf", "intercept of 'B' must be finite"),
        ("continuous", "coefficients", ["nan"], "coefficients of 'B' must be finite"),
        ("continuous", "sd", "inf", "sd of 'B' must be finite")])
    def test_malformed_params_file_exit_code(self, capsys, tmp_path, kind, field,
                                             value, message):
        payload = self._network(kind)
        entry = payload["nodes"][1]
        if value is None:
            del entry[field]
        else:
            entry[field] = value
        params = tmp_path / "net.json"
        params.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "sample", "--params", str(params), "--n", "5")
        assert code == 3
        assert message in err
        assert out == ""

    def test_output_delimiter_of_other_length_exit_code(self, capsys, tmp_path,
                                                          monkeypatch):
        # the delimiter is refused before any row is sampled
        def no_sampling(*args):
            raise AssertionError("sampled before the delimiter was checked")
        monkeypatch.setattr(bnsl.cli, "forward_sample", no_sampling)
        params = tmp_path / "net.json"
        params.write_text(json.dumps(self._network("continuous")))
        code, out, err = run_cli(capsys, "sample", "--params", str(params), "--n", "5",
                                 "--delimiter", "")
        assert code == 3
        assert "delimiter must be a single character, got ''" in err
        assert out == ""

    @pytest.mark.parametrize("kind", ["Discrete", "gaussian", None])
    def test_unknown_params_type_exit_code(self, capsys, tmp_path, kind):
        payload = {**self._network("discrete" if kind == "Discrete" else "continuous"),
                   "type": kind}
        params = tmp_path / "net.json"
        params.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "sample", "--params", str(params), "--n", "5")
        assert code == 3
        assert f"unknown fitted-network type {kind!r}" in err
        assert out == ""

    @pytest.mark.parametrize("kind", ["discrete", "continuous"])
    def test_params_file_written_by_hand(self, capsys, tmp_path, kind):
        params = tmp_path / "net.json"
        params.write_text(json.dumps(self._network(kind)))
        code, out, err = run_cli(capsys, "sample", "--params", str(params), "--n", "5")
        assert code == 0, err
        assert len(out.strip().splitlines()) == 6



class TestExportAndModelstring:
    def test_export_dot(self, capsys):
        code, out, _ = run_cli(capsys, "export-dot", SIXNODE_MODEL)
        assert code == 0
        assert out.startswith("digraph")
        assert '"A" -> "B";' in out

    def test_modelstring_from_arcs(self, capsys, tmp_path):
        arcs = tmp_path / "arcs.csv"
        arcs.write_text("from,to\nA,B\nA,D\nC,D\nB,E\nF,E\n")
        code, out, _ = run_cli(capsys, "modelstring", str(arcs))
        assert code == 0
        assert out.strip() == SIXNODE_MODEL

    @pytest.mark.parametrize("command", ["modelstring", "export-dot"])
    def test_header_only_arc_file_rejected(self, capsys, tmp_path, command):
        hdr = tmp_path / "hdr.csv"
        hdr.write_text("from,to\n")
        code, out, err = run_cli(capsys, command, str(hdr))
        assert code == 3
        assert out == ""
        assert str(hdr) in err

    def test_one_column_arc_file_rejected(self, capsys, tmp_path):
        one = tmp_path / "one.csv"
        one.write_text("from\nA\nB\n")
        code, out, err = run_cli(capsys, "modelstring", str(one))
        assert code == 3
        assert f"arc file {one} needs two columns" in err
        assert out == ""

    @pytest.mark.hash_seed
    def test_error_does_not_depend_on_the_hash_seed(self, tmp_path):
        (tmp_path / "loops.csv").write_text("from,to\nC,C\nB,B\nA,A\n")
        script = "import sys; from bnsl.cli import main; sys.exit(main(['modelstring', 'loops.csv']))"
        outputs = under_hash_seeds(script, cwd=tmp_path)
        assert outputs[0] == outputs[1] == "error: self-loop on 'A'\n"

    def test_cycle_message_propagates(self, capsys):
        code, _, err = run_cli(capsys, "modelstring", "[A|C][B|A][C|B]")
        assert code == 1
        assert "the resulting graph contains cycles" in err


class TestByteOrderMark:
    """Files saved with a UTF-8 byte-order mark, as spreadsheets export them."""

    @staticmethod
    def _bom_file(tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8-sig")
        return str(path)

    def test_data_file(self, capsys, data_path, tmp_path):
        with open(data_path, encoding="utf-8") as fh:
            bom = self._bom_file(tmp_path, "bom.csv", fh.read())
        code, out, err = run_cli(capsys, "learn", bom)
        assert code == 0, err
        assert out == run_cli(capsys, "learn", data_path)[1]
        code, out, err = run_cli(capsys, "citest", bom, "A", "B")
        assert code == 0, err
        assert out == run_cli(capsys, "citest", data_path, "A", "B")[1]

    def test_arc_file(self, capsys, data_path, tmp_path):
        arcs = self._bom_file(tmp_path, "arcs.csv", "from,to\nA,B\nA,D\nC,D\nB,E\nF,E\n")
        code, out, err = run_cli(capsys, "modelstring", arcs)
        assert code == 0, err
        assert out.strip() == SIXNODE_MODEL
        code, out, err = run_cli(capsys, "learn", data_path, "--whitelist", arcs)
        assert code == 0, err

    def test_model_string_file(self, capsys, tmp_path):
        model = self._bom_file(tmp_path, "model.txt", SIXNODE_MODEL + "\n")
        code, out, err = run_cli(capsys, "modelstring", model)
        assert code == 0, err
        assert out.strip() == SIXNODE_MODEL

    def test_params_file(self, capsys, tmp_path):
        params = self._bom_file(tmp_path, "net.json", sixnode().to_json())
        code, out, err = run_cli(capsys, "sample", "--params", params, "--n", "20")
        assert code == 0, err
        assert out.splitlines()[0] == "A,C,F,B,D,E"


class TestNotUtf8:
    """Text files in another encoding are data errors that name the file."""

    def test_utf16_data_file(self, capsys, data_path, tmp_path):
        path = tmp_path / "utf16.csv"
        with open(data_path, encoding="utf-8") as fh:
            path.write_text(fh.read(), encoding="utf-16")
        code, out, err = run_cli(capsys, "learn", str(path))
        assert code == 3
        assert f"cannot read {path}: not UTF-8 text (byte 0xff at offset 0)" in err
        assert out == ""

    def test_latin1_arc_file(self, capsys, data_path, tmp_path):
        path = tmp_path / "arcs.csv"
        path.write_text("from,to\nA,B\nA,\u00e9\n", encoding="latin-1")
        code, out, err = run_cli(capsys, "learn", data_path, "--blacklist", str(path))
        assert code == 3
        assert f"cannot read {path}: not UTF-8 text (byte 0xe9 at offset 14)" in err
        assert out == ""

    def test_duplicate_node_in_params_file(self, capsys, tmp_path):
        payload = json.loads(sixnode().to_json())
        payload["nodes"].append(payload["nodes"][0])
        params = tmp_path / "dup.json"
        params.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "sample", "--params", str(params), "--n", "5")
        assert code == 3
        assert err == f"error: node 'A' is listed twice, in fitted-network file {params}\n"
        assert out == ""

    def test_truncated_params_file(self, capsys, tmp_path):
        params = tmp_path / "cut.json"
        params.write_text(sixnode().to_json()[:40])
        code, out, err = run_cli(capsys, "sample", "--params", str(params), "--n", "5")
        assert code == 3
        assert err.startswith("error: malformed fitted network: ")
        assert err.endswith(f", in fitted-network file {params}\n")
        assert out == ""


class TestConsoleEntry:
    def test_subprocess_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "bnsl.cli", "export-dot", "[X][Y|X]"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "digraph" in proc.stdout

    def test_usage_error_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bnsl.cli", "learn"],
            capture_output=True, text=True)
        assert proc.returncode == 2
