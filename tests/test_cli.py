"""Batch CLI: subcommands, formats, exit codes, reproducibility."""

import subprocess
import sys

import numpy as np
import pytest

import bnsl
from bnsl import (HillClimbConfig, ScoreSpec, forward_sample, hill_climb,
                  load_table, network_score, write_table)
from bnsl.cli import load_graph, main
from bnsl.networks import SIXNODE_MODEL, sixnode


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

    def test_seeded_outputs_byte_identical(self, capsys, data_path):
        args = ("learn", data_path, "--algo", "hc", "--score", "bic",
                "--restart", "2", "--perturb", "2", "--seed", "7")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

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

    def test_cycle_message_propagates(self, capsys):
        code, _, err = run_cli(capsys, "modelstring", "[A|C][B|A][C|B]")
        assert code == 1
        assert "the resulting graph contains cycles" in err


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
