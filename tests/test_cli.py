"""End-to-end CLI behaviour: outputs, exit codes, determinism, round-trips."""

import json
import os
import re

import pytest

from hytrex.cli import main
from hytrex.families import FamilySpec, generate
from hytrex.graph import graph_from_json, graph_to_json


@pytest.fixture()
def cycle6_file(tmp_path):
    path = tmp_path / "cycle6.json"
    path.write_text(json.dumps(graph_to_json(generate(FamilySpec("cycle", (3,))))))
    return str(path)


@pytest.fixture()
def k23_file(tmp_path):
    path = tmp_path / "k23.json"
    g = generate(FamilySpec("complete_bipartite", (2, 3)))
    path.write_text(json.dumps(graph_to_json(g)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPolynomials:
    def test_interior_hexagon(self, capsys, cycle6_file):
        code, out, err = run(capsys, ["interior", cycle6_file])
        assert code == 0
        assert out == "1 + x + x^2\n"
        assert "order: e1,e2,e3" in err

    def test_exterior_k23_hyperedges_e(self, capsys, k23_file):
        code, out, _ = run(capsys, ["exterior", k23_file, "--hyperedges", "e"])
        assert code == 0
        assert out == "1 + y + y^2\n"

    def test_exterior_other_side(self, capsys, k23_file):
        code, out, _ = run(capsys, ["exterior", k23_file, "--hyperedges", "v"])
        assert code == 0
        assert out == "1 + 2y\n"

    def test_family_input_inline(self, capsys):
        code, out, _ = run(capsys, ["interior", "family", "cycle", "4"])
        assert code == 0
        assert out == "1 + x + x^2 + x^3\n"

    def test_custom_order_is_echoed_but_result_unchanged(self, capsys, cycle6_file):
        code, out, err = run(capsys, ["interior", cycle6_file, "--order", "e3,e1,e2"])
        assert code == 0
        assert out == "1 + x + x^2\n"
        assert "order: e3,e1,e2" in err

    def test_json_round_trip(self, capsys, k23_file):
        code, out, _ = run(capsys, ["exterior", k23_file, "--json"])
        assert code == 0
        assert json.loads(out) == [1, 1, 1]

    def test_deterministic_output(self, capsys, cycle6_file):
        _, out1, _ = run(capsys, ["interior", cycle6_file, "--json"])
        _, out2, _ = run(capsys, ["interior", cycle6_file, "--json"])
        assert out1 == out2


class TestHypertrees:
    def test_table(self, capsys, cycle6_file):
        code, out, _ = run(capsys, ["hypertrees", cycle6_file])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "hypertree\tinternal_inactivity\texternal_inactivity"
        assert "[0,1,1]\t2\t0" in lines

    def test_json(self, capsys, cycle6_file):
        code, out, _ = run(capsys, ["hypertrees", cycle6_file, "--json"])
        data = json.loads(out)
        assert data["order"] == ["e1", "e2", "e3"]
        assert {"f": [1, 1, 0], "internal_inactivity": 0,
                "external_inactivity": 1} in data["hypertrees"]


class TestTutte:
    def test_triangle_file(self, capsys, tmp_path):
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps({
            "vertices": ["a", "b", "c"],
            "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
        }))
        code, out, _ = run(capsys, ["tutte", str(path)])
        assert code == 0
        assert out == "x^2 + x + y\n"

    def test_json_terms(self, capsys, tmp_path):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
        code, out, _ = run(capsys, ["tutte", str(path), "--json"])
        assert json.loads(out) == [[1, 0, 1]]

    def test_bipartite_file_treated_as_plain_graph(self, capsys, cycle6_file):
        # the hexagon viewed as an ordinary graph is a 6-cycle
        code, out, _ = run(capsys, ["tutte", cycle6_file])
        assert code == 0
        assert out == "x^5 + x^4 + x^3 + x^2 + x + y\n"


class TestFamilyAndTransform:
    def test_family_emits_loadable_graph(self, capsys):
        code, out, _ = run(capsys, ["family", "complete_bipartite", "2", "3"])
        assert code == 0
        g = graph_from_json(json.loads(out))
        assert (g.n_v, g.n_e) == (2, 3)

    def test_family_seeded_determinism(self, capsys):
        _, out1, _ = run(capsys, ["family", "tree", "6", "--seed", "9"])
        _, out2, _ = run(capsys, ["family", "tree", "6", "--seed", "9"])
        assert out1 == out2

    @pytest.mark.parametrize("argv", [
        ["interior", "family", "cycle", "3", "--seed", "5"],
        ["family", "ladder", "3", "--seed", "0"],
        ["tutte", "family", "complete_bipartite", "2", "3", "--seed", "1"],
        ["interior", "FILE", "--seed", "9"],
        ["hypertrees", "FILE", "--seed", "9"],
        ["tutte", "FILE", "--seed", "9"],
        ["transform", "FILE", "--op", "dual", "--seed", "9"],
    ], ids=["interior-cycle", "family-ladder", "tutte-kmn", "interior-file",
            "hypertrees-file", "tutte-file", "transform-file"])
    def test_seed_nothing_reads_is_a_usage_error(self, capsys, cycle6_file, argv):
        code, out, err = run(capsys, [cycle6_file if arg == "FILE" else arg for arg in argv])
        assert code == 2
        assert out == ""
        assert "seed" in err

    @pytest.mark.parametrize("argv", [["family", "tree", "6"],
                                      ["family", "unicyclic", "3", "4"],
                                      ["family", "ear_graph", "3", "2"]],
                             ids=["tree", "unicyclic", "ear_graph"])
    def test_seeded_families_read_the_seed(self, capsys, argv):
        code, out, _ = run(capsys, argv + ["--seed", "3"])
        assert code == 0
        assert out != run(capsys, argv + ["--seed", "4"])[1]

    def test_transform_dual(self, capsys, k23_file):
        code, out, _ = run(capsys, ["transform", k23_file, "--op", "dual"])
        g = graph_from_json(json.loads(out))
        assert (g.n_v, g.n_e) == (3, 2)

    def test_transform_contract(self, capsys, cycle6_file):
        code, out, _ = run(capsys,
                           ["transform", cycle6_file, "--op", "contract",
                            "--vertex", "e1"])
        g = graph_from_json(json.loads(out))
        assert (g.n_v, g.n_e, g.n_edges) == (2, 2, 4)

    def test_transform_contract_onto_a_label_in_use(self, capsys, tmp_path):
        # Contracting x merges a and b; "a+b" is taken, so the merged
        # vertex is "a+b'".
        path = tmp_path / "taken.json"
        path.write_text(json.dumps({
            "v": ["x", "y"], "e": ["a", "b", "a+b"],
            "adj": [["x", "a"], ["x", "b"], ["y", "b"], ["y", "a+b"]]}))
        code, out, _ = run(capsys, ["transform", str(path), "--op", "contract",
                                    "--vertex", "x"])
        assert code == 0
        assert json.loads(out)["e"] == ["a+b'", "a+b"]

    def test_transform_add_parallel(self, capsys, cycle6_file):
        code, out, _ = run(capsys,
                           ["transform", cycle6_file, "--op", "add-parallel",
                            "--pair", "e1,e2", "--count", "2"])
        g = graph_from_json(json.loads(out))
        assert (g.n_v, g.n_e) == (5, 3)

    def test_transform_missing_argument(self, capsys, cycle6_file):
        code, _, err = run(capsys, ["transform", cycle6_file, "--op", "contract"])
        assert code == 2
        assert "error" in err


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run(capsys, [
            "verify", "all", "--seed", "3", "--max-total", "5",
            "--random-count", "3", "--random-max", "8", "--orders", "3"])
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert len(report["checks"]) == 9

    def test_single_check_selection(self, capsys):
        code, out, _ = run(capsys, [
            "verify", "negative_controls", "--seed", "3",
            "--max-total", "4", "--random-count", "1"])
        assert code == 0
        report = json.loads(out)
        assert [c["name"] for c in report["checks"]] == ["negative_controls"]

    def test_check_prefix_accepted(self, capsys):
        code, out, _ = run(capsys, [
            "verify", "check_interpolating,check_monic_ear", "--seed", "3",
            "--max-total", "4", "--random-count", "1"])
        assert code == 0
        report = json.loads(out)
        assert [c["name"] for c in report["checks"]] == ["interpolating", "monic_ear"]


    def test_stderr_reports_corpus_and_check_seconds(self, capsys):
        argv = ["verify", "all", "--seed", "3", "--max-total", "5",
                "--random-count", "3", "--random-max", "8", "--orders", "3"]
        code, out, err = run(capsys, argv)
        assert code == 0
        lines = err.splitlines()
        assert re.fullmatch(r"corpus: \d+ graphs in \d+\.\ds", lines[0])
        assert len(lines) == 11
        for line in lines[1:10]:
            assert re.fullmatch(r"\w+: pass \(\d+ instances, \d+\.\ds\)", line)
        assert re.fullmatch(r"suite finished in \d+\.\ds", lines[10])
        # the timings go to stderr only: stdout is the same on a second run
        assert run(capsys, argv)[1] == out

    def test_census_above_the_cap_fails_fast(self, capsys):
        code, out, err = run(capsys, ["verify", "all", "--max-total", "12"])
        assert code == 2
        assert out == ""
        assert "cap of 9" in err and "60 s" in err


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["interior", "no_such_file.json"])
        assert code == 2
        assert "error" in err

    def test_unknown_key_in_graph(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"v": ["a"], "e": ["b"], "adj": [], "x": 1}))
        code, _, err = run(capsys, ["interior", str(path)])
        assert code == 2

    @pytest.mark.parametrize("command,data", [
        ("interior", {"v": ["a"], "e": ["x"], "adj": [[{"k": 1}, "x"]]}),
        ("interior", {"v": ["a"], "e": ["x"], "adj": [["a", ["x"]]]}),
        ("interior", {"v": [["a"]], "e": ["x"], "adj": []}),
        ("tutte", {"v": ["a"], "e": ["x"], "adj": [[{"k": 1}, "x"]]}),
        ("tutte", {"vertices": [["a"], "b"], "edges": []}),
        ("tutte", {"vertices": [{"k": 1}], "edges": []}),
        ("tutte", {"vertices": ["a", "b"], "edges": [[["a"], "b"]]}),
        ("tutte", {"vertices": ["a", "b"], "edges": [["a", {"k": 1}]]}),
        ("tutte", {"vertices": ["a", "b"], "edges": 5}),
    ], ids=["adj-object-label", "adj-list-label", "v-list-label",
            "tutte-adj-object-label", "vertices-list-label",
            "vertices-object-label", "edge-list-endpoint",
            "edge-object-endpoint", "edges-not-a-list"])
    def test_unhashable_labels_are_input_errors(self, capsys, tmp_path, command, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, [command, str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_scalar_multigraph_labels_still_load(self, capsys, tmp_path):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"vertices": [1, 2], "edges": [[1, 2]]}))
        assert run(capsys, ["tutte", str(path)])[:2] == (0, "x\n")

    def test_disconnected_graph_for_polynomial(self, capsys, tmp_path):
        path = tmp_path / "disc.json"
        path.write_text(json.dumps({
            "v": ["a", "b"], "e": ["c", "d"],
            "adj": [["a", "c"], ["b", "d"]],
        }))
        code, _, err = run(capsys, ["interior", str(path)])
        assert code == 2
        assert "connected" in err

    def test_bad_family_parameters(self, capsys):
        code, _, _ = run(capsys, ["interior", "family", "cycle", "1"])
        assert code == 2

    # int() alone takes digit separators, whitespace and non-ASCII digits.
    @pytest.mark.parametrize("param", ["1_0", "\u0663", " 3", "3.0", "-"],
                             ids=["underscore", "arabic-indic", "space", "float", "sign"])
    def test_family_parameters_are_ascii_integers(self, capsys, param):
        code, out, err = run(capsys, ["interior", "family", "cycle", param])
        assert code == 2
        assert out == ""
        assert "family parameters must be integers" in err

    @pytest.mark.parametrize("argv", [
        ["family", "tree", "4", "--seed", "\u0661"],
        ["interior", "family", "tree", "4", "--seed", "1_0"],
        ["transform", "FILE", "--op", "add-parallel", "--pair", "e1,e2", "--count", "1_0"],
        ["verify", "tutte", "--seed", "\u0661"],
        ["verify", "tutte", "--orders", "2_0"],
        ["verify", "tutte", "--max-total", "\uff19"],
        ["verify", "tutte", "--random-count", " 5"],
        ["verify", "tutte", "--random-max", "1_4"],
    ], ids=["family-seed", "interior-seed", "count", "verify-seed", "orders",
            "max-total", "random-count", "random-max"])
    def test_integer_flags_are_ascii_integers(self, capsys, cycle6_file, argv):
        with pytest.raises(SystemExit) as exc:
            main([cycle6_file if arg == "FILE" else arg for arg in argv])
        assert exc.value.code == 2
        assert "invalid integer value" in capsys.readouterr().err

    def test_negative_and_zero_padded_integers_still_parse(self, capsys):
        code, out, _ = run(capsys, ["family", "tree", "04", "--seed", "-3"])
        assert code == 0
        assert out == run(capsys, ["family", "tree", "4", "--seed", "-3"])[1]

    def test_bad_order_label(self, capsys, cycle6_file):
        code, _, _ = run(capsys, ["interior", cycle6_file, "--order", "e1,e2,zzz"])
        assert code == 2

    @pytest.mark.parametrize("command", ["interior", "exterior", "hypertrees"])
    def test_invalid_order_is_not_echoed(self, capsys, command):
        code, out, err = run(capsys, [command, "family", "cycle", "4",
                                      "--order", "e1,e1,e2,e3"])
        assert code == 2
        assert out == ""
        assert "order:" not in err
        assert "permutation" in err

    @pytest.mark.parametrize("flag", [
        ["--orders", "-1"], ["--orders", "0"], ["--random-count", "-1"],
        ["--max-total", "1"], ["--random-max", "1"]])
    def test_verify_rejects_parameters_that_skip_checks(self, capsys, flag):
        code, out, err = run(capsys, ["verify", "invariance"] + flag)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    # family and transform always print JSON, so they take no --json.
    @pytest.mark.parametrize("argv", [
        ["interior", "FILE", "--threads", "2"], ["interior", "FILE", "--max-e", "5"],
        ["family", "ladder", "1", "--json"],
        ["transform", "FILE", "--op", "dual", "--json"],
    ], ids=["threads", "max-e", "family-json", "transform-json"])
    def test_removed_flags_are_usage_errors(self, cycle6_file, argv):
        env = dict(os.environ)
        with pytest.raises(SystemExit) as exc:
            main([cycle6_file if arg == "FILE" else arg for arg in argv])
        assert exc.value.code == 2
        assert dict(os.environ) == env

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["interior"])
        assert exc.value.code == 2
