"""Tests for the command-line interface: subcommands, outputs, exit codes."""

import json

import pytest

from hermsq.cli import main
from hermsq.jsonio import dumps


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--output", "json")
    return code, json.loads(out) if out else None, err


class TestQfCommands:
    def test_diag_passthrough(self, capsys):
        code, out, _ = run(capsys, "qf", "diag", "X", "Y", "X*Y")
        assert code == 0
        assert out.strip() == "X Y X*Y"

    def test_diag_matrix_json(self, capsys, tmp_path):
        path = tmp_path / "gram.json"
        path.write_text(dumps({"matrix": [["2", "1"], ["1", "2"]]}))
        code, doc, _ = run_json(capsys, "qf", "diag", "--json", str(path))
        assert code == 0
        assert doc["entries"] == ["2", "3/2"]
        assert "transform" in doc

    def test_isotropy_exit_codes(self, capsys):
        code, out, _ = run(capsys, "qf", "isotropy", "1", "-1")
        assert code == 0
        assert "True" in out
        code, out, _ = run(capsys, "qf", "isotropy", "1", "1", "-3")
        assert code == 1
        code, _, _ = run(capsys, "qf", "isotropy", "--weak", "1", "-7")
        assert code == 0
        code, _, _ = run(capsys, "qf", "isotropy", "--weak", "2", "3")
        assert code == 1

    def test_weak_rep_one(self, capsys):
        code, doc, _ = run_json(capsys, "qf", "weak-rep-one", "X", "Y", "X*Y")
        assert code == 1
        assert doc == {"weakly_represents_one": False}
        code, doc, _ = run_json(capsys, "qf", "weak-rep-one", "1", "X")
        assert code == 0
        assert doc["weakly_represents_one"] is True
        assert doc["copies"] >= 1

    def test_signature(self, capsys):
        code, doc, _ = run_json(capsys, "qf", "signature", "X", "Y", "X*Y",
                                "--ordering", "+-")
        assert code == 0
        assert doc == {"ordering": "+-", "signature": -1}

    def test_form_json_file(self, capsys, tmp_path):
        path = tmp_path / "form.json"
        path.write_text(dumps({"entries": ["X", "Y", "X*Y"]}))
        code, out, _ = run(capsys, "qf", "weak-rep-one", "--json", str(path))
        assert code == 1

    def test_bad_scalar_is_input_error(self, capsys):
        code, _, err = run(capsys, "qf", "isotropy", "X + $")
        assert code == 2
        assert "error" in err

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "qf", "diag", "--json", "/no/such/file")
        assert code == 2

    def test_missing_form_is_input_error(self, capsys):
        code, _, err = run(capsys, "qf", "isotropy")
        assert code == 2


class TestNcCommands:
    def test_eval(self, capsys):
        code, doc, _ = run_json(capsys, "nc", "eval", "--poly", "x1 x1",
                                "--matrices", "[[[0, 1], [1, 0]]]")
        assert code == 0
        assert doc == {"value": [["1", "0"], ["0", "1"]]}

    def test_identity(self, capsys):
        code, _, _ = run(capsys, "nc", "identity",
                         "--poly", "x1 x2 - x2 x1", "--n", "1")
        assert code == 0
        code, _, _ = run(capsys, "nc", "identity",
                         "--poly", "x1 x2 - x2 x1", "--n", "2")
        assert code == 1

    def test_central(self, capsys):
        poly = ("x1 x2 x1 x2 - x1 x2 x2 x1 - x2 x1 x1 x2 + x2 x1 x2 x1")
        code, _, _ = run(capsys, "nc", "central", "--poly", poly, "--n", "2")
        assert code == 0
        code, _, _ = run(capsys, "nc", "central", "--poly", "x1", "--n", "2")
        assert code == 1

    def test_falsify(self, capsys):
        code, doc, _ = run_json(capsys, "nc", "falsify",
                                "--poly", "x1 + x1*", "--n", "2",
                                "--trials", "10", "--seed", "0")
        assert code == 1
        assert doc["counterexample"] is not None
        code, doc, _ = run_json(capsys, "nc", "falsify",
                                "--poly", "x1* x1", "--n", "2",
                                "--trials", "10", "--seed", "0")
        assert code == 0
        assert doc == {"counterexample": None}

    def test_falsify_nonsymmetric_is_error(self, capsys):
        code, _, err = run(capsys, "nc", "falsify", "--poly", "x1",
                           "--n", "2", "--trials", "5", "--seed", "0")
        assert code == 2

    def test_resource_limit_is_error(self, capsys):
        code, _, err = run(capsys, "nc", "identity",
                           "--poly", "x1 x1 x1 x1 x1 x1 x1", "--n", "2")
        assert code == 2
        assert "cap" in err

    def test_verify_cert(self, capsys, tmp_path):
        doc = {"g": "x1* x1", "h": "1", "n": 2, "J": "orthogonal",
               "weights": [], "terms": {"": ["x1"]}}
        path = tmp_path / "cert.json"
        path.write_text(dumps(doc))
        code, out, _ = run(capsys, "nc", "verify-cert", str(path))
        assert code == 0
        assert "verified: True" in out
        doc["terms"] = {"": ["x1 + 1"]}
        path.write_text(dumps(doc))
        code, out, _ = run(capsys, "nc", "verify-cert", str(path))
        assert code == 1
        assert "congruence: False" in out

    @pytest.mark.parametrize("weights,eps", [([], "0x"), (["1"], "x")])
    def test_verify_cert_bad_selector_is_error(self, capsys, tmp_path,
                                               weights, eps):
        doc = {"g": "x1* x1", "h": "1", "n": 2, "J": "orthogonal",
               "weights": weights, "terms": {eps: ["x1"]}}
        path = tmp_path / "cert.json"
        path.write_text(dumps(doc))
        code, _, err = run(capsys, "nc", "verify-cert", str(path))
        assert code == 2
        assert "selector" in err


class TestMalformedJson:
    @pytest.mark.parametrize("doc,argv,key", [
        ({"g": "x1"}, ["nc", "verify-cert"], "'h'"),
        ({"g": "x1", "h": "1", "n": "2", "J": "orthogonal", "weights": [],
          "terms": {}}, ["nc", "verify-cert"], "'n'"),
        ({"g": "x1", "h": "1", "n": 2, "J": "orthogonal", "weights": [],
          "terms": {"": "x1"}}, ["nc", "verify-cert"], "''"),
        ([1, 2], ["nc", "verify-cert"], "object"),
        ({"entries": 5}, ["qf", "isotropy", "--json"], "'entries'"),
        ({"entries": [1, -1]}, ["qf", "isotropy", "--json"], "'entries'"),
        ({"matrix": [["1", "0"], 5]}, ["qf", "diag", "--json"], "row"),
        ({"matrix": "1"}, ["qf", "diag", "--json"], "'matrix'"),
    ])
    def test_document_is_input_error(self, capsys, tmp_path, doc, argv, key):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, *argv, str(path))
        assert code == 2
        assert key in err

    @pytest.mark.parametrize("matrices", ['{"a": 1}', "[[1, 2]]", '[[["1/0"]]]',
                                          '[[["x"]]]', "[[[true]]]", "[[]]"])
    def test_eval_matrices_are_input_error(self, capsys, matrices):
        code, _, _ = run(capsys, "nc", "eval", "--poly", "x1",
                         "--matrices", matrices)
        assert code == 2


class TestScenarios:
    @pytest.mark.parametrize("name", ["thm3.2", "prop4.1", "lemma3.1",
                                      "ex-psd", "hall-identity"])
    def test_confirmed(self, capsys, name):
        code, doc, _ = run_json(capsys, "scenario", name)
        assert code == 0
        assert doc["confirmed"] is True
        assert doc["scenario"] == name

    def test_thm47_options(self, capsys):
        code, doc, _ = run_json(capsys, "scenario", "thm4.7",
                                "--n", "2", "--seed", "5")
        assert code == 0
        assert doc["n"] == 2
        assert doc["seed"] == 5

    @pytest.mark.parametrize("n", ["5", "0", "-2"])
    def test_thm47_bad_size_is_error(self, capsys, n):
        code, out, err = run(capsys, "scenario", "thm4.7", "--n", n)
        assert code == 2
        assert out == ""
        assert "even" in err

    def test_unknown_scenario_is_parse_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenario", "nope"])
