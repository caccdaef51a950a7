"""Tests for the command-line interface: subcommands, outputs, exit codes."""

import argparse
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hermsq
from hermsq import cli, jsonio, ncpoly, qforms
from hermsq.cli import main
from hermsq.jsonio import dumps


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, timeout=60):
    src = str(Path(hermsq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "hermsq.cli", *argv],
                          capture_output=True, text=True, timeout=timeout, env=env)


def standard_poly_text(k, letters=None):
    """s_k in the NC grammar: sign(p) x_p(1) ... x_p(k) over permutations p
    of the letters, 1..k by default."""
    return " + ".join(("-" if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 else "")
                      + " ".join(f"x{i}" for i in p)
                      for p in itertools.permutations(letters or range(1, k + 1)))


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

    # the exact text of the zero-pivot branch, and of a swap with
    # denominators in G
    @pytest.mark.parametrize("matrix, want", [
        ([["0", "X"], ["X", "0"]], """{
  "entries": [
    "2*X",
    "-1/2*X"
  ],
  "transform": [
    [
      "1",
      "-1/2"
    ],
    [
      "1",
      "1/2"
    ]
  ]
}
"""),
        ([["0", "1/X", "Y"], ["1/X", "0", "1"], ["Y", "1", "X + Y"]], """{
  "entries": [
    "Y + X",
    "(-1)/(Y + X)",
    "(-2*X*Y + Y + X)/(X^2)"
  ],
  "transform": [
    [
      "0",
      "0",
      "1"
    ],
    [
      "0",
      "1",
      "(-X*Y + Y + X)/(X)"
    ],
    [
      "1",
      "(-1)/(Y + X)",
      "(-1)/(X)"
    ]
  ]
}
"""),
    ], ids=["hyperbolic-plane", "swap-with-denominators"])
    def test_diag_matrix_json_text_pinned(self, capsys, tmp_path, matrix, want):
        path = tmp_path / "gram.json"
        path.write_text(dumps({"matrix": matrix}))
        code, out, err = run(capsys, "qf", "diag", "--json", str(path), "--output", "json")
        assert (code, out, err) == (0, want, "")

    @pytest.mark.parametrize("matrix,word", [([["1", "2"], ["3", "1"]], "symmetric"),
                                             ([["1", "2"]], "square")])
    def test_diag_matrix_not_a_gram_is_input_error(self, capsys, tmp_path, matrix, word):
        path = tmp_path / "gram.json"
        path.write_text(dumps({"matrix": matrix}))
        code, out, err = run(capsys, "qf", "diag", "--json", str(path))
        assert (code, out) == (2, "")
        assert word in err and "Traceback" not in err

    def test_diag_matrix_over_cap_is_input_error(self, capsys, tmp_path, monkeypatch):
        def diagonalize(*args):
            raise AssertionError("diagonalized over the cap")

        cap = jsonio.MAX_GRAM_N
        path = tmp_path / "gram.json"
        for n, want in ((cap, 0), (cap + 1, 2)):
            rows = [["X" if i == j else "0" for j in range(n)] for i in range(n)]
            path.write_text(dumps({"matrix": rows}))
            if n > cap:
                monkeypatch.setattr("hermsq.cli.diagonalize", diagonalize)
            code, out, err = run(capsys, "qf", "diag", "--json", str(path))
            assert code == want
            if want:
                assert out == "" and "Traceback" not in err
                assert f"size {n} exceeds the cap {cap}" in err
            else:
                assert out.split() == ["X"] * n

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

    @pytest.mark.parametrize("power, message", [
        ("(X+Y+1)^100000", "exponent 100000 exceeds the cap"),
        # the generic variables z are no scalars: a parse error
        ("(X+Y+z1_1_1+z1_2_1+z2_1_1+z2_2_1+1)^10", "unexpected character 'z'"),
        ("(X+Y+1)^64*(X+Y+1)^64", "product of degree 128 exceeds the cap"),
        ("(" + "+".join(f"z{i}_1_1" for i in range(1, 72)) + ")*("
         + "+".join(f"z{i}_2_1" for i in range(1, 72)) + ")",
         "unexpected character 'z'"),
    ])
    def test_power_over_cap_is_input_error(self, power, message):
        # in a child process with a timeout: without the caps these run
        # for minutes
        done = run_process("qf", "signature", "--ordering", "++", "--", power)
        assert done.returncode == 2 and done.stdout == ""
        assert message in done.stderr and "Traceback" not in done.stderr
        with pytest.raises(SystemExit) as exc:
            main(["qf", "signature", "--", power])   # no --ordering
        assert exc.value.code == 2

    @pytest.mark.parametrize("scalar, message", [
        ("(" * 250 + "X" + ")" * 250, "parentheses nested deeper than 100"),
        ("X*" + "-" * 3000, "unexpected end of input"),
    ])
    def test_deep_scalar_is_input_error(self, capsys, scalar, message):
        # both recursed once per "(" or "-" and escaped as RecursionError
        code, out, err = run(capsys, "qf", "diag", "--", scalar)
        assert code == 2 and out == ""
        assert message in err and "Traceback" not in err

    def test_long_unary_minus_chain(self, capsys):
        code, out, _ = run(capsys, "qf", "diag", "--", "X*" + "-" * 3001 + "X", "Y")
        assert code == 0
        code, want, _ = run(capsys, "qf", "diag", "--", "-X^2", "Y")
        assert out == want

    @pytest.mark.parametrize("argv", [["--ordering=--"], ["--ordering", "--"]])
    def test_signature_ordering_minus_minus(self, capsys, argv):
        # argparse strips "--" from an option value and takes a detached
        # "--" for the end-of-options marker; both spellings must reach
        # the ordering X < 0, Y < 0, at which <X, Y> is negative definite
        code, out, _ = run(capsys, "qf", "signature", *argv, "--output", "json",
                           "--", "X", "Y")
        assert code == 0
        assert json.loads(out) == {"ordering": "--", "signature": -2}

    @pytest.mark.parametrize("argv", [
        ["--ordering", "-+"], ["--ordering=++"], ["--ordering", "+-"]])
    def test_signature_ordering_spellings(self, capsys, argv):
        code, doc, _ = run_json(capsys, "qf", "signature", "X", *argv)
        assert code == 0
        assert doc["ordering"] == argv[-1][-2:]

    @pytest.mark.parametrize("argv", [
        ["--ordering=+x"], ["--ordering", "---"], ["--ordering="], ["--ordering"]])
    def test_signature_bad_ordering_is_input_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["qf", "signature", "X", *argv])
        assert exc.value.code == 2

    def test_ordering_is_not_taken_after_end_of_options(self, capsys):
        # after "--", "--ordering=--" is an entry, and not a scalar
        code, _, err = run(capsys, "qf", "signature", "--ordering", "++",
                           "--", "--ordering=--")
        assert code == 2
        assert "error" in err

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

    def test_large_prime_is_resource_limit(self):
        # a 30-digit prime: trial division up to sqrt(p) would take about 10^8 s
        start = time.perf_counter()
        proc = run_process("qf", "isotropy", "--", "1", "1", "-100000000000000000000000000319")
        assert time.perf_counter() - start < 2
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "trial-division bound" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_weak_rep_one_multiple_of_power_of_four(self):
        # 7340032 = 7 * 4^10, a slow case for the four-squares search
        start = time.perf_counter()
        proc = run_process("qf", "weak-rep-one", "--", "7340032", "X", "Y")
        assert time.perf_counter() - start < 2
        assert proc.returncode == 0
        assert "weakly represents 1: True" in proc.stdout

    def test_weak_rep_one_skips_a_with_no_three_squares(self, capsys):
        # n = 47124799620434412028532003: the greedy four-squares search
        # ran its inner loops to the end at each a with n - a^2 of the form
        # 4^k (8m + 7), which no three squares sum to, for over 60 s
        start = time.perf_counter()
        code, out, err = run(capsys, "qf", "weak-rep-one", "--output", "json", "--",
                             "1/47124799620434412028532003", "X", "Y")
        assert time.perf_counter() - start < 5
        assert code == 0 and err == ""
        roots = [int(v[0]) for v in json.loads(out)["vectors"]]
        assert sum(r * r for r in roots) == 47124799620434412028532003

    def test_four_squares_over_the_cap_is_resource_error(self, capsys):
        # the first odd integer over the bit cap, refused before the search
        n = (1 << qforms.MAX_FOUR_SQUARES_BITS) + 1
        code, out, err = run(capsys, "qf", "weak-rep-one", "--", f"1/{n}", "X", "Y")
        assert code == 2 and out == ""
        assert f"exceeds the cap of {qforms.MAX_FOUR_SQUARES_BITS} bits" in err
        assert "Traceback" not in err

    def test_missing_form_is_input_error(self, capsys):
        code, _, err = run(capsys, "qf", "isotropy")
        assert code == 2

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on int to str conversion")
    @pytest.mark.parametrize("argv, message", [
        (["7" * 5000], "integer literal of 5000 digits is too long to read"),
        (["X^" + "7" * 5000], "integer literal of 5000 digits is too long to read"),
        (["9" * 2200 + "*" + "9" * 2200, "X"], "too long to print"),
    ])
    def test_scalar_integer_too_long(self, capsys, argv, message):
        # a literal over the int/str digit limit failed in the parser's
        # int(), and a product of two shorter ones in format_scalar's str(),
        # both with a ValueError traceback; now one error line and exit 2
        code, out, err = run(capsys, "qf", "diag", "--", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err and "Traceback" not in err


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

    @pytest.mark.parametrize("command, decision", [
        ("identity", "is_identity_mod_a"), ("central", "is_central_nonvanishing")])
    def test_degree_cap_before_expansion(self, capsys, monkeypatch, command, decision):
        # s7 has 5040 words of degree 7, over the cap 6: the command stops
        # at its first word, before any term is summed or expanded
        def expand(*args):
            raise AssertionError("expanded over the cap")

        monkeypatch.setattr(f"hermsq.cli.{decision}", expand)
        code, out, err = run(capsys, "nc", command, "--poly", standard_poly_text(7),
                             "--n", "3")
        assert code == 2 and out == ""
        assert "word of degree 7 at position 18 exceeds the cap 6" in err

    def test_verify_cert_degree_cap(self, capsys, tmp_path, monkeypatch):
        # h over the cap exits 2 before anything is expanded; g may pass the
        # cap when h* g h minus the squares cancels below it
        doc = {"g": "x1* x1* x1* x1* x1 x1 x1 x1", "h": "1", "n": 2, "J": "orthogonal",
               "weights": [], "terms": {"": ["x1 x1 x1 x1"]}}
        path = tmp_path / "cert.json"
        path.write_text(dumps(doc))
        code, out, _ = run(capsys, "nc", "verify-cert", str(path))
        assert code == 0 and "verified: True" in out

        def conditions(*args):
            raise AssertionError("verified over the cap")

        monkeypatch.setattr("hermsq.cli.positivstellensatz_conditions", conditions)
        doc["h"] = "x1 x2 x1 x2 x1 x2 x1"
        path.write_text(dumps(doc))
        code, out, err = run(capsys, "nc", "verify-cert", str(path))
        assert code == 2 and out == ""
        assert "word of degree 7" in err

    def test_verify_cert_expansion_cap(self, capsys, tmp_path, monkeypatch):
        # p* p for p the first 1500 words of lengths 1 to 4 over x1, x1*,
        # x2, x2*, x3, x3*: 2.25M word products, all formed before the
        # degree cap refused the result; the expansion cap refuses it
        # before the first product
        letters = ["x1", "x1*", "x2", "x2*", "x3", "x3*"]
        words = [" ".join(w) for k in range(1, 5)
                 for w in itertools.product(letters, repeat=k)][:1500]
        doc = {"g": "1", "h": "1", "n": 2, "J": "orthogonal", "weights": [],
               "terms": {"": [" + ".join(words)]}}
        path = tmp_path / "cert.json"
        path.write_text(dumps(doc))

        def multiply(*args):
            raise AssertionError("multiplied over the expansion cap")

        monkeypatch.setattr(ncpoly.NCPolynomial, "__mul__", multiply)
        code, out, err = run(capsys, "nc", "verify-cert", str(path))
        assert code == 2 and out == ""
        assert "expansion work 2250002" in err and "cap" in err
        assert "Traceback" not in err

    def test_verify_cert_refuted_at_the_point(self, capsys, tmp_path, monkeypatch):
        # g = h = 1 with p the 258 words of lengths 1 to 3 over x1, x1*,
        # x2, x2*, x3, x3*, at n = 3: a false certificate whose congruence
        # (66566 word products) the screen refutes, so only the constant h
        # reaches the packed kernel (the congruence alone took about 3.7 s
        # there)
        letters = ["x1", "x1*", "x2", "x2*", "x3", "x3*"]
        words = [" ".join(w) for k in range(1, 4) for w in itertools.product(letters, repeat=k)]
        assert len(words) == 258
        doc = {"g": "1", "h": "1", "n": 3, "J": "orthogonal", "weights": [],
               "terms": {"": [" + ".join(words)]}}
        path = tmp_path / "cert.json"
        path.write_text(dumps(doc))
        calls = []
        kernel = ncpoly._packed_eval

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(ncpoly, "_packed_eval", counted)
        code, out, err = run(capsys, "nc", "verify-cert", str(path))
        assert code == 1 and "congruence: False" in out
        assert "h_central_nonvanishing: True" in out
        assert len(calls) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", ["identity", "central"])
    def test_kernel_cap(self, capsys, monkeypatch, command):
        # three copies of s6 over different 6-subsets of x1..x7, an
        # identity on M_3, pass the screen and are refused before the first
        # product of the packed kernel
        def expand(*args):
            raise AssertionError("expanded over the cap")

        monkeypatch.setattr(ncpoly, "_packed_eval", expand)
        poly = " + ".join(standard_poly_text(6, sub)
                          for sub in list(itertools.combinations(range(1, 8), 6))[:3])
        code, out, err = run(capsys, "nc", command, "--poly", poly, "--n", "3")
        assert code == 2 and out == ""
        assert "kernel work 7048944" in err and "cap" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["identity", "--poly", "x1", "--n", "0"],
        ["identity", "--poly", "x1", "--n", "-1"],
        ["central", "--poly", "1", "--n", "0"],
        ["identity", "--poly", "1/0 x1", "--n", "1"],
        ["identity", "--poly", "+", "--n", "2"],
        ["identity", "--poly", "x1 - -", "--n", "2"],
        ["falsify", "--poly", "x1* x1", "--n", "2", "--bound", "-1"],
        ["falsify", "--poly", "x1* x1", "--n", "2", "--trials", "-5"],
    ])
    def test_malformed_input_is_input_error(self, capsys, argv):
        code, out, err = run(capsys, "nc", *argv)
        assert code == 2 and out == ""
        assert "error" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, sizes", [
        (["--n", "9"], ("9", "8")),
        (["--n", "2", "--trials", "1001"], ("1001", "1000")),
        (["--n", "2", "--bound", "1000001"], ("1000001", "1000000")),
    ])
    def test_falsify_over_cap_is_input_error(self, capsys, monkeypatch, argv, sizes):
        def evaluate(*args, **kwargs):
            raise AssertionError("evaluated over the cap")
        monkeypatch.setattr("hermsq.ncpoly._eval_at", evaluate)
        code, out, err = run(capsys, "nc", "falsify", "--poly", "x1* x1 + x2* x2", *argv)
        assert code == 2 and out == ""
        assert "cap" in err and all(size in err for size in sizes)
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, work", [
        (["eval", "--poly", "x1 x2 x3 x4 x5 x6 x7 x8",
          "--matrices", json.dumps([[[1, 2], [3, 4]]] * 8)], "nc_eval"),
        (["falsify", "--poly", "x1* x1 x1* x1 x1* x1 x1* x1 x1* x1", "--n", "8",
          "--trials", "1000"], "psd_falsify"),
    ])
    def test_degree_cap_before_evaluation(self, capsys, monkeypatch, argv, work):
        # eval and falsify refuse the first word over the cap 6 as it is read
        def evaluate(*args, **kwargs):
            raise AssertionError("evaluated over the cap")

        monkeypatch.setattr(f"hermsq.cli.{work}", evaluate)
        code, out, err = run(capsys, "nc", *argv)
        assert code == 2 and out == ""
        assert "word of degree 7" in err and "cap 6" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, work", [
        (["falsify", "--poly", "x1* x1 x1* x1 x1* x1", "--n", "8", "--trials", "1000"],
         1000 * 6 * 8 ** 3),
        (["eval", "--poly", standard_poly_text(6),
          "--matrices", json.dumps([[[1] * 8 for _ in range(8)]] * 6)],
         720 * 6 * 8 ** 3 * (64 + 1) // 64),
        (["eval", "--poly", "x1 x1* x1 x1* x1 x1*",
          "--matrices", json.dumps([[[f"{2 ** 99 + 1}/{2 ** 99 + i}" for i in range(8)]] * 8])],
         6 * 8 ** 3 * (64 + 100 ** 2) // 64),
    ])
    def test_work_over_cap_is_input_error(self, capsys, monkeypatch, argv, work):
        # inside the size, trial and degree caps, these ran for 16 s, 4.2 s
        # and about 1.6 s (100-bit fractions); the work cap refuses them
        # before the first product
        def multiply(*args):
            raise AssertionError("multiplied over the work cap")

        monkeypatch.setattr("hermsq.ncpoly.mat_mul", multiply)
        code, out, err = run(capsys, "nc", *argv)
        assert code == 2 and out == ""
        assert f"evaluation work {work}" in err and "exceeds the cap 350000" in err
        assert "Traceback" not in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on int to str conversion")
    def test_eval_value_too_long_to_print(self, capsys):
        # inside the work cap, six 4 x 4 matrices of 240-bit fractions give
        # a product with more digits than str() converts: exit 2, not a
        # traceback
        rng = random.Random(7)
        mats = [[[f"{rng.getrandbits(239) | 1 << 239}/{rng.getrandbits(239) | 1 << 239}"
                  for _ in range(4)] for _ in range(4)] for _ in range(6)]
        code, out, err = run(capsys, "nc", "eval", "--poly", "x1 x2 x3 x4 x5 x6",
                             "--matrices", json.dumps(mats))
        assert code == 2 and out == ""
        assert "too long to print" in err and "Traceback" not in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on int to str conversion")
    def test_index_over_the_digit_limit(self, capsys):
        # int() on a 5000-digit variable index raised a ValueError, exit 1
        # with a traceback
        code, out, err = run(capsys, "nc", "identity", "--poly", "x" + "1" * 5000, "--n", "2")
        assert code == 2 and out == ""
        assert "integer literal of 5000 digits is too long to read" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("n", [9, 60])
    def test_eval_matrix_size_cap(self, capsys, monkeypatch, n):
        # the size cap of falsify, checked before any product
        def multiply(*args):
            raise AssertionError("multiplied over the cap")

        monkeypatch.setattr("hermsq.ncpoly.mat_mul", multiply)
        mats = [[[1] * n for _ in range(n)]] * 2
        code, out, err = run(capsys, "nc", "eval", "--poly", "x1 x2 x1* x2*",
                             "--matrices", json.dumps(mats))
        assert code == 2 and out == ""
        assert f"matrix size {n} exceeds the cap 8" in err
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("argv", [["qf", "diag", "--json"], ["qf", "isotropy", "--json"],
                                      ["nc", "verify-cert"]])
    def test_deep_nesting_is_input_error(self, capsys, tmp_path, argv):
        # json.loads raises RecursionError on this document
        path = tmp_path / "doc.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2 and out == ""
        assert "nested too deeply" in err and "Traceback" not in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on int to str conversion")
    @pytest.mark.parametrize("argv", [["qf", "diag", "--json"], ["nc", "eval"]])
    def test_number_over_the_digit_limit_is_input_error(self, capsys, tmp_path, argv):
        # json.loads raises a bare ValueError on a number of more than 4300
        # digits, which escaped with a traceback and exit 1; the error names
        # the number's length and the limit, not Python's advice
        big = "1" * 5000
        if argv[0] == "qf":
            path = tmp_path / "doc.json"
            path.write_text('{"entries": [%s]}' % big)
            argv = argv + [str(path)]
        else:
            argv = argv + ["--poly", "x1", "--matrices", "[[[%s]]]" % big]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == (f"error: JSON number of 5000 digits is too long to read "
                       f"(the limit is {sys.get_int_max_str_digits()} digits)\n")

    @pytest.mark.parametrize("matrices", ['{"a": 1}', "[[1, 2]]", '[[["1/0"]]]',
                                          '[[["x"]]]', "[[[true]]]", "[[]]"])
    def test_eval_matrices_are_input_error(self, capsys, matrices):
        code, _, _ = run(capsys, "nc", "eval", "--poly", "x1",
                         "--matrices", matrices)
        assert code == 2


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), argparse's exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


LEAVES = [("qf", "diag"), ("qf", "isotropy"), ("qf", "weak-rep-one"), ("qf", "signature"),
          ("nc", "eval"), ("nc", "identity"), ("nc", "central"), ("nc", "falsify"),
          ("nc", "verify-cert"), ("scenario",)]

# the parsers build_parser() makes: the top level, each group and each leaf
FULL_TREE = 1 + len({leaf[0] for leaf in LEAVES if len(leaf) > 1}) + len(LEAVES)


def by_code(code, *argvs):
    """argvs for the text comparison, each with the exit code main() gives it."""
    return [pytest.param(argv, code, id=" ".join(argv) or "(none)") for argv in argvs]


# argvs that parse, with the exit code of the command they run in a
# directory that holds GRAM and CERT
PARSED = [
    (0, ["scenario", "thm4.7", "--n", "8", "--seed", "3", "--output", "json"]),
    (0, ["scenario", "thm3.2"]),
    (0, ["qf", "diag", "--json", "gram.json", "--output", "json"]),
    (0, ["qf", "diag", "1", "X"]),
    (1, ["qf", "isotropy", "--", "1", "1", "-3"]),
    (2, ["qf", "isotropy", "--weak", "--output", "json", "--", "1", "-X"]),
    (1, ["qf", "weak-rep-one", "--output", "json", "--", "X", "Y", "X*Y"]),
    (0, ["qf", "signature", "--ordering=--", "--", "X", "Y"]),
    (0, ["qf", "signature", "--ordering", "+-", "--output", "json", "X"]),
    (0, ["nc", "eval", "--poly", "x1 x1", "--matrices", "[[[1]]]", "--output", "json"]),
    (1, ["nc", "identity", "--poly", "x1 x2 - x2 x1", "--n", "2", "--type", "symplectic"]),
    (1, ["nc", "central", "--poly", "x1", "--n", "2"]),
    (0, ["nc", "falsify", "--poly", "x1* x1", "--n", "2", "--trials", "4", "--seed", "7",
         "--output", "json"]),
    (0, ["nc", "falsify", "--poly", "x1* x1", "--n", "2"]),
    (1, ["nc", "verify-cert", "cert.json", "--output", "json"]),
    # abbreviated options, and --output=json
    (0, ["qf", "signature", "--ord", "++", "X", "Y"]),
    (0, ["nc", "falsify", "--po", "x1* x1", "--n", "2", "--tri", "3"]),
    (0, ["scenario", "thm3.2", "--output=json"]),
    (0, ["qf", "diag", "--output=json", "--", "X", "-Y"]),
    # the end-of-options marker before and after a leaf's options
    (0, ["scenario", "--", "thm3.2"]),
    (0, ["qf", "signature", "--ordering", "--", "1"]),
    (0, ["qf", "isotropy", "--weak", "--", "1", "-1"]),
    (2, ["qf", "isotropy", "--", "--weak", "1"]),
    (2, ["qf", "isotropy", "1", "--", "-1", "--weak"]),
    # a repeated option, whose last value counts
    (0, ["scenario", "thm4.7", "--n", "2", "--n", "4"]),
    (0, ["qf", "diag", "--output", "json", "--output", "text", "1"]),
    (1, ["nc", "central", "--poly", "x1", "--poly", "x1 x2 - x2 x1", "--n", "2"]),
    # a command's name as a value
    (2, ["qf", "diag", "isotropy"]),
    (2, ["nc", "eval", "--poly", "eval", "--matrices", "[[[1]]]"]),
]

GRAM = {"matrix": [["0", "X"], ["X", "0"]]}
CERT = {"g": "1", "h": "x1", "n": 2, "J": "orthogonal", "weights": [], "terms": {"": ["x1"]}}


@pytest.fixture
def in_tmp_path(monkeypatch, tmp_path):
    """Run in an empty directory holding GRAM as gram.json and CERT as cert.json."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gram.json").write_text(json.dumps(GRAM))
    (tmp_path / "cert.json").write_text(json.dumps(CERT))


class TestPathParser:
    """main() parses a leaf's argv with the leaf's parser alone, and sends
    anything else through the full tree, build_parser(); either way it
    prints and parses exactly as the full tree does.  The texts are
    compared on the running interpreter, as argparse's wording differs
    between Python versions."""

    @pytest.mark.parametrize("argv, code", [
        # help at each level, spelled -h, --help and --he
        *by_code(0, ["--help"], ["-h"], ["qf", "--help"], ["nc", "--help"], ["qf", "--he"],
                 ["qf", "-h", "diag"],
                 *([*leaf, flag] for flag in ("--help", "-h", "--he") for leaf in LEAVES)),
        # a missing, or an unknown, group, leaf or scenario
        *by_code(2, [], ["qf"], ["nc"], ["scenario"], ["bogus"], ["bogus", "diag"],
                 ["qf", "bogus"], ["nc", "bogus"], ["scenario", "nope"], ["--", "qf", "diag"]),
        # a leaf with no arguments
        *by_code(2, *(list(leaf) for leaf in LEAVES if leaf != ("scenario",))),
        # an unknown option, at each level
        *by_code(2, ["--nosuch"], ["qf", "--nosuch"], ["qf", "isotropy", "1", "--weak", "--bad"],
                 ["nc", "falsify", "--poly", "x1", "--n", "2", "--nosuch"],
                 ["qf", "isotropy", "--we", "1", "-X"]),
        # a missing required option or value
        *by_code(2, ["qf", "signature", "1"], ["nc", "eval", "--poly", "x1"],
                 ["nc", "identity", "--poly"], ["qf", "signature", "1", "--ordering"]),
        # a bad choice or number
        *by_code(2, ["qf", "diag", "--output", "xml"],
                 ["nc", "central", "--poly", "x1", "--n", "2", "--type", "unitary"],
                 ["qf", "signature", "--ordering", "xx", "1"],
                 ["qf", "signature", "--ordering=+x", "1"],
                 ["nc", "falsify", "--poly", "x1", "--n", "two"]),
        # an extra argument, after the end-of-options marker too
        *by_code(2, ["scenario", "thm3.2", "--", "extra"], ["nc", "verify-cert", "a", "--", "b"],
                 ["qf", "diag", "diag", "--json", "f", "--", "1"],
                 ["scenario", "thm3.2", "scenario"]),
        *(param for code, argv in PARSED for param in by_code(code, argv)),
    ])
    def test_same_text_as_full_tree(self, capsys, monkeypatch, in_tmp_path, argv, code):
        def text(argv):
            code, out, err = outcome(capsys, argv)
            return code, re.sub(r'seconds"?: [0-9.e-]+', "seconds", out), err

        got = text(argv)
        monkeypatch.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
        assert got == text(argv)
        assert got[0] == code and "Traceback" not in got[2]

    @pytest.mark.parametrize("argv", [argv for _, argv in PARSED], ids=" ".join)
    def test_same_namespace_as_full_tree(self, argv):
        argv = cli._quote_ordering(argv)
        got = vars(cli._parse(argv))
        want = vars(cli.build_parser().parse_args(argv))
        # only the tree names the command it went through, and nothing reads it
        assert "command" not in got and "subcommand" not in got
        assert got == {k: v for k, v in want.items() if k not in ("command", "subcommand")}
        assert callable(got["func"])

    def test_parsers_built_per_call(self, capsys, monkeypatch, in_tmp_path):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)

        def count(argv):
            built.clear()
            outcome(capsys, argv)
            return len(built)

        cli.build_parser()
        assert len(built) == FULL_TREE
        # the leaf argvs of TestRepeatedMain and of the golden output tests
        scenarios = ["cor4.3", "ex-psd", "hall-identity", "lemma3.1", "prop4.1", "thm3.2",
                     "thm3.3", "thm4.7", "ex-psd --n 3", "thm4.7 --n 6 --seed 1"]
        for argv in [["scenario", "thm3.2", "--output", "json"], ["scenario", "thm3.2"],
                     ["qf", "signature", "--ordering", "--", "--output", "json", "--", "X", "Y"],
                     ["qf", "signature", "--ordering=+x", "X"], ["qf", "signature", "X"],
                     *(["scenario", *name.split(), "--output", "json"] for name in scenarios),
                     ["qf", "diag", "--json", "gram.json", "--output", "json"],
                     ["qf", "weak-rep-one", "X/2", "3/Y", "2", "--output", "json"]]:
            assert count(argv) == 1, built
        # help and errors above a leaf, and a leaf's leftover arguments
        assert count(["-h"]) == FULL_TREE
        assert count(["qf", "-h"]) == FULL_TREE
        assert count(["bogus"]) == FULL_TREE
        assert count(["scenario", "thm3.2", "--", "extra"]) == 1 + FULL_TREE

    @pytest.mark.parametrize("argv", [
        ["scenario", "thm3.2", "--", "extra"],
        ["qf", "isotropy", "1", "--weak", "--bad"],
        ["qf", "diag", "diag", "--json", "f", "--", "1"],
    ], ids=" ".join)
    def test_leftover_arguments_are_the_top_levels_error(self, capsys, argv):
        # the leaf's parser alone would print its own usage line
        code, out, err = outcome(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("usage: hermsq [-h]")
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("argv, wording", [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice"),
    ], ids=["(none)", "bogus"])
    def test_top_level_error_names_the_command_argument(self, capsys, argv, wording):
        # the full tree's own wording, which the comparison above cannot
        # check: a metavar on the top level would rename the argument
        code, _, err = outcome(capsys, argv)
        assert code == 2 and wording in err


class TestRepeatedMain:
    """Two main() calls in one process share no state: every call starts
    from the parser's defaults."""

    def test_output_option_does_not_leak(self, capsys):
        code, out, _ = run(capsys, "scenario", "thm3.2", "--output", "json")
        assert code == 0 and json.loads(out)["confirmed"] is True
        code, out, _ = run(capsys, "scenario", "thm3.2")
        assert code == 0 and out.startswith("scenario: thm3.2\n")
        assert "confirmed: True" in out

    def test_ordering_does_not_leak(self, capsys):
        code, out, _ = run(capsys, "qf", "signature", "--ordering", "--",
                           "--output", "json", "--", "X", "Y")
        assert code == 0 and json.loads(out) == {"ordering": "--", "signature": -2}
        with pytest.raises(SystemExit) as exc:
            main(["qf", "signature", "--ordering=+x", "X"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["qf", "signature", "X"])   # no --ordering
        assert exc.value.code == 2


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

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_ex_psd_bad_size_is_error(self, capsys, monkeypatch, n):
        # rejected before the algebra is built; n = 0 used to run n = 2
        def build(*args, **kwargs):
            raise AssertionError("algebra built for a bad size")
        monkeypatch.setattr("hermsq.scenarios.AlgebraWithInvolution", build)
        code, out, err = run(capsys, "scenario", "ex-psd", "--n", n)
        assert code == 2
        assert out == ""
        assert "n >= 1" in err

    @pytest.mark.parametrize("name, n, cap, builder", [
        ("thm4.7", "26", "24", "symplectic_minus_one"),
        ("ex-psd", "11", "10", "AlgebraWithInvolution"),
    ])
    def test_size_over_cap_is_input_error(self, capsys, monkeypatch, name, n, cap, builder):
        # rejected before any work starts
        def build(*args, **kwargs):
            raise AssertionError("work started for a size over the cap")
        monkeypatch.setattr(f"hermsq.scenarios.{builder}", build)
        code, out, err = run(capsys, "scenario", name, "--n", n)
        assert code == 2
        assert out == ""
        assert f"size {n} exceeds the cap {cap}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, option", [
        ("lemma3.1", ["--n", "7"]),
        ("thm3.2", ["--seed", "3"]),
        ("ex-psd", ["--seed", "3"]),
        ("hall-identity", ["--n", "2", "--seed", "1"]),
    ])
    def test_unread_option_is_input_error(self, capsys, monkeypatch, name, option):
        # rejected before any work starts
        def work(options):
            raise AssertionError("scenario ran with an option it does not read")
        monkeypatch.setitem(hermsq.scenarios.SCENARIOS, name, work)
        code, out, err = run(capsys, "scenario", name, *option)
        assert code == 2
        assert out == ""
        assert "takes no option" in err
        assert "Traceback" not in err

    def test_ex_psd_sizes(self, capsys):
        for n in ("1", "3"):
            code, doc, _ = run_json(capsys, "scenario", "ex-psd", "--n", n)
            assert code == 0
            assert doc["n"] == int(n)

    def test_unknown_scenario_is_parse_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenario", "nope"])
