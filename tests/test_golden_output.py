"""Exact printed output of the CLI and of `format_scalar`.

The expected values are literals recorded from the program, so any change
to the scalar representation, the canonical text or the JSON layout that
alters a single byte shows here.  JSON documents are compared as the exact
text `dumps` prints; a scenario's `seconds` is the one value taken from the
run itself.
"""

import json

import pytest

from hermsq.cli import main
from hermsq.jsonio import dumps
from hermsq.scalars import format_scalar, parse_scalar

SCENARIO_JSON = {
    "cor4.3":
        {"confirmed": True, "factors": 3, "scenario": "cor4.3", "target": "8", "witnesses": 8},
    "ex-psd":
        {"confirmed": True,
         "identity_gram": True,
         "n": 2,
         "psd_example": True,
         "scenario": "ex-psd",
         "sigma_orderings": ["++", "+-", "-+", "--"],
         "trace_is_sum_of_entry_squares": True},
    "hall-identity":
        {"central_nonvanishing_at_n2": True,
         "confirmed": True,
         "identity_at_n2": True,
         "identity_at_n3": False,
         "scenario": "hall-identity"},
    "lemma3.1":
        {"confirmed": True,
         "form": ["X", "Y", "X*Y"],
         "scenario": "lemma3.1",
         "weakly_represents_one": False},
    "prop4.1":
        {"cases": [{"case": "(-1,-1) conjugation",
                    "entries": ["2", "2", "2", "2"],
                    "verified": True},
                   {"case": "(-1,-3) conjugation",
                    "entries": ["2", "2", "6", "6"],
                    "verified": True},
                   {"case": "(-1,-1) Int(i) twist",
                    "entries": ["2", "2", "-2", "-2"],
                    "verified": True}],
         "confirmed": True,
         "scenario": "prop4.1"},
    "thm3.2":
        {"confirmed": True,
         "element": "X*Y",
         "entry_form": ["Y", "X", "1"],
         "positivity_witness_verified": True,
         "scenario": "thm3.2",
         "sigma_orderings": ["++"],
         "signatures": {"++": 9, "+-": 1, "-+": 1, "--": 1},
         "weakly_represents_one": False},
    "thm3.3":
        {"confirmed": True,
         "element": "X*Y",
         "entry_form": ["Y", "Y", "Y", "Y", "X", "X", "X", "X", "1", "1", "1", "1"],
         "positivity_witness_verified": True,
         "scenario": "thm3.3",
         "sigma_orderings": ["++"],
         "signatures": {"++": 36, "+-": 4, "-+": 4, "--": 4},
         "weakly_represents_one": False},
    "thm4.7":
        {"confirmed": True,
         "n": 4,
         "scenario": "thm4.7",
         "seed": 0,
         "witness": [["1", "0", "0", "0"],
                     ["0", "-1", "0", "0"],
                     ["0", "-8/3", "1", "0"],
                     ["-14/3", "0", "0", "-1"]]},
    "ex-psd --n 3":
        {"confirmed": True,
         "identity_gram": True,
         "n": 3,
         "psd_example": True,
         "scenario": "ex-psd",
         "sigma_orderings": ["++", "+-", "-+", "--"],
         "trace_is_sum_of_entry_squares": True},
    "thm4.7 --n 6 --seed 1":
        {"confirmed": True,
         "n": 6,
         "scenario": "thm4.7",
         "seed": 1,
         "witness": [["1", "0", "0", "0", "0", "0"],
                     ["0", "-1", "0", "0", "0", "0"],
                     ["0", "18/5", "1", "0", "0", "0"],
                     ["2", "0", "0", "-1", "0", "0"],
                     ["5/6", "23/30", "0", "-5/6", "1", "0"],
                     ["2", "-6/5", "-2/3", "0", "0", "-1"]]},
}

# scalars whose denominator has an integer content, which the text shows
# inside the numerator
FORMATTED = {
    "X/2 + 1/3": "1/2*X + 1/3",
    "(X/2)/(3*Y+6)": "(1/6*X)/(Y + 2)",
    "(2*X)/(4*Y)": "(1/2*X)/(Y)",
    "-3/4": "-3/4",
    "(X^2-Y^2)/(2*X+2*Y)": "-1/2*Y + 1/2*X",
}

GRAM = {"matrix": [["X/2", "1/3", "Y"],
                   ["1/3", "(X+Y)/(2*Y)", "0"],
                   ["Y", "0", "3/(4*X)"]]}

GRAM_DIAG_JSON = {
    "entries": [
        "1/2*X",
        "(1/2*X*Y + 1/2*X^2 - 2/9*Y)/(X*Y)",
        "(-18*X*Y^3 - 18*X^2*Y^2 + 27/4*X*Y + 27/4*X^2 - 3*Y)/(9*X^2*Y + 9*X^3 - 4*X*Y)",
    ],
    "transform": [
        ["1", "(-2/3)/(X)", "(-18*Y^2 - 18*X*Y)/(9*X*Y + 9*X^2 - 4*Y)"],
        ["0", "1", "(12*Y^2)/(9*X*Y + 9*X^2 - 4*Y)"],
        ["0", "0", "1"],
    ],
}

WEAK_REP_JSON = {"copies": 2, "vectors": [["0", "0", "1/2"], ["0", "0", "1/2"]],
                 "weakly_represents_one": True}


def run_json(capsys, *argv):
    code = main([*argv, "--output", "json"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("args", sorted(SCENARIO_JSON))
def test_scenario_json(capsys, args):
    code, out = run_json(capsys, "scenario", *args.split())
    assert code == 0
    seconds = json.loads(out)["seconds"]
    assert out == dumps({**SCENARIO_JSON[args], "seconds": seconds})


def test_gram_diagonalization_json(capsys, tmp_path):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(GRAM))
    code, out = run_json(capsys, "qf", "diag", "--json", str(path))
    assert code == 0
    assert out == dumps(GRAM_DIAG_JSON)


def test_weak_rep_one_rational_json(capsys):
    code, out = run_json(capsys, "qf", "weak-rep-one", "X/2", "3/Y", "2")
    assert code == 0
    assert out == dumps(WEAK_REP_JSON)


@pytest.mark.parametrize("text", sorted(FORMATTED))
def test_format_scalar(text):
    assert format_scalar(parse_scalar(text)) == FORMATTED[text]
