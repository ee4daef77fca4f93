"""The CLI's output pinned byte for byte: every payload's keys and values in
JSON, and every line of text, for the commands that print records."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from modhadamard import DesignParams, catalog_design, cli, format_matrix_text
from modhadamard.constructions import _MAX_RECIPE_DEPTH

# a child interpreter imports the package from the source tree
SOURCE_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

RECIPE_57_7 = (
    '{"args": [1], "children": [{"args": [], "children": [{"args": [11], "children": [], '
    '"kind": "mh", "modulus": 7, "node": "JMinus2I", "order": "11"}], "kind": "mh", '
    '"modulus": 14, "node": "Double", "order": "22"}, {"args": ["menon_36_15_6"], '
    '"children": [], "kind": "design", "modulus": 0, "node": "CatalogDesign", '
    '"order": "36"}], "kind": "mh", "modulus": 7, "node": "Iterate", "order": "57"}'
)
FAMILY10_29_5_6 = {
    "e": 6,
    "family": "10",
    "k": "154522462978431365278540076097249241",
    "lambda": "5328353518554150944364782752387260",
    "q": 29,
    "r": 732541,
    "r_is_prime_power": True,
    "repunit_degree": 5,
    "v": "4481157543653329008412788039760691035",
}
FAMILY10_29_5_6_TEXT = [
    "e: 6",
    "family: 10",
    "k: 154522462978431365278540076097249241",
    "lambda: 5328353518554150944364782752387260",
    "q: 29",
    "r: 732541",
    "r_is_prime_power: True",
    "repunit_degree: 5",
    "v: 4481157543653329008412788039760691035",
]
FAMILY11_23_3 = {"e": 3, "family": "11", "k": 12167, "lambda": 5819, "q": 23, "v": 25439}
FAMILY11_23_3_TEXT = ["e: 3", "family: 11", "k: 12167", "lambda: 5819", "q: 23", "v: 25439"]
CONSTRAINTS = {"k_mod_p": True, "lambda_mod_p": True, "parity": True, "v_mod_p": True}
CONSTRAINTS_TEXT = "constraints: parity=ok, v_mod_p=ok, k_mod_p=ok, lambda_mod_p=ok"
NO_GATE_FIRES = [
    "  gcd bound: no obstruction",
    "  quadratic residue: no obstruction",
    "  small even reduction: no conclusion",
    "  switching: no obstruction",
]
NO_FINDINGS = {"gcd_bound": None, "quadratic_residue": None, "small_even": None,
               "switching": None}
NOT_SQUARE = {"admissible": False, "applicable": True, "d_minus": None, "d_plus": None,
              "sqrt_Delta": None}

# (command, exit code, text lines, JSON payload, stderr), each command run
# with --format text and --format json; an error prints nothing on stdout
CASES = [
    (
        "search 11 5 --mode restricted", 1,
        ["search MH(11, 5) restricted/first: 165 candidates, 0 nodes",
         "exhausted: no matrix exists"],
        {"candidate_row_count": 165, "exhausted": True, "found": None, "goal": "first",
         "log": {}, "m": 5, "mode": "restricted", "n": 11, "nodes_visited": 0,
         "solutions": 0},
        "",
    ),
    (
        "search 7 3 --goal exhaust", 0,
        ["search MH(7, 3) generic/exhaust: 21 candidates, 5 nodes", "7 3", "+++++++",
         "--+++++", "-+-++++", "-++-+++", "-+++-++", "-++++-+", "-+++++-"],
        {"candidate_row_count": 21, "exhausted": True,
         "found": ["+++++++", "--+++++", "-+-++++", "-++-+++", "-+++-++", "-++++-+",
                   "-+++++-"],
         "goal": "exhaust", "log": {}, "m": 3, "mode": "generic", "n": 7,
         "nodes_visited": 5, "solutions": 1},
        "",
    ),
    (
        "condition1 7 3", 0,
        ["condition-1 witnesses for p = 7 (q <= 3000, d <= 400):",
         "  delta     q     d  r",
         "      3    71     3  5113"],
        {"d_limit": 400, "missing": [], "p": 7, "q_limit": 3000,
         "rows": [{"d": 3, "delta": 3, "probabilistic": False, "q": 71, "r": 5113,
                   "r_base": 5113, "r_exponent": 1}]},
        "",
    ),
    (
        "condition1 3 1 --q-limit 5 --d-limit 1", 2,
        ["condition-1 witnesses for p = 3 (q <= 5, d <= 1):",
         "  delta     q     d  r",
         "      1  not found within limits"],
        {"d_limit": 1, "missing": [1], "p": 3, "q_limit": 5, "rows": []},
        "",
    ),
    ("design-params 10 29 5 6", 0, FAMILY10_29_5_6_TEXT, FAMILY10_29_5_6, ""),
    (
        "design-params 10 29 5 6 --p 7 --n 40", 0,
        [CONSTRAINTS_TEXT] + FAMILY10_29_5_6_TEXT,
        dict(FAMILY10_29_5_6, constraints=CONSTRAINTS),
        "",
    ),
    ("design-params 11 23 3", 0, FAMILY11_23_3_TEXT, FAMILY11_23_3, ""),
    (
        "design-params 11 23 3 --p 7 --n 24", 0,
        [CONSTRAINTS_TEXT] + FAMILY11_23_3_TEXT,
        dict(FAMILY11_23_3, constraints=CONSTRAINTS),
        "",
    ),
    ("design-params 10 29 5", 11, [], None, "error: family 10 needs three arguments: q d e\n"),
    ("design-params 11 23 3 4", 11, [], None, "error: family 11 needs two arguments: q e\n"),
    (
        "nonexist 7 3", 2,
        ["nonexistence tests for MH(7, 3):"] + NO_GATE_FIRES
        + ["  Delta = 3600 = 60^2, d+ = 5, d- = 0: admissible", "established: no"],
        {"delta_test": {"Delta": 3600, "admissible": True, "applicable": True,
                        "d_minus": "0", "d_plus": "5",
                        "row_profile": {"a": "1", "alpha_count": 5,
                                        "b_minus_c_offset": "1", "beta_count": 1},
                        "sqrt_Delta": 60},
         "established": False, "m": 3, "n": 7, **NO_FINDINGS},
        "",
    ),
    (
        "nonexist 11 5", 1,
        ["nonexistence tests for MH(11, 5):",
         "  gcd bound: r = 4 forces n >= 16, but n = 11",
         "  quadratic residue: no obstruction",
         "  small even reduction: no conclusion",
         "  switching: n = 11 != m = 5 (mod 4)",
         "  Delta = 24400 (not a perfect square): inadmissible",
         "established: yes"],
        {"delta_test": dict(NOT_SQUARE, Delta=24400), "established": True, "m": 5, "n": 11,
         **dict(NO_FINDINGS, gcd_bound="r = 4 forces n >= 16, but n = 11",
                switching="n = 11 != m = 5 (mod 4)")},
        "",
    ),
    (
        "nonexist 20 5", 2,
        ["nonexistence tests for MH(20, 5):"] + NO_GATE_FIRES
        + ["  Delta test: not applicable (need odd n < 3m with gcd(n,m) = 1)",
           "established: no"],
        {"delta_test": {"applicable": False, "why": "need odd n < 3m with gcd(n,m) = 1"},
         "established": False, "m": 5, "n": 20, **NO_FINDINGS},
        "",
    ),
    (
        "nonexist 15 7", 1,
        ["nonexistence tests for MH(15, 7):"] + NO_GATE_FIRES[:3]
        + ["  switching: nm + n - m = 113 is not a square",
           "  Delta = 88592 (not a perfect square): inadmissible",
           "established: yes"],
        {"delta_test": dict(NOT_SQUARE, Delta=88592), "established": True, "m": 7, "n": 15,
         **dict(NO_FINDINGS, switching="nm + n - m = 113 is not a square")},
        "",
    ),
    (
        "verify-design {fano}", 0, ["design: PASS"],
        {"k": 3, "kind": "design", "lambda": 1, "m": 0, "v": 7, "verified": True},
        "",
    ),
    (
        "verify-design {bad}", 1, ["design: FAIL"],
        {"k": 3, "kind": "design", "lambda": 2, "m": 0, "v": 7, "verified": False},
        "",
    ),
    (
        "decide 57 7", 0,
        ["MH(57, 7): Exists (Constructed)", "  conjecture predicts: exists",
         "  recipe: " + RECIPE_57_7],
        {"certificate": {"kind": "recipe", "recipe": json.loads(RECIPE_57_7)},
         "conjecture_prediction": True, "m": 7, "n": 57, "reason": "Constructed",
         "status": "Exists"},
        "",
    ),
    (
        "decide 13 7", 1,
        ["MH(13, 7): NotExists (QuadNonResidue)", "  conjecture predicts: does not exist"],
        {"conjecture_prediction": False, "m": 7, "n": 13, "reason": "QuadNonResidue",
         "status": "NotExists"},
        "",
    ),
    (
        "decide 29 7", 2,
        ["MH(29, 7): Unknown (ThresholdNotMet)", "  threshold: n = 1 (mod 14) but n < 43",
         "  conjecture predicts: exists"],
        {"conjecture_prediction": True, "m": 7, "n": 29, "reason": "ThresholdNotMet",
         "status": "Unknown", "threshold_note": "n = 1 (mod 14) but n < 43"},
        "",
    ),
]


@pytest.fixture(scope="module")
def design_files(tmp_path_factory):
    # the Fano plane, and the same rows under a header with lambda = 2
    D, params = catalog_design("fano_7_3_1")
    files = {}
    for name, p in (("fano", params), ("bad", DesignParams(7, 3, 2, 0))):
        files[name] = tmp_path_factory.mktemp("designs") / (name + ".txt")
        files[name].write_text(format_matrix_text(D, params=p))
    return files


@pytest.mark.parametrize("command, code, text, payload, err", CASES, ids=[c[0] for c in CASES])
def test_cli_output_is_pinned(capsys, design_files, command, code, text, payload, err):
    argv = command.format(**design_files).split()
    for fmt, want in (("text", "".join(line + "\n" for line in text)),
                      ("json", "" if payload is None else json.dumps(payload, sort_keys=True)
                       + "\n")):
        got = cli.main(argv + ["--format", fmt])
        captured = capsys.readouterr()
        assert (got, captured.out, captured.err) == (code, want, err), fmt


def _decide(n, fmt):
    return subprocess.run(
        [sys.executable, "-m", "modhadamard", "decide", str(n), "9", "--format", fmt],
        capture_output=True, text=True, env=SOURCE_ENV, timeout=120,
    )


def test_decide_prints_every_certificate_up_to_the_depth_bound():
    # plan(3 * 2^k, 9) is k - 17 levels deep; in a verdict each level is two
    # JSON levels, and the encoder must not reach Python's recursion limit
    k = _MAX_RECIPE_DEPTH + 17
    for fmt in ("text", "json"):
        proc = _decide(3 * 2**k, fmt)
        assert proc.returncode == 0 and proc.stderr == "", fmt
        if fmt == "json":
            doc = json.loads(proc.stdout)
            assert doc["n"] == str(3 * 2**k)
            node, depth = doc["certificate"]["recipe"], 1
            while node["children"]:
                (node,) = node["children"]
                depth += 1
            assert depth == _MAX_RECIPE_DEPTH
        # one level past it is refused, never an internal error (the text
        # form has printed its status line by then)
        proc = _decide(3 * 2 ** (k + 1), fmt)
        assert proc.returncode == 11, fmt
        assert proc.stderr == "error: recipe is more than %d levels deep\n" % (
            _MAX_RECIPE_DEPTH
        ), fmt


def test_cli_json_big_integers_are_strings(capsys, tmp_path):
    # an order or modulus past 2^53 goes out as a string in every command
    big = str(2**53 + 1)
    h4 = tmp_path / "h4.txt"
    h4.write_text("4 0\n++++\n+-+-\n++--\n+--+\n")
    for argv, key in (
        (["decide", big, "7"], "n"),
        (["nonexist", big, "7"], "n"),
        (["nonexist", "9", big], "m"),
        (["search", "5", big], "m"),
        (["construct", "9", big], "m"),
        (["verify", str(h4), big], "m"),
    ):
        cli.main(argv + ["--format", "json"])
        assert json.loads(capsys.readouterr().out)[key] == big, argv
