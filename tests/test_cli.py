import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest

from modhadamard import (
    cli,
    constructions,
    decide,
    existence,
    materialize,
    matrices,
    numtheory,
    plan,
    search,
)

RECIPE_SCHEMA = json.loads(
    resources.files("modhadamard.data").joinpath("recipe.schema.json").read_text()
)
VERDICT_SCHEMA = json.loads(
    resources.files("modhadamard.data").joinpath("verdict.schema.json").read_text()
)
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# a child interpreter imports the package from the source tree, as the
# test process does through pytest's pythonpath
SOURCE_ENV = dict(os.environ, PYTHONPATH=str(PYPROJECT.parent / "src"))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "decide", "57", "7")
    assert code == 0
    assert "Exists" in out
    code, out, _ = run_cli(capsys, "decide", "13", "7")
    assert code == 1
    assert "QuadNonResidue" in out
    code, out, _ = run_cli(capsys, "decide", "29", "7")
    assert code == 2
    assert "n = 1 (mod 14) but n < 43" in out


def test_decide_json_validates(capsys):
    for n, m in [(57, 7), (13, 7), (29, 7), (20, 5), (15, 7)]:
        code, out, _ = run_cli(capsys, "decide", str(n), str(m), "--format", "json")
        doc = json.loads(out)
        jsonschema.validate(doc, VERDICT_SCHEMA)
        assert doc["n"] == n and doc["m"] == m
        assert {0: "Exists", 1: "NotExists", 2: "Unknown"}[code] == doc["status"]


def test_construct_verify_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "construct", "57", "7")
    assert code == 0
    path = tmp_path / "h57.txt"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert "PASS" in out


def test_construct_round_trip_many(capsys, tmp_path):
    for n, m in [(20, 5), (26, 5), (57, 7), (48, 7), (12, 2), (118, 7)]:
        code, out, _ = run_cli(capsys, "construct", str(n), str(m))
        assert code == 0
        path = tmp_path / ("h%d_%d.txt" % (n, m))
        path.write_text(out)
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0, (n, m)


def test_construct_unknown_order(capsys):
    code, out, _ = run_cli(capsys, "construct", "15", "7")
    assert code == 2
    assert "no construction" in out


def test_construct_json_recipe_validates(capsys):
    code, out, _ = run_cli(capsys, "construct", "57", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc["recipe"], RECIPE_SCHEMA)
    assert doc["materialized"] is True
    rows = doc["matrix"]
    assert len(rows) == 57 and all(len(r) == 57 for r in rows)


def test_construct_symbolic_when_capped(capsys):
    code, out, err = run_cli(
        capsys, "construct", "57", "7", "--materialize-cap", "16"
    )
    assert code == 0
    doc = json.loads(out)  # text mode falls back to the recipe tree on one line
    jsonschema.validate(doc, RECIPE_SCHEMA)
    assert "cap" in err


def test_verify_failure_exit(capsys, tmp_path):
    bad = "4 3\n++++\n++++\n++++\n++-+\n"
    path = tmp_path / "bad.txt"
    path.write_text(bad)
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "FAIL" in out


def test_verify_design_file(capsys, tmp_path):
    from modhadamard import DesignParams, catalog_design, format_matrix_text

    D, params = catalog_design("fano_7_3_1")
    path = tmp_path / "fano.txt"
    path.write_text(format_matrix_text(D, params=params))
    code, out, _ = run_cli(capsys, "verify-design", str(path))
    assert code == 0
    assert out == "design: PASS\n"
    # the plain verify command dispatches on the header too
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify-design", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "kind": "design", "lambda": 1, "k": 3, "m": 0, "v": 7, "verified": True
    }
    # verify-design accepts design files only
    sign = tmp_path / "h4.txt"
    sign.write_text("4 0\n++++\n+-+-\n++--\n+--+\n")
    code, out, err = run_cli(capsys, "verify-design", str(sign))
    assert code == 11 and out == ""
    assert "not a design file" in err
    # a modulus after the file replaces the header's, for a design as for a
    # sign matrix: with k = 1 and lambda = 3 the Fano plane holds mod 2 only
    mod2 = tmp_path / "fano_mod2.txt"
    mod2.write_text(format_matrix_text(D, params=DesignParams(7, 1, 3, 0)))
    code, out, _ = run_cli(capsys, "verify", str(mod2))
    assert code == 1 and out == "design: FAIL\n"
    code, out, _ = run_cli(capsys, "verify", str(mod2), "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "kind": "design", "lambda": 3, "k": 1, "m": 2, "v": 7, "verified": True
    }


def test_cached_parser_carries_no_state_between_calls(capsys, tmp_path):
    # one parser serves every call in a process: an optional positional or a
    # subcommand default from one call must not reach the next
    assert cli._build_parser() is cli._build_parser()
    code, out, _ = run_cli(capsys, "construct", "1001", "7")
    assert code == 0
    assert out == "1001 7\n" + ("+" * 1001 + "\n") * 1001
    path = tmp_path / "h1001.txt"
    path.write_text(out)
    sign = str(path)
    code, out, _ = run_cli(capsys, "verify", sign, "11", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"kind": "matrix", "m": 11, "n": 1001, "verified": True}
    code, out, _ = run_cli(capsys, "verify", sign, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"kind": "matrix", "m": 7, "n": 1001, "verified": True}
    code, out, err = run_cli(capsys, "verify-design", sign)
    assert code == 11 and out == ""
    assert "input is not a design file" in err
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])
    assert exc.value.code == 10
    assert "the following arguments are required: file" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "decide", "57", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, VERDICT_SCHEMA)
    assert (doc["n"], doc["m"], doc["status"]) == (57, 7, "Exists")
    code, out, _ = run_cli(capsys, "verify", sign)
    assert (code, out) == (0, "matrix: PASS\n")


def test_search_command(capsys):
    code, out, _ = run_cli(capsys, "search", "11", "5", "--mode", "restricted")
    assert code == 1
    assert "165" in out
    code, out, _ = run_cli(capsys, "search", "4", "2")
    assert code == 0

    code, out, _ = run_cli(
        capsys, "search", "11", "5", "--mode", "restricted", "--format", "json"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["exhausted"] is True
    assert doc["candidate_row_count"] == 165


def test_search_count_json(capsys):
    code, out, _ = run_cli(
        capsys, "search", "10", "3", "--goal", "count", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["solutions"] == 1270 and doc["exhausted"] is True
    # the lex-least witness, as the unreduced traversal finds it
    assert doc["found"] == [
        "++++++++++", "+--+++++++", "+-+-++++++", "+-++-+++++", "+-+++-++++",
        "+-++++-+++", "+-+++++-++", "+-++++++-+", "+-+++++++-", "++--------",
    ]


def test_search_count_json_dense_instance(capsys):
    # every two of the 128 candidate rows are compatible: closed-form count
    code, out, _ = run_cli(
        capsys, "search", "8", "2", "--goal", "count", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["solutions"] == 131254487936 and doc["exhausted"] is True


def test_search_found_witness_verifies(capsys):
    code, out, _ = run_cli(capsys, "search", "8", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is not None
    assert len(doc["found"]) == 8


def test_nonexist_command(capsys):
    code, out, _ = run_cli(capsys, "nonexist", "15", "7")
    assert code == 1
    assert "88592" in out
    code, out, _ = run_cli(capsys, "nonexist", "20", "5")
    assert code == 2

    code, out, _ = run_cli(capsys, "nonexist", "11", "5", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["established"] is True
    assert doc["delta_test"]["Delta"] == 24400


def test_nonexist_is_decides_gate_verdict(capsys):
    # nonexist walks decide's gates, so it refutes exactly what decide
    # refutes
    parser = cli._build_parser()
    for m in range(2, 31):
        for n in range(3, 201):
            args = parser.parse_args(["nonexist", str(n), str(m), "--format", "json"])
            code = args.func(args)
            doc = json.loads(capsys.readouterr().out)
            refuted = decide(n, m).status == "NotExists"
            assert doc["established"] is refuted, (n, m)
            assert code == (1 if refuted else 2), (n, m)
    # the Delta test is shown for information only: it yields to nothing,
    # and J - 2I (n = m + 4) and J - 2N of PG(2, 5) pass the switching gate
    words = {(7, 3): "admissible", (11, 7): "inadmissible", (31, 11): "inadmissible"}
    for (n, m), word in words.items():
        code, out, _ = run_cli(capsys, "nonexist", str(n), str(m))
        assert code == 2, (n, m)
        assert "  switching: no obstruction\n" in out
        assert ": %s\n" % word in out and "yields" not in out, (n, m)
        assert "established: no" in out
        code, out, _ = run_cli(capsys, "nonexist", str(n), str(m), "--format", "json")
        doc = json.loads(out)
        assert doc["switching"] is None and "yields" not in out, (n, m)
        assert doc["delta_test"]["admissible"] is (word == "admissible")
    code, out, _ = run_cli(capsys, "nonexist", "15", "7")
    assert code == 1
    assert "  switching: nm + n - m = 113 is not a square\n" in out
    code, out, _ = run_cli(capsys, "nonexist", "15", "7", "--format", "json")
    assert code == 1
    assert json.loads(out)["switching"] == "nm + n - m = 113 is not a square"
    code, out, _ = run_cli(capsys, "nonexist", "27", "7")
    assert code == 1
    assert "quadratic residue: n mod m is a quadratic nonresidue" in out
    code, out, _ = run_cli(capsys, "nonexist", "27", "7", "--format", "json")
    assert json.loads(out)["quadratic_residue"] == "n mod m is a quadratic nonresidue"


def test_condition1_table(capsys):
    code, out, _ = run_cli(capsys, "condition1", "11", "5")
    assert code == 0
    assert "292561" in out

    code, out, _ = run_cli(capsys, "condition1", "11", "5", "--format", "json")
    doc = json.loads(out)
    assert doc["missing"] == []
    assert doc["rows"][0]["q"] == 23
    assert doc["rows"][0]["d"] == 5
    assert doc["rows"][0]["r"] == 292561


def test_condition1_missing_witness(capsys):
    code, out, _ = run_cli(
        capsys, "condition1", "3", "1", "--q-limit", "5", "--d-limit", "1"
    )
    assert code == 2


def test_condition1_witness_verified_once(capsys, monkeypatch):
    # condition1_search returns only witnesses that condition1_verify built;
    # the CLI does not check them again
    real = numtheory.condition1_verify
    calls = []

    def counting(p, q, d):
        calls.append((q, d))
        return real(p, q, d)

    for mod in (numtheory, cli):
        if hasattr(mod, "condition1_verify"):
            monkeypatch.setattr(mod, "condition1_verify", counting)
    numtheory.condition1_search(7, 3, 3000, 400)
    searched = list(calls)
    assert searched[-1] == (71, 3)
    calls.clear()
    code, out, _ = run_cli(capsys, "condition1", "7", "3")
    assert code == 0
    assert calls == searched
    assert out == (
        "condition-1 witnesses for p = 7 (q <= 3000, d <= 400):\n"
        "  delta     q     d  r\n"
        "      3    71     3  5113\n"
    )


def test_design_params_command(capsys):
    code, out, _ = run_cli(capsys, "design-params", "11", "23", "3")
    assert code == 0
    assert "25439" in out

    code, out, _ = run_cli(
        capsys, "design-params", "10", "29", "5", "6", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["r"] == 732541
    assert doc["v"] == "4481157543653329008412788039760691035"


def test_design_params_constraints(capsys):
    code, out, _ = run_cli(
        capsys, "design-params", "10", "29", "5", "6",
        "--p", "7", "--n", "40", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["constraints"] == {
        "parity": True,
        "v_mod_p": True,
        "k_mod_p": True,
        "lambda_mod_p": True,
    }


def test_design_params_bad_moduli_exit_11(capsys):
    # a zero parity modulus, p = 1 and an even p are domain errors
    for extra in (("--p", "7", "--parity", "0", "1"), ("--p", "1"), ("--p", "2")):
        code, out, err = run_cli(
            capsys, "design-params", "10", "2", "2", "6", "--n", "5", *extra
        )
        assert code == 11 and out == "", extra
        assert "error:" in err and "internal error" not in err, extra


def test_design_params_constraint_flags_need_p(capsys):
    for extra in (("--n", "5", "--parity", "0", "1"), ("--n", "5"), ("--parity", "4", "3")):
        code, out, err = run_cli(capsys, "design-params", "10", "2", "2", "6", *extra)
        assert code == 11 and out == "", extra
        assert "error:" in err and "internal error" not in err, extra


def test_usage_errors_exit_10(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["decide", "57"])
    assert exc.value.code == 10
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["nosuchcommand"])
    assert exc.value.code == 10
    capsys.readouterr()


def test_domain_errors_exit_11(capsys):
    code, _, err = run_cli(capsys, "decide", "2", "5")
    assert code == 11
    assert "error:" in err
    code, _, err = run_cli(capsys, "search", "30", "5")
    assert code == 11
    # an order below 2 is an error, not a refutation (exit 1)
    for n, m in (("1", "5"), ("0", "5"), ("-4", "3")):
        code, out, err = run_cli(capsys, "search", n, m)
        assert code == 11, n
        assert "error: order must be >= 2" in err
        assert "exhausted" not in out


def test_search_modulus_below_two_exits_11(capsys):
    # an invalid modulus is an error, not a refutation (exit 1)
    for m in ("1", "0", "-3"):
        for mode in ("generic", "restricted"):
            code, out, err = run_cli(capsys, "search", "7", m, "--mode", mode)
            assert code == 11, (m, mode)
            assert "error: modulus must be >= 2" in err
            assert "exhausted" not in out


def test_env_var_caps(capsys, monkeypatch):
    monkeypatch.setenv("MODHADAMARD_MATERIALIZE_CAP", "16")
    code, out, err = run_cli(capsys, "construct", "57", "7")
    assert code == 0
    assert "cap" in err  # symbolic output, the env cap applied
    monkeypatch.setenv("MODHADAMARD_MATERIALIZE_CAP", "0")
    code, _, err = run_cli(capsys, "construct", "57", "7")
    assert code == 11
    # decide builds no matrix, so it reads no materialize cap and takes no flag
    code, out, err = run_cli(capsys, "decide", "57", "7")
    assert code == 0 and out.startswith("MH(57, 7): Exists") and err == ""
    with pytest.raises(SystemExit) as exc:
        cli.main(["decide", "57", "7", "--materialize-cap", "5"])
    assert exc.value.code == 10


def test_caps_read_only_by_commands_that_take_them(capsys, monkeypatch, tmp_path):
    path = tmp_path / "h.txt"
    path.write_text(matrices.format_matrix_text(materialize(plan(11, 7)), 7))
    argvs = [
        ("verify", str(path)),
        ("nonexist", "15", "7"),
        ("design-params", "10", "2", "2", "6"),
    ]
    clean = [run_cli(capsys, *argv) for argv in argvs]
    assert [code for code, _, _ in clean] == [0, 1, 0]
    monkeypatch.setenv("MODHADAMARD_Q_LIMIT", "0")
    monkeypatch.setenv("MODHADAMARD_MATERIALIZE_CAP", "0")
    assert [run_cli(capsys, *argv) for argv in argvs] == clean


def test_zero_limits_exit_11(capsys, monkeypatch):
    # an explicit 0 is rejected, not replaced by the default
    for flag in ("--q-limit", "--d-limit"):
        code, out, err = run_cli(capsys, "condition1", "3", "1", flag, "0")
        assert code == 11 and out == ""
        assert "caps must be positive" in err
    for name in ("MODHADAMARD_Q_LIMIT", "MODHADAMARD_D_LIMIT"):
        monkeypatch.setenv(name, "0")
        code, out, err = run_cli(capsys, "condition1", "3", "1")
        assert code == 11 and out == ""
        assert "caps must be positive" in err
        monkeypatch.delenv(name)


def test_internal_errors_exit_11(capsys, monkeypatch):
    # a witness or certificate that fails its own check is a fault of the
    # program and must not read as "does not exist" (exit 1)
    def failing(*args):
        return SimpleNamespace(verdict=False)

    monkeypatch.setattr(search, "verify_mh", failing)
    code, _, err = run_cli(capsys, "search", "4", "2")
    assert code == 11
    assert "search produced an invalid witness" in err
    monkeypatch.setattr(constructions, "verify_mh", failing)
    code, _, err = run_cli(capsys, "construct", "57", "7")
    assert code == 11
    assert "materialized matrix fails verification" in err


def test_any_crash_exits_11(capsys, monkeypatch):
    # an exception no handler names is a crash, and exit 1 would read as
    # "does not exist"
    def crash(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "decide", crash)
    code, out, err = run_cli(capsys, "decide", "57", "7")
    assert code == 11 and out == ""
    assert "internal error:" in err and "KeyError" in err


def test_decide_small_even_order_runs_no_search(capsys):
    # even n < lcm(2, m) with 4 not dividing n is refuted by a gate, with
    # no search and no flag to ask for one
    code, out, _ = run_cli(capsys, "decide", "6", "10")
    assert code == 1
    assert out.startswith("MH(6, 10): NotExists (SmallEvenRealHadamard)")
    code, out, _ = run_cli(capsys, "nonexist", "6", "10", "--format", "json")
    assert code == 1 and json.loads(out)["established"] is True
    with pytest.raises(SystemExit) as exc:
        cli.main(["decide", "6", "10", "--search-cap", "10"])
    assert exc.value.code == 10


def test_decide_parameter_level_certificate_does_not_exit_1(capsys, monkeypatch):
    # the certificate of (52495, 7) extends by a design known only by its
    # parameters, so it cannot be built; it stays a symbolic certificate
    built = []
    real_build = constructions._build

    def counting_build(recipe):
        mat = real_build(recipe)
        built.append(recipe.node)
        return mat

    monkeypatch.setattr(constructions, "_build", counting_build)
    code, out, err = run_cli(capsys, "decide", "52495", "7")
    assert code == 0 and err == ""
    assert "Exists (Constructed)" in out and "ParamDesign" in out
    # construct prints the recipe and says why it built no matrix, at a
    # cap that admits the order
    code, out, err = run_cli(
        capsys, "construct", "52495", "7", "--materialize-cap", "10000000000"
    )
    assert code == 0
    jsonschema.validate(json.loads(out), RECIPE_SCHEMA)
    assert "parameter level" in err
    assert built == []


def test_certificate_verified_once(capsys, monkeypatch):
    # a matrix is Gram-checked once, where it is produced (materialize or
    # search.run): no recipe node or the CLI checks it again, and decide,
    # whose certificate is a recipe, checks none
    real = matrices.verify_mh
    orders = []

    def counting(H, m, *rotations):
        orders.append(H.n)
        return real(H, m, *rotations)

    for mod in (matrices, constructions, existence, search, cli):
        if hasattr(mod, "verify_mh"):
            monkeypatch.setattr(mod, "verify_mh", counting)
    calls = [
        ([452], lambda: materialize(plan(452, 5))),
        ([], lambda: decide(57, 7)),
        ([8], lambda: run_cli(capsys, "search", "8", "2")),
    ]
    for checked, call in calls:
        call()  # loads and checks the cached seeds
        orders.clear()
        call()
        assert orders == checked


def test_python_dash_m_package():
    # without __main__.py, python -m also exits 1, so the output is checked
    out = subprocess.run(
        [sys.executable, "-m", "modhadamard", "decide", "13", "7"],
        env=SOURCE_ENV,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 1, out.stderr
    assert out.stdout.startswith("MH(13, 7): NotExists")


def test_console_script_installed():
    """The declared console script works, checked from the source tree.

    pip's generated wrapper imports the entry point and exits with what it
    returns; running that same call needs no install.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["modhadamard"] == "modhadamard.cli:main"

    out = subprocess.run(
        [sys.executable, "-m", "modhadamard.cli", "decide", "20", "5"],
        env=SOURCE_ENV,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0

    wrapper = "import sys; from modhadamard.cli import main; sys.exit(main())"
    for argv, code in [(["decide", "13", "7"], 1), (["decide", "20", "5"], 0)]:
        out = subprocess.run(
            [sys.executable, "-c", wrapper, *argv],
            env=SOURCE_ENV,
            capture_output=True,
            text=True,
        )
        assert out.returncode == code, (argv, out.stderr)


@pytest.mark.skipif(
    shutil.which("modhadamard") is None,
    reason="the modhadamard command is on PATH only after pip install",
)
def test_console_script_on_path():
    out = subprocess.run(
        ["modhadamard", "decide", "13", "7"], capture_output=True, text=True
    )
    assert out.returncode == 1
