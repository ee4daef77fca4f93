"""The package's records: fields, defaults, immutability, repr, equality
per type, and the validators; and an import that stays lean."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from modhadamard import (
    Condition1Witness,
    DesignParams,
    GramReport,
    IncidenceMatrix,
    PrimePower,
    SearchOutcome,
    SearchProblem,
    SignMatrix,
    SmallCaseReport,
    Verdict,
    j_minus_2i,
    verify_mh,
)
from modhadamard.constructions import Family10Params, Family11Params, Recipe

ROOT = Path(__file__).resolve().parents[1]

_ONES = Recipe("AllOnes", (3,), (), 3, 3, "mh")

# (record, field names in order, values, defaults of the trailing fields)
CASES = [
    (PrimePower, "base exponent probabilistic", (3, 2, True), {"probabilistic": False}),
    (
        Condition1Witness,
        "p delta q d r r_base r_exponent probabilistic",
        (3, 1, 7, 4, 400, 20, 2, False),
        {},
    ),
    (SignMatrix, "n rows", (2, (0, 2)), {}),
    (IncidenceMatrix, "v rows", (2, (1, 3)), {}),
    (DesignParams, "v k lam modulus", (7, 3, 1, 0), {}),
    (GramReport, "modulus verdict", (3, False), {}),
    (
        Family10Params,
        "q d e r v k lam r_is_prime_power",
        (3, 2, 1, 4, 13, 4, 1, True),
        {},
    ),
    (Family11Params, "q e v k lam", (3, 1, 7, 3, 1), {}),
    (Recipe, "node args children order modulus kind", ("Double", (), (_ONES,), 6, 6, "mh"), {}),
    (
        Verdict,
        "n m status reason certificate conjecture_prediction threshold_note",
        (3, 3, "Exists", "Construction", _ONES, True, "note"),
        {"reason": None, "certificate": None, "conjecture_prediction": None, "threshold_note": None},
    ),
    (
        SmallCaseReport,
        "n m Delta sqrt_Delta d_plus d_minus admissible row_profile",
        (7, 3, 4, 2, Fraction(5, 2), Fraction(1, 2), True, (2, 5)),
        {},
    ),
    (
        SearchProblem,
        "n m mode goal symmetry",
        (13, 5, "restricted", "exhaust", False),
        {"mode": "generic", "goal": "first", "symmetry": True},
    ),
    (
        SearchOutcome,
        "found exhausted nodes_visited candidate_row_count solutions log",
        (None, True, 12, 4, 0, {"branches": []}),
        {"solutions": 0, "log": {}},
    ),
]

@pytest.mark.parametrize("cls, names, values, defaults", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_semantics(cls, names, values, defaults):
    names = names.split()
    rec = cls(*values)
    assert [getattr(rec, name) for name in names] == list(values)
    assert cls(**dict(zip(names, values))) == rec
    required = len(names) - len(defaults)
    bare = cls(*values[:required])
    assert {name: getattr(bare, name) for name in names[required:]} == defaults

    with pytest.raises(AttributeError):
        setattr(rec, names[0], values[0])
    with pytest.raises(AttributeError):
        rec.not_a_field = 1

    assert repr(rec) == "%s(%s)" % (
        cls.__name__,
        ", ".join("%s=%r" % (name, getattr(rec, name)) for name in names),
    )

    twin = cls(*values)
    assert twin == rec and not twin != rec
    if cls is not SearchOutcome:  # its log is a dict
        assert hash(twin) == hash(rec)

    plain = tuple(values)
    assert rec != plain and plain != rec
    assert not rec == plain and not plain == rec


def test_equality_is_per_type():
    rows = (0, 3, 5)
    sign, incidence = SignMatrix(3, rows), IncidenceMatrix(3, rows)
    assert sign != incidence and incidence != sign
    assert not sign == incidence and not incidence == sign
    assert SignMatrix(3, rows) == sign and IncidenceMatrix(3, rows) == incidence


def test_gram_report_rows_and_cached_residues():
    # a report holds neither the rows nor a residue histogram, only its
    # two fields; offdiag_residues(H, m) counts the residues on each call
    a = verify_mh(j_minus_2i(11), 7)
    assert a == GramReport(7, True) and hash(a) == hash(GramReport(7, True))
    assert a != GramReport(7, False)
    assert GramReport._fields == ("modulus", "verdict")
    assert not hasattr(a, "rows") and not hasattr(a, "offdiag_residues")


def test_search_outcome_log_default_is_fresh():
    a, b = SearchOutcome(None, True, 0, 0), SearchOutcome(None, True, 0, 0)
    assert a.log == {} and a.log is not b.log


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SignMatrix(0, ()), "order must be positive"),
        (lambda: SignMatrix(2, (0,)), "row count != order"),
        (lambda: SignMatrix(2, (0, 4)), "row bits out of range"),
        (lambda: SignMatrix(n=2, rows=(-1, 0)), "row bits out of range"),
        (lambda: IncidenceMatrix(2, (0, 1, 2)), "row count != order"),
        (lambda: IncidenceMatrix(v=2, rows=(0, 4)), "row bits out of range"),
        (lambda: DesignParams(1, 1, 0, 0), "v must be >= 2"),
        (lambda: DesignParams(7, 3, 1, 1), "modulus must be 0"),
        (lambda: DesignParams(7, 3, 1, modulus=-2), "modulus must be 0"),
        (lambda: SearchProblem(1, 3), "order must be >= 2"),
        (lambda: SearchProblem(5, 3, mode="fast"), "mode must be"),
        (lambda: SearchProblem(5, 3, goal="all"), "goal must be"),
        (lambda: SearchProblem(9, 3, "restricted"), "restricted mode needs"),
    ],
)
def test_validators_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_import_leaves_out_dataclasses_and_inspect():
    code = (
        "import sys\n"
        "import modhadamard, modhadamard.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
