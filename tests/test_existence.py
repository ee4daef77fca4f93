import hashlib
import json
import re
from fractions import Fraction
from importlib import resources
from math import gcd, lcm

import pytest

import modhadamard
from modhadamard import (
    NotApplicable,
    check_gcd_bound,
    cli,
    constructions,
    decide,
    existence,
    gate_walk,
    materialize,
    matrices,
    plan,
    search,
    small_case_test,
    small_even_reduction,
    special_case_2m_plus_1,
    threshold_note,
    verdict_to_json,
    verify_mh,
)
from modhadamard.search import MAX_N_RESTRICTED

THRESHOLD_12_MOD_14 = 4481157543653329008412788039740507382


def test_check_gcd_bound():
    reason = check_gcd_bound(11, 5)
    assert reason is not None
    assert "16" in reason and "11" in reason
    reason = check_gcd_bound(6, 4)
    assert reason is not None
    assert check_gcd_bound(22, 7) is None
    assert check_gcd_bound(20, 5) is None


def test_small_case_test_values():
    report = small_case_test(15, 7)
    assert report.Delta == 88592
    assert report.sqrt_Delta is None
    assert report.admissible is False

    report = small_case_test(11, 5)
    assert report.Delta == 24400
    assert report.admissible is False

    report = small_case_test(7, 3)
    assert report.Delta == 3600
    assert report.sqrt_Delta == 60
    assert report.admissible is True
    assert report.row_profile is not None
    alpha, beta, a, offset = report.row_profile
    assert (alpha, beta) == (5, 1)
    assert a == Fraction(1)
    assert offset == Fraction(1)


def test_small_case_candidate_counts_are_exact():
    report = small_case_test(7, 3)
    d = report.d_plus if report.d_plus is not None else report.d_minus
    assert d == 5  # the alpha-row count solves the quadratic exactly


def test_small_case_test_preconditions():
    with pytest.raises(NotApplicable):
        small_case_test(14, 5)  # n even
    with pytest.raises(NotApplicable):
        small_case_test(11, 4)  # m even
    with pytest.raises(NotApplicable):
        small_case_test(21, 7)  # gcd > 1
    with pytest.raises(NotApplicable):
        small_case_test(23, 7)  # n >= 3m


def test_special_case_2m_plus_1():
    assert special_case_2m_plus_1(3) is True  # 9 + 16 = 25
    assert special_case_2m_plus_1(7) is False  # 49 + 64 = 113
    assert special_case_2m_plus_1(119) is True  # 119^2 + 120^2 = 169^2


def test_small_case_agrees_with_2m_plus_1_shortcut():
    for m in range(3, 100, 2):
        assert small_case_test(2 * m + 1, m).admissible == special_case_2m_plus_1(m)


def test_small_even_reduction():
    assert small_even_reduction(6, 5) is not None
    assert small_even_reduction(12, 7) is None  # 4 divides 12
    assert small_even_reduction(6, 3) is None  # 6 >= 2m
    assert small_even_reduction(10, 7) is not None
    assert small_even_reduction(7, 5) is None  # odd n out of scope
    # even m: n < lcm(2, m) = m
    assert small_even_reduction(6, 10) is not None
    assert small_even_reduction(10, 14) is not None
    assert small_even_reduction(8, 10) is None  # 4 divides 8
    assert small_even_reduction(10, 10) is None  # 10 >= m
    assert small_even_reduction(14, 10) is None


def test_decide_notexists_quadratic():
    v = decide(13, 7)
    assert v.status == "NotExists"
    assert v.reason == "QuadNonResidue"
    assert v.conjecture_prediction is False


def test_decide_unknown_with_threshold():
    v = decide(29, 7)
    assert v.status == "Unknown"
    assert v.reason == "ThresholdNotMet"
    assert v.threshold_note == "n = 1 (mod 14) but n < 43"
    assert v.conjecture_prediction is True


def test_decide_exists_with_certificate():
    v = decide(57, 7)
    assert v.status == "Exists"
    assert v.reason == "Constructed"
    assert v.certificate is not None
    H = materialize(v.certificate)
    assert verify_mh(H, 7).verdict


def test_decide_m5_spot_checks():
    assert decide(6, 5).status == "NotExists"
    assert decide(6, 5).reason == "SmallEvenRealHadamard"
    assert decide(11, 5).status == "NotExists"
    assert decide(11, 5).reason == "GcdBound"
    assert decide(13, 5).status == "NotExists"  # 13 = 3 mod 10
    assert decide(16, 5).status == "Exists"
    assert decide(21, 5).status == "Exists"
    assert decide(26, 5).status == "Exists"


def test_decide_rejects_bad_domain():
    with pytest.raises(ValueError):
        decide(2, 5)
    with pytest.raises(ValueError):
        decide(9, 1)
    with pytest.raises(ValueError):
        decide(9, 0)


def test_decide_small_odd_switching():
    v = decide(15, 7)
    assert v.status == "NotExists"
    assert v.reason == "Switching"  # 15 * 7 + 15 - 7 = 113 is not a square


def test_delta_test_never_overrides_a_construction():
    # (9, 5) sits in the small odd regime yet has a matrix; the verdict
    # must come from the construction, not the quadratic row count
    v = decide(9, 5)
    assert v.status == "Exists"
    H = materialize(v.certificate)
    assert verify_mh(H, 5).verdict


# J - 2N for the incidence matrix N of the Singer difference sets of PG(2, 5)
# and PG(2, 7): every off-diagonal inner product is v - 4(k - lam) = m
SINGER_MH = {
    (31, 11): (0, 1, 3, 8, 12, 18),
    (57, 29): (0, 1, 3, 13, 32, 36, 43, 52),
}


def test_singer_matrices_pass_the_gram_check():
    for (v, m), subset in SINGER_MH.items():
        N = constructions._develop((v,), subset)
        assert verify_mh(matrices.SignMatrix(v, N.rows), m).verdict, (v, m)


@pytest.mark.parametrize("v, m", sorted(SINGER_MH))
def test_decide_does_not_refute_singer_matrices(v, m):
    assert decide(v, m).status != "NotExists"


def test_switching_gate_refutes_what_the_delta_step_refuted():
    # decide's Switching gate replaced a Delta step that refuted (n, m)
    # when plan built nothing, small_case_test was inadmissible and the
    # switching conditions failed.  The gate never refutes what plan
    # builds, and each (n, m) it is the first to refute has an
    # inadmissible Delta, so the two refute the same instances
    refuted = 0
    for m in range(3, 400, 2):
        for n in range(3, 3 * m, 2):
            if existence._switching(n, m) is None:
                continue
            assert plan(n, m) is None, (n, m)
            if next(s for s, f in gate_walk(n, m) if f is not None) == "Switching":
                assert not small_case_test(n, m).admissible, (n, m)
                refuted += 1
    assert refuted == 5861


def test_decide_does_not_consult_the_delta_test(monkeypatch):
    def refuse(n, m):
        raise AssertionError("small_case_test on the verdict path")

    monkeypatch.setattr(existence, "small_case_test", refuse)
    for m in range(2, 60):
        for n in range(3, 4 * m):
            decide(n, m)


def test_gate_walk_is_decides_order():
    # decide reports the first step of the walk that finds something
    for m in range(2, 31):
        for n in range(3, 201):
            found = [
                (step, finding)
                for step, finding in gate_walk(n, m)
                if finding is not None
            ]
            v = decide(n, m)
            if not found:
                assert v.status == "Unknown", (n, m)
                continue
            step, finding = found[0]
            assert v.reason == step, (n, m)
            if step == "Constructed":
                assert v.status == "Exists" and v.certificate == finding
            else:
                assert v.status == "NotExists"
    walk = list(gate_walk(11, 7))
    assert [step for step, _ in walk] == [
        "GcdBound",
        "QuadNonResidue",
        "GcdBound",
        "SmallEvenRealHadamard",
        "Switching",
        "Constructed",
    ]
    assert walk[-2] == ("Switching", None)  # 77 + 4 = 81 = 9^2
    assert walk[-1][1].node == "JMinus2I"
    switching = dict(gate_walk(15, 7))["Switching"]
    assert switching == "nm + n - m = 113 is not a square"
    assert dict(gate_walk(13, 7))["Switching"] == "n = 13 != m = 7 (mod 4)"
    assert dict(gate_walk(15, 8))["Switching"] is None  # even modulus
    with pytest.raises(ValueError):
        list(gate_walk(9, 1))


def test_gate_walk_settles_every_searchable_regime_instance():
    # decide's search fallback never runs a regime instance the search
    # could take: a gate or a construction settles each one first.  For
    # m > n the size half of the gcd bound fires: 4r = n + jm with j >= 1.
    for n in range(3, MAX_N_RESTRICTED + 1, 2):
        for m in range(3, 3 * n + 1, 2):
            if n < 3 * m and gcd(n, m) == 1:
                assert any(f is not None for _, f in gate_walk(n, m)), (n, m)
                if m > n:
                    assert check_gcd_bound(n, m) is not None, (n, m)


def _holds_param_design(recipe):
    return recipe is not None and (
        recipe.node == "ParamDesign" or any(map(_holds_param_design, recipe.children))
    )


def test_decide_parameter_level_certificates_stay_symbolic(monkeypatch):
    # below 23,170, the largest order the default materialize cap builds,
    # no m = 7 recipe holds a design known only by its parameters, so every
    # m = 7 certificate there can be built and Gram-checked by materialize
    for n in range(3, 23171):
        assert not _holds_param_design(plan(n, 7)), n
    built = []
    real_build = constructions._build

    def counting_build(recipe):
        mat = real_build(recipe)
        built.append(recipe.node)
        return mat

    monkeypatch.setattr(constructions, "_build", counting_build)
    # the first orders that extend by (52480, 5832, 648) once; decide
    # builds no certificate, at any order
    for n in (52495, 52565):
        v = decide(n, 7)
        assert (v.status, v.reason) == ("Exists", "Constructed"), n
        assert v.certificate == plan(n, 7)
        assert _holds_param_design(v.certificate)
    assert built == []


def test_decide_builds_and_checks_no_matrix(monkeypatch):
    # a certificate is plan's recipe, checked by the constructors that made
    # it: decide calls no build and no Gram check, in any module, once the
    # bundled seeds are loaded (and checked, once per process)
    pairs = [(n, m) for m in range(2, 31) for n in range(3, 201)]
    pairs += [(6007, 7), (23170, 7), (52495, 7)]
    for n, m in pairs:
        decide(n, m)
    calls = []

    def counting(real):
        def wrapper(*args):
            calls.append(real.__name__)
            return real(*args)

        return wrapper

    for name in ("_build", "verify_mh"):
        real = getattr(constructions, name)
        for mod in (modhadamard, constructions, existence, matrices, search, cli):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting(real))
    for n, m in pairs:
        decide(n, m)
    assert calls == []
    assert {decide(n, 7).status for n in (6007, 23170, 52495)} == {"Exists"}


def test_decide_verdicts_are_pinned_byte_for_byte():
    # SHA-256 over one verdict JSON line per (m, n), m outer, 3 <= n <= 3000
    digest = hashlib.sha256()
    for m in (5, 7, 9, 10, 14):
        for n in range(3, 3001):
            line = json.dumps(verdict_to_json(decide(n, m)), sort_keys=True) + "\n"
            digest.update(line.encode())
    assert digest.hexdigest() == (
        "493ca2568ae8d398a1e7bbf74cf5659428946055db2b2e684f60de1056e00bb3"
    )


def test_threshold_notes_by_class():
    assert threshold_note(29, 7) == "n = 1 (mod 14) but n < 43"
    # 34 and 20 live on deeper sublattices of the 6 mod 14 family
    assert threshold_note(34, 7) == "n = 6 (mod 14) but n < 118"
    assert threshold_note(20, 7) == "n = 6 (mod 14) but n < 188"
    # the two halves of 9 (mod 14) start at different orders
    assert threshold_note(23, 7) == "n = 23 (mod 28) but n < 52495"
    assert threshold_note(37, 7) == "n = 9 (mod 28) but n < 52565"
    # 2 (mod 28) is the Double of the Menon chain at n / 2 >= 43, and
    # 12 (mod 28) the Double of the Paley-11 chain at n / 2 = 62 (mod 84)
    assert threshold_note(30, 7) == "n = 2 (mod 28) but n < 86"
    assert threshold_note(58, 7) == "n = 2 (mod 28) but n < 86"
    assert threshold_note(124, 7) == "n = 12 (mod 28) but n < 796"
    assert threshold_note(38, 7) == "n = 10 (mod 14) but n < 683294"
    assert threshold_note(26, 7) == "n = 12 (mod 14) but n < %d" % THRESHOLD_12_MOD_14
    assert threshold_note(30, 5) is None


def test_threshold_note_matches_decide():
    for n in (29, 34, 23, 38, 26, 66, 30, 37, 124):
        v = decide(n, 7)
        assert v.status == "Unknown"
        assert v.threshold_note == threshold_note(n, 7)


_GATE_NOTE = re.compile(r"n = (\d+) \(mod (\d+)\) but n < (\d+)$")


def test_every_unknown_note_names_a_gate_that_plan_passes():
    # each m = 7 Unknown up to 3000 quotes a class it belongs to and an
    # order where plan does build that class, or (26 mod 28) the paper's
    # class-12 bound
    unknown = 0
    for n in range(3, 3001):
        v = decide(n, 7)
        if v.status != "Unknown":
            continue
        unknown += 1
        if n % 28 == 26:
            assert v.threshold_note == "n = 12 (mod 14) but n < %d" % THRESHOLD_12_MOD_14
            continue
        c, mod, start = map(int, _GATE_NOTE.match(v.threshold_note).groups())
        assert n % mod == c and n < start, n
        assert plan(start, 7) is not None, n
    assert unknown == 480


def test_gates_settle_every_generic_search_instance():
    # decide runs no search: its gates and plan settle every instance the
    # generic search takes, and agree with it.  Past m = n the gates that
    # fire do not depend on m, so larger m adds nothing new
    checked = 0
    for n in range(3, search.MAX_N_GENERIC + 1):
        for m in range(2, 3 * n + 4):
            v = decide(n, m)
            assert v.status != "Unknown", (n, m)
            found = search.run(search.SearchProblem(n, m, goal="exhaust")).found
            assert (v.status == "Exists") == (found is not None), (n, m)
            checked += 1
    assert checked == 172


def test_real_hadamard_orders_have_exact_certificates():
    # for 4 | n below lcm(2, m), and for odd m with 4 | n < 4m, every inner
    # product of an MH(n, m) is 0 (small_even_reduction's docstring): each
    # Exists is an exact certificate, and each Unknown is an order whose
    # Hadamard matrix the bundled seeds do not reach
    exists = unknown = 0
    for m in range(2, 401):
        top = max(lcm(2, m), 4 * m if m % 2 else 0)
        for n in range(4, top, 4):
            v = decide(n, m)
            if v.status == "Exists":
                assert v.certificate.modulus == 0, (n, m)
                exists += 1
            elif v.status == "Unknown":
                assert constructions._exact_order_recipe(n) is None, (n, m)
                unknown += 1
    assert (exists, unknown) == (29263, 20437)


def test_schema_reason_enum_matches_decide():
    # the verdict schema names exactly the reasons decide returns,
    # Switching among them
    text = resources.files("modhadamard.data").joinpath("verdict.schema.json").read_text()
    enum = json.loads(text)["properties"]["reason"]["enum"]
    reasons = {decide(n, m).reason for n in range(3, 61) for m in range(2, 31)}
    assert decide(15, 7).reason == "Switching"
    assert sorted(reasons) == sorted(enum)


def test_decide_search_cap_above_hard_limit_is_ignored():
    v = decide(22, 10, search_cap=50)
    assert v.status == "Unknown"


def test_conjecture_prediction_field():
    assert decide(29, 7).conjecture_prediction is True
    assert decide(13, 7).conjecture_prediction is False
    assert decide(22, 7).conjecture_prediction is True  # even
    assert decide(21, 7).conjecture_prediction is True  # multiple of 7
    assert decide(10, 4).conjecture_prediction is None  # composite modulus
    assert decide(9, 9).conjecture_prediction is None


def test_monotone_consistency():
    """A certificate issued at a composite modulus still verifies at its divisors."""
    checked = 0
    for n in range(3, 201):
        for big, divisors in ((12, (2, 3, 4, 6)), (8, (2, 4)), (6, (2, 3))):
            v = decide(n, big)
            if v.status != "Exists":
                continue
            H = materialize(v.certificate)
            for small in divisors:
                assert verify_mh(H, small).verdict, (n, big, small)
                checked += 1
    assert checked > 200


def test_verdict_json_shapes():
    doc = verdict_to_json(decide(57, 7))
    assert doc["status"] == "Exists"
    assert doc["certificate"]["kind"] == "recipe"
    assert doc["certificate"]["recipe"]["order"] == "57"

    doc = verdict_to_json(decide(29, 7))
    assert doc["status"] == "Unknown"
    assert doc["threshold_note"].startswith("n = 1 (mod 14)")
    assert "certificate" not in doc

    doc = verdict_to_json(decide(6, 10))
    assert doc == {
        "n": 6,
        "m": 10,
        "status": "NotExists",
        "reason": "SmallEvenRealHadamard",
    }
