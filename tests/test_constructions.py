import hashlib
import itertools
import json
import random
from importlib import resources

import jsonschema
import pytest

from modhadamard import (
    CapExceeded,
    DesignParams,
    MaterializeError,
    catalog_design,
    catalog_names,
    check_constraints_1_to_4,
    decide,
    double,
    family10_params,
    family11_params,
    find_difference_set,
    is_prime,
    is_prime_power,
    iterate,
    kron,
    materialize,
    materialize_design,
    paley_design,
    paley_hadamard,
    plan,
    recipe_design_params,
    recipe_from_json,
    recipe_to_json,
    seed_all_ones,
    seed_catalog,
    seed_j_minus_2i,
    seed_paley,
    seed_paley_design,
    seed_param_design,
    seed_two_circulant,
    threshold_note,
    two_circulant,
    verify_design,
    verify_mh,
)
from modhadamard.constructions import (
    _bordered,
    _build,
    _core_rotations,
    _develop,
    _development_ok,
    _load_json,
    _nonzero_squares,
)
from modhadamard import matrices
from modhadamard.matrices import _orbits, _permutations, _rotation

from conftest import SEED


RECIPE_SCHEMA = json.loads(
    resources.files("modhadamard.data").joinpath("recipe.schema.json").read_text()
)


def test_paley_hadamard():
    H = paley_hadamard(11)
    assert H.n == 12
    assert verify_mh(H, 0).verdict
    H = paley_hadamard(19)
    assert H.n == 20
    assert verify_mh(H, 0).verdict
    with pytest.raises(ValueError):
        paley_hadamard(13)  # 13 = 1 mod 4
    with pytest.raises(ValueError):
        paley_hadamard(27)  # prime powers are not accepted here


def test_paley_hadamard_matches_definition():
    # entry (i, j) of the Jacobsthal block is -1 exactly when i = j or
    # i - j is a non-square mod q; the first row and column are all +1
    for q in range(3, 200, 4):
        if not is_prime(q)[0]:
            continue
        squares = {x * x % q for x in range(1, q)}
        want = [0]
        for i in range(q):
            bits = 0
            for j in range(q):
                if i == j or (i - j) % q not in squares:
                    bits |= 1 << (j + 1)
            want.append(bits)
        H = paley_hadamard(q)
        assert H.n == q + 1
        assert H.rows == tuple(want), q


def test_paley_design():
    D, params = paley_design(7)
    assert (params.v, params.k, params.lam) == (7, 3, 1)
    assert verify_design(D, DesignParams(7, 3, 1, 0))
    D, params = paley_design(11)
    assert (params.v, params.k, params.lam) == (11, 5, 2)
    assert verify_design(D, DesignParams(11, 5, 2, 0))
    for q in (9, 25, 49, 13, 15):
        with pytest.raises(ValueError):
            paley_design(q)


def test_paley_design_matches_definition():
    # over a prime field, row i marks the j with j - i a nonzero square
    for q in range(3, 200):
        if not is_prime(q)[0] or q % 4 != 3:
            continue
        squares = {x * x % q for x in range(1, q)}
        want = tuple(
            sum(1 << j for j in range(q) if (j - i) % q in squares) for i in range(q)
        )
        assert paley_design(q)[0].rows == want, q


def test_paley_design_prime_power():
    # these need the field construction, not integer residues
    for q, p in ((27, 3), (243, 3), (343, 7)):
        D, params = paley_design(q)
        assert (params.v, params.k, params.lam) == (q, (q - 1) // 2, (q - 3) // 4)
        assert verify_design(D, DesignParams(q, (q - 1) // 2, (q - 3) // 4, 0))
        squares = _nonzero_squares(q)
        assert len(squares) == (q - 1) // 2
        assert D.rows[0] == sum(1 << j for j in squares)
        # the constant c has index c * q / p; GF(q) has odd degree over
        # GF(p), so a constant is a square in GF(q) exactly when it is one
        # mod p (the non-squares would give a design too)
        constants = {c for c in range(1, p) if c * q // p in squares}
        assert constants == {x * x % p for x in range(1, p)}, q


def reference_develop(mods, subset):
    """The translates of subset, one group element at a time."""
    elements = list(itertools.product(*[range(x) for x in mods]))
    index = {e: i for i, e in enumerate(elements)}
    chosen = set(subset)
    rows = []
    for e in elements:
        bits = 0
        for j, f in enumerate(elements):
            diff = tuple((a - b) % m for a, b, m in zip(f, e, mods))
            if index[diff] in chosen:
                bits |= 1 << j
        rows.append(bits)
    return tuple(rows)


def test_develop_matches_elementwise_reference():
    rng = random.Random(SEED)
    for mods in [(1,), (7,), (21,), (4, 4), (6, 6), (3, 3, 3), (2, 3, 5)]:
        v = len(reference_develop(mods, []))
        subsets = [[], list(range(v))]
        subsets += [rng.sample(range(v), rng.randint(1, v)) for _ in range(8)]
        for subset in subsets:
            D = _develop(mods, subset)
            assert D.v == v
            assert D.rows == reference_develop(mods, subset), (mods, subset)


def test_catalog_entries_verify():
    names = catalog_names()
    assert "fano_7_3_1" in names
    assert "menon_36_15_6" in names
    assert "ds_71_15_3" in names
    for name in names:
        D, params = catalog_design(name)
        assert D.v == params.v
        assert verify_design(D, params), name


def _swapped(rng, subset, v, full_check, generator_check):
    """Swap a random member of subset for a random non-member until the
    full check rejects the result; the generator check must agree on
    every swap tried."""
    subset = sorted(subset)
    others = [x for x in range(v) if x not in subset]
    for _ in range(20):
        swapped = set(subset) - {rng.choice(subset)} | {rng.choice(others)}
        verdict = full_check(swapped)
        assert generator_check(swapped) is verdict, (v, subset, swapped)
        if not verdict:
            return
    raise AssertionError("no swap of %r breaks it" % subset)


def test_generator_checks_match_the_full_checks():
    # a developed seed is checked by row 0 against the rest, and the
    # bordered Paley matrix by verify_mh with its core rotation, whose two
    # orbits make that rows 0 and 1 against the rest; verify_design and
    # verify_mh without rotations, which check every pair, are the reference
    rng = random.Random(SEED)
    table = _load_json("catalog.json")
    cases = []
    for name in catalog_names():
        if table[name]["group"] is not None:
            D, params = catalog_design(name)
            cases.append((tuple(table[name]["group"]), D, params))
    assert len(cases) >= 5
    for q in range(3, 200, 4):
        pp = is_prime_power(q)
        if pp is not None:
            D, params = paley_design(q)
            cases.append(((pp.base,) * pp.exponent, D, params))
    for mods, D, params in cases:
        assert _development_ok(D, params) is True
        assert verify_design(D, params) is True
        subset = [j for j in range(D.v) if D.rows[0] >> j & 1]
        if 2 <= params.k <= D.v - 2:  # else every k-subset is a difference set
            _swapped(
                rng, subset, D.v,
                lambda S: verify_design(_develop(mods, S), params),
                lambda S: _development_ok(_develop(mods, S), params),
            )

    primes = [q for q in range(3, 200, 4) if is_prime(q)[0]]
    assert len(primes) == 24
    for q in primes:
        H = paley_hadamard(q)
        assert verify_mh(H, 0, _core_rotations(q + 1)).verdict is True
        assert verify_mh(H, 0).verdict is True
        if q > 3:
            _swapped(
                rng, _nonzero_squares(q), q,
                lambda S: verify_mh(_bordered(_develop((q,), S)), 0).verdict,
                lambda S: verify_mh(
                    _bordered(_develop((q,), S)), 0, _core_rotations(q + 1)
                ).verdict,
            )


def test_catalog_unknown_name():
    with pytest.raises(ValueError):
        catalog_design("nosuch")


def test_find_difference_set_fano():
    subset, D = find_difference_set((7,), 3, 1)
    assert subset == (0, 1, 3)
    assert verify_design(D, DesignParams(7, 3, 1, 0))


def test_find_difference_set_paley11():
    subset, D = find_difference_set((11,), 5, 2)
    assert 0 in subset
    assert verify_design(D, DesignParams(11, 5, 2, 0))


def test_find_difference_set_menon():
    """A (36,15,6) difference set exists in Z6 x Z6; regrow one and verify it."""
    result = find_difference_set((6, 6), 15, 6)
    assert result is not None
    subset, D = result
    assert len(subset) == 15
    assert verify_design(D, DesignParams(36, 15, 6, 0))


def test_find_difference_set_rejections():
    with pytest.raises(ValueError):
        find_difference_set((7,), 3, 2)  # k(k-1) != lam(v-1)
    with pytest.raises(ValueError):
        find_difference_set((41,), 5, 1)  # order cap
    # no (22,7,2) biplane exists in any group, and no cyclic (16,6,2) set
    assert find_difference_set((22,), 7, 2) is None
    assert find_difference_set((16,), 6, 2) is None


def test_family_parameter_regressions():
    p = family10_params(2, 2, 6)
    assert (p.v, p.k, p.lam) == (2185, 729, 243)
    assert p.r == 3
    p = family11_params(23, 3)
    assert (p.v, p.k, p.lam) == (25439, 12167, 5819)
    p = family11_params(9, 3)
    assert (p.v, p.k, p.lam) == (1639, 729, 324)


def test_family10_giant():
    p = family10_params(29, 5, 6)
    assert p.r == 732541
    assert p.r_is_prime_power
    assert len(str(p.v)) == 37
    assert p.v % 4 == 3
    assert p.v % 7 == 1
    assert p.v % 28 == 15


def test_family_rejections():
    with pytest.raises(ValueError):
        family10_params(6, 2, 3)  # q must be a prime power
    with pytest.raises(ValueError):
        family11_params(8, 3)  # q must be odd
    with pytest.raises(ValueError):
        family10_params(2, 1, 3)  # d >= 2 keeps r > 1


def test_check_constraints_giant():
    p = family10_params(29, 5, 6)
    checks = check_constraints_1_to_4(p, 7, 40)  # base size 40 = 12 mod 28
    assert checks == {
        "parity": True,
        "v_mod_p": True,
        "k_mod_p": True,
        "lambda_mod_p": True,
    }


def test_check_constraints_parity_selector():
    p = family11_params(9, 3)  # v = 1639 = 3 mod 4
    assert check_constraints_1_to_4(p, 7, 24)["parity"] is True
    assert check_constraints_1_to_4(p, 7, 24, parity=(4, 1))["parity"] is False
    assert check_constraints_1_to_4(p, 7, 24, parity=(2, 0))["parity"] is False


def test_check_constraints_rejects_bad_moduli():
    # 4 must be invertible mod p, and v is reduced mod the parity modulus
    p = family11_params(9, 3)
    for bad in (-3, 0, 1, 2, 4):
        with pytest.raises(ValueError):
            check_constraints_1_to_4(p, bad, 24)
    for pm in (0, -4):
        with pytest.raises(ValueError):
            check_constraints_1_to_4(p, 7, 24, parity=(pm, 3))


def test_recipe_nodes_carry_order_and_modulus():
    r = seed_j_minus_2i(11)
    assert (r.order, r.modulus) == (11, 7)
    r = double(r)
    assert (r.order, r.modulus) == (22, 14)
    r = seed_all_ones(20)
    assert (r.order, r.modulus) == (20, 20)
    r = kron(seed_j_minus_2i(11), seed_paley(11))
    assert r.order == 132
    assert r.modulus % 7 == 0


def test_seed_rejections():
    with pytest.raises(ValueError):
        seed_j_minus_2i(3)
    with pytest.raises(ValueError):
        seed_j_minus_2i(5)
    with pytest.raises(ValueError):
        seed_paley(13)
    with pytest.raises(ValueError):
        seed_param_design(36, 15, 5)  # parameter identity violated
    with pytest.raises(ValueError):
        seed_catalog("nosuch")


def test_single_extension_order():
    base = double(seed_j_minus_2i(11))
    r = iterate(base, "menon_36_15_6", 1, 7)
    assert (r.node, r.args, r.order, r.modulus) == ("Iterate", (1,), 57, 7)
    H = materialize(r)
    assert verify_mh(H, 7).verdict


def test_iterate_orders_and_materialization():
    base = plan(48, 7)
    assert base is not None
    assert base.order == 48
    for l in range(4):
        r = iterate(base, "ds_71_15_3", l, 7)
        assert r.order == 48 + 70 * l
        H = materialize(r)
        assert H.n == r.order
        assert verify_mh(H, 7).verdict


def test_iterate_zero_returns_base():
    base = plan(48, 7)
    assert iterate(base, "ds_71_15_3", 0, 7) is base


def test_iterate_rejects_wrong_class():
    # lambda = 3 forces 2*(4 - n) = 3 mod 7, so n = 4 mod 7 bases are out
    base = plan(46, 7)
    assert base is not None and base.order % 7 == 4
    with pytest.raises(ValueError):
        iterate(base, "ds_71_15_3", 1, 7)
    base = plan(48, 7)
    for bad in (0, 2, 14):  # an even modulus is refused before any division
        with pytest.raises(ValueError):
            iterate(base, "ds_71_15_3", 1, bad)


def test_plan_examples():
    r = plan(57, 7)
    assert (r.node, r.args) == ("Iterate", (1,))
    assert r.children[0].node == "Double"
    assert r.children[0].children[0].node == "JMinus2I"
    assert r.children[1].args == ("menon_36_15_6",)

    r = plan(20, 5)
    assert r.node == "AllOnes"
    assert r.order == 20

    r = plan(118, 7)
    assert r.node == "Iterate"
    assert r.args[-1] == 1
    assert r.order == 118

    assert plan(15, 7) is None
    assert plan(29, 7) is None


def test_plan_rejects_bad_input():
    with pytest.raises(ValueError):
        plan(2, 7)
    with pytest.raises(ValueError):
        plan(10, 1)
    with pytest.raises(ValueError):
        plan(10, -2)


def test_plan_modulus_zero_exact():
    r = plan(12, 0)
    assert r is not None
    H = materialize(r)
    assert verify_mh(H, 0).verdict
    assert plan(10, 0) is None  # no real Hadamard matrix of order 10


def test_plan_exact_pool_prime_gap():
    # order 28 would need the prime power 27; only true primes feed the
    # quadratic-residue seed, so the planner leaves MH(28, 9) open
    assert plan(28, 9) is None
    r = plan(104, 9)  # 103 is prime
    assert r is not None
    assert r.modulus == 0


def test_plan_small_sweep_materializes_and_verifies():
    """Every planned order up to 200 must materialize and pass the Gram check.

    The moduli are those the gate tests walk, so every certificate that
    decide returns for n <= 200 there is built and Gram-checked here, as
    decide builds none."""
    for m in range(2, 31):
        for n in range(3, 201):
            r = plan(n, m)
            if r is None:
                continue
            assert r.order == n
            assert r.modulus == 0 or r.modulus % m == 0
            H = materialize(r)
            assert H.n == n
            assert verify_mh(H, m).verdict, (n, m)


def test_plan_mod5_base_cases():
    for n in (21, 22, 26, 31):
        r = plan(n, 5)
        assert r is not None
        H = materialize(r)
        assert verify_mh(H, 5).verdict


def test_proposed_rotations_are_symmetries():
    # every column rotation a recipe proposes maps the rows of its matrix
    # onto themselves, so materialize's Gram check keeps all of them
    nodes = set()
    pairs = [(n, m) for m in (0, 2, 3, 5, 7, 9, 11, 13) for n in range(3, 201)]
    for n, m in pairs + [(300, 7), (452, 5), (790, 7), (880, 7), (1024, 0)]:
        r = plan(n, m)
        if r is None:
            continue
        mat, rotations = _build(r)
        rows = frozenset(mat.rows)
        for rotation in rotations:
            turn = _rotation(rotation, mat.n)
            assert turn is not None, (n, m, rotation)
            assert rows.issuperset(map(turn, mat.rows)), (n, m, rotation)
        if rotations:
            nodes.add(r.node)
    assert nodes == {
        "CatalogDesign", "Double", "Iterate", "JMinus2I", "Kron", "PaleyHadamard",
        "TwoCirculant",
    }


def test_construct_certificates_orbit_counts():
    # the Gram check of the construct bench's certificates checks one row
    # per orbit against the rows from its orbit onward; a builder change
    # that drops a rotation adds orbits, and pairs, and fails here
    for (n, m), want in {(880, 7): 4, (1024, 0): 16, (452, 5): 42, (790, 7): 74}.items():
        mat, rotations = _build(plan(n, m))
        distinct = list(dict.fromkeys(mat.rows))
        orbits = _orbits(distinct, _permutations(distinct, n, rotations))
        assert len(orbits) == want, (n, m, len(orbits))


def test_iterate_rotations_where_blocks_are_used_up():
    # rows and columns leave in the order they arrived: after l rounds the
    # biplane's rotations (16, 4) and (4, 1) stay on each companion block
    # that starts at place 16 + 16 i >= l.  At l = 15 the base's rotation
    # is gone and round 0's block sits one place down; at l = 17 round 0's
    # block has lost its first place and round 1's comes first
    base = double(double(seed_j_minus_2i(4)))
    cases = {15: (1, 15, 16), 16: (0, 16, 16), 17: (15, 16, 31), 33: (15, 31, 46)}
    for l, (first, blocks, want) in cases.items():
        mat, rotations = _build(iterate(base, "biplane_16_6_2", l, modulus=5))
        assert mat.n == 16 + 15 * l
        assert sorted((L, s) for L, s, _ in rotations) == [(4, 1), (16, 4)]
        assert {min(starts) for _, _, starts in rotations} == {first}, l
        assert dict((L, len(starts)) for L, _, starts in rotations)[16] == blocks
        distinct = list(dict.fromkeys(mat.rows))
        perms = _permutations(distinct, mat.n, rotations)
        assert len(perms) == 2, l
        for p in perms:
            assert sorted(p) == list(range(len(distinct)))
        assert len(_orbits(distinct, perms)) == want, l


def test_no_proposals_checks_every_pair(monkeypatch):
    # the symmetries come only from the proposed rotations: with none, every
    # pair of distinct rows is checked, also for a Double chain, whose rows
    # an XOR translation of its H2 factors maps onto themselves
    real = matrices._every_pair
    checked = []

    def counting(firsts, rows, starts, op, allowed):
        starts = list(starts)[: len(firsts)]
        checked.append(sum(len(rows) - s for s in starts))
        return real(firsts, rows, starts, op, allowed)

    mat = materialize(plan(1024, 0))
    distinct = list(dict.fromkeys(mat.rows))
    assert len(distinct) == 1024
    assert _permutations(distinct, mat.n, ()) == []
    monkeypatch.setattr(matrices, "_every_pair", counting)
    assert verify_mh(mat, 0).verdict
    assert checked == [1024 * 1023 // 2]


def test_built_rows_digests():
    # sha256 of the packed rows of the construct certificates and of the
    # 124-round Iterate at (1252, 5); a builder change that moves a row or
    # changes a bit fails here
    want = {
        (452, 5): "4bfc8dbcefa74f920becf94a7d02413daff2268315a6a0f98fee2624091692f0",
        (1024, 0): "3754cb0803b525775b56429116b476b2db22516ac7860f2937e2f5c50494c105",
        (880, 7): "b58783ebca9c9781f9ab5babfabef7cfb198d9c33b0d57bf7b1f21003258d140",
        (790, 7): "a1e030459084b21e93328823b8b702850acdbbe4ecb12326e7ae964733c94263",
        (1252, 5): "4187713aa4eb7f397e8b58943e0b482759003f9fea302da485dcfe3054e83ab8",
    }
    for (n, m), digest in want.items():
        rows = materialize(plan(n, m)).rows
        packed = b"".join(r.to_bytes((n + 7) // 8, "little") for r in rows)
        assert hashlib.sha256(packed).hexdigest() == digest, (n, m)


def test_predicted_order_matches_materialization():
    seen = 0
    for m in range(2, 13):
        for n in range(3, 201):
            r = plan(n, m)
            if r is None or r.order > 1000:
                continue
            H = materialize(r)
            assert H.n == r.order
            if r.modulus:
                assert verify_mh(H, r.modulus).verdict
            else:
                assert verify_mh(H, 0).verdict
            seen += 1
    assert seen > 300


def test_two_circulant_block():
    H, m = two_circulant("two_circ_26_5")
    assert (H.n, m) == (26, 5)
    # [[A, B], [B^T, -A^T]] entry by entry from the bundled first rows
    entry = json.loads(
        resources.files("modhadamard.data").joinpath("two_circulant.json").read_text()
    )["two_circ_26_5"]
    a_row, b_row = ([1 if ch == "+" else -1 for ch in r] for r in entry["first_rows"])
    b = entry["block_size"]
    entries = [[0] * (2 * b) for _ in range(2 * b)]
    for i in range(b):
        for j in range(b):
            entries[i][j] = a_row[(j - i) % b]
            entries[i][b + j] = b_row[(j - i) % b]
            entries[b + i][j] = b_row[(i - j) % b]
            entries[b + i][b + j] = -a_row[(i - j) % b]
    assert H.to_entries() == entries
    assert verify_mh(H, 5).verdict
    r = seed_two_circulant("two_circ_26_5")
    assert (r.order, r.modulus) == (26, 5)


def test_recipe_json_round_trip():
    for n, m in [(57, 7), (118, 7), (26, 5), (31, 5), (20, 5), (2224, 7)]:
        r = plan(n, m)
        obj = recipe_to_json(r)
        jsonschema.validate(obj, RECIPE_SCHEMA)
        back = recipe_from_json(obj)
        assert back == r
        assert json.loads(json.dumps(obj)) == obj


def _node_enum(schema_name):
    text = resources.files("modhadamard.data").joinpath(schema_name).read_text()
    return json.loads(text)["$defs"]["node"]["properties"]["node"]["enum"]


def test_schema_node_enums_match_the_code():
    # both schemas name the same nodes, and recipe_from_json reads each back
    names = _node_enum("recipe.schema.json")
    assert names == _node_enum("verdict.schema.json")
    samples = [
        seed_all_ones(5),
        seed_j_minus_2i(11),
        seed_paley(11),
        seed_paley_design(27),
        seed_catalog("menon_36_15_6"),
        seed_two_circulant("two_circ_26_5"),
        seed_param_design(2185, 729, 243),
        kron(seed_j_minus_2i(11), seed_paley(11)),
        double(seed_j_minus_2i(11)),
        plan(57, 7),
    ]
    assert sorted(r.node for r in samples) == sorted(names)
    for r in samples:
        obj = recipe_to_json(r)
        jsonschema.validate(obj, RECIPE_SCHEMA)
        assert recipe_from_json(obj) == r


def test_recipe_json_keeps_the_kind():
    # a catalog design and its matrix reading share node, order and modulus
    for r in (
        seed_catalog("menon_36_15_6", kind="design"),
        seed_catalog("menon_36_15_6"),
        seed_paley_design(27),
        seed_param_design(2185, 729, 243),
    ):
        obj = recipe_to_json(r)
        jsonschema.validate(obj, RECIPE_SCHEMA)
        assert obj["kind"] == r.kind
        assert recipe_from_json(obj) == r
    obj = recipe_to_json(double(seed_j_minus_2i(11)))
    obj["kind"] = "design"
    with pytest.raises(ValueError):
        recipe_from_json(obj)


def test_recipe_json_malformed_objects_raise_value_error():
    # recipe files can come from outside the program: a missing key, a value
    # of the wrong JSON type, an unknown node or a wrong number of args or
    # children names what is wrong
    b16 = double(double(seed_j_minus_2i(4)))
    obj = recipe_to_json(iterate(b16, "biplane_16_6_2", 2, modulus=5))
    assert recipe_from_json(obj).order == 46
    bad = [
        ({"node": "AllOnes"}, "has no 'kind', 'order', 'modulus'"),
        (dict(obj, children=[]), "Iterate node needs 2 children, got 0"),
        (dict(obj, children=obj["children"][:1]), "Iterate node needs 2 children, got 1"),
        (dict(obj, args=[]), "Iterate node needs 1 args, got 0"),
        (dict(obj, children=[obj["children"][0], 16]), "must be a JSON object"),
        (dict(obj, children=[{"node": "Double"}] * 2), "has no 'kind'"),
        (dict(recipe_to_json(seed_all_ones(6)), args=[]), "AllOnes node needs 1 args"),
        (dict(obj, node="Triple"), "unknown recipe node 'Triple'"),
        (dict(obj, node=["Iterate"]), "unknown recipe node \\['Iterate'\\]"),
        (dict(obj, args=5), "Iterate node: args 5 does not match"),
        (dict(obj, children=5), "Iterate node: children 5 does not match"),
        (dict(obj, modulus=None), "Iterate node: modulus None does not match"),
        (dict(obj, modulus=True), "Iterate node: modulus True does not match"),
        (dict(obj, order=None), "Iterate node: order None does not match"),
        (dict(obj, order=46), "Iterate node: order 46 does not match"),
        (dict(obj, args=[None]), "Iterate node: args \\[None\\] does not match"),
    ]
    for wrong, message in bad:
        with pytest.raises(ValueError, match=message):
            recipe_from_json(wrong)


def _chain(r):
    """The nodes of a chain recipe from the top down, without recursion."""
    nodes = [r]
    while nodes[-1].children:
        nodes.append(nodes[-1].children[0])
    return nodes


def test_recipe_json_depth_bound():
    # a recipe file can come from outside the program: a recipe deeper than
    # the stated bound is refused with ValueError, not RecursionError
    deep = seed_j_minus_2i(4)
    for _ in range(1200):
        deep = double(deep)
    with pytest.raises(ValueError, match="more than 500 levels deep"):
        recipe_to_json(deep)
    obj = None  # the same recipe as JSON, built by hand from the bottom up
    for node in reversed(_chain(deep)):
        obj = {"node": node.node, "kind": node.kind, "args": list(node.args),
               "order": str(node.order), "modulus": node.modulus,
               "children": [obj] if obj else []}
    with pytest.raises(ValueError, match="more than 500 levels deep"):
        recipe_from_json(obj)
    # 500 levels, the bound, round-trip; Recipe == itself recurses, so the
    # chains are compared node by node
    top = _chain(deep)[701]
    back = recipe_from_json(recipe_to_json(top))
    pairs = list(zip(_chain(back), _chain(top), strict=True))
    assert len(pairs) == 500
    for got, want in pairs:
        assert (got.node, got.args, got.order, got.modulus) == (
            want.node, want.args, want.order, want.modulus)


def test_recipe_json_big_orders_are_strings():
    big = plan(4481157543653329008412788039760691035 - 1 + 12, 7)
    assert big is not None
    obj = recipe_to_json(big)
    jsonschema.validate(obj, RECIPE_SCHEMA)
    assert isinstance(obj["order"], str)
    assert obj["order"] == str(big.order)
    back = recipe_from_json(obj)
    assert back.order == big.order


def test_materialize_cap():
    r = plan(683294, 7)
    assert r is not None
    with pytest.raises(CapExceeded) as exc:
        materialize(r, 1024)
    assert exc.value.order == 683294

    giant = plan(4481157543653329008412788039760691035 - 1 + 12, 7)
    with pytest.raises(CapExceeded):
        materialize(giant)  # default cap, 37-digit order


def test_materialize_design_param_only():
    r = seed_param_design(2185, 729, 243)
    with pytest.raises(MaterializeError):
        materialize_design(r)
    params = recipe_design_params(r)
    assert (params.v, params.k, params.lam) == (2185, 729, 243)


def test_materialize_design_cap():
    # materialize's default cap holds for designs too: the Paley design of
    # q = 23203, the first prime power q = 3 (mod 4) past 23,170, packs into
    # 67,297,401 bytes, over 64 MiB
    for q in (23203, 1_000_000_007):
        with pytest.raises(CapExceeded) as exc:
            materialize_design(seed_paley_design(q))
        assert exc.value.order == q


def test_design_nodes_build_as_their_seeds():
    # _build reads a design node as the seed it names, and every column
    # rotation it proposes maps the incidence rows onto themselves
    designs = [(seed_paley_design(q), paley_design(q)) for q in (7, 11, 19, 27)]
    designs += [(seed_catalog(x, kind="design"), catalog_design(x)) for x in catalog_names()]
    proposed = 0
    for r, want in designs:
        assert materialize_design(r) == want, r.args
        D, rotations = _build(r)
        assert D is want[0], r.args
        distinct = list(dict.fromkeys(D.rows))
        assert len(_permutations(distinct, D.v, rotations)) == len(rotations), r.args
        proposed += len(rotations)
    # one per cyclic factor of each group (GF(27) is Z_3^3); ds_71_15_3 is
    # stored as rows and proposes none
    assert proposed == 15


def test_plan_class_thresholds_mod7():
    # each residue family starts at its smallest constructed member
    assert plan(43, 7) is not None
    assert plan(43 - 14, 7) is None
    assert plan(48, 7) is not None
    assert plan(48 - 14, 7) is None
    assert plan(52565, 7) is not None
    assert plan(52565 - 28, 7) is None
    assert plan(52495, 7) is not None
    assert plan(683294, 7) is not None
    # one class below its gate is only reachable when divisible by 4, through
    # the exact-Hadamard pool; the 10 mod 28 half stays open
    assert plan(683294 - 28, 7) is None
    assert plan(38, 7) is None
    assert plan(86, 7) is not None
    assert plan(86 - 28, 7) is None


def test_plan_and_threshold_notes_are_pinned_byte_for_byte():
    # SHA-256 over one line per order: plan's recipe JSON for m = 5 and 7,
    # then threshold_note at m = 7, for 3 <= n <= 3000; any change to a
    # chain's gate or builder moves a digest
    recipes = hashlib.sha256()
    for m in (5, 7):
        for n in range(3, 3001):
            r = plan(n, m)
            doc = recipe_to_json(r) if r is not None else None
            recipes.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
    notes = hashlib.sha256()
    for n in range(3, 3001):
        notes.update(json.dumps(threshold_note(n, 7)).encode() + b"\n")
    assert recipes.hexdigest() == (
        "9aab672c88af53146366705065b38fc8ee889ed488bb772a2829aa7f083922e6"
    )
    assert notes.hexdigest() == (
        "0d48f432e6cdab6a35bfc95816ec8fd9a14398dcd7ead13932fa214cfbce5db0"
    )


def test_plan_doubles_once():
    # 12 (mod 28) at m = 7 is the Double of the Paley-11 chain at n / 2
    assert plan(2224, 7) == double(plan(1112, 7))
    v = decide(236, 7)
    assert (v.status, v.reason) == ("Exists", "Constructed")
    assert v.certificate == double(plan(118, 7))
    assert verify_mh(materialize(v.certificate), 7).verdict
    # n - 16 = 0 (mod m) is the Double of n / 2 - 8 = 0 (mod m / 2)
    assert plan(76, 20) == double(double(seed_j_minus_2i(19)))
    # the halves are walked by a loop, not by recursion
    for u in (1, 37, 101):
        for m in (9, 15):
            r = plan(u << 1000, m)
            assert r is None or r.order == u << 1000


def test_plan_doubles_down_to_a_quarter():
    # orders whose half is itself reached only by a Double
    for n in (472, 808):
        r = plan(n, 7)
        assert r == double(double(plan(n // 4, 7))), n
        assert plan(n // 2, 7) is not None and plan(n // 2, 7).node == "Double"
        H = materialize(r)
        assert H.n == n and verify_mh(H, 7).verdict, n
        v = decide(n, 7)
        assert (v.status, v.reason) == ("Exists", "Constructed"), n


def test_plan_double_roots_materialize_and_verify():
    for m in (7, 10, 14):
        for n in range(6, 301, 2):
            r = plan(n, m)
            if r is not None and r.node == "Double":
                H = materialize(r)
                assert H.n == n and verify_mh(H, m).verdict, (n, m)


def test_plan_deep_chains_are_consistent():
    for n in (52565, 52495, 683294, 684302):
        r = plan(n, 7)
        assert r is not None
        assert r.order == n
        assert r.modulus % 7 == 0
        obj = recipe_to_json(r)
        jsonschema.validate(obj, RECIPE_SCHEMA)
        assert recipe_from_json(obj) == r
