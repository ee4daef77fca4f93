import math
import random

import pytest

from modhadamard import (
    DesignParams,
    IncidenceMatrix,
    SignMatrix,
    all_ones,
    catalog_design,
    core_to_design,
    design_to_mh,
    det_squared_mod,
    direct_sum,
    dsum_check,
    format_matrix_text,
    format_rows,
    is_normalized,
    is_quadratic_residue,
    j_minus_2i,
    kronecker,
    materialize,
    mh_modulus_of_exact_design,
    normalize,
    offdiag_residues,
    paley_design,
    paley_hadamard,
    parse_matrix_text,
    plan,
    verify_design,
    verify_mh,
)

from modhadamard import matrices
from modhadamard.constructions import (
    _core_rotations,
    _develop,
    _develop_rotations,
    _two_circulant,
    _two_circulant_rotations,
)
from modhadamard.matrices import (
    _iterate_built,
    _kron,
    _kron_built,
    residue,
)

from conftest import SEED, flip_rows_cols, random_sign_matrix, verified_pool

F2 = SignMatrix.from_entries([[1, 1], [1, -1]])
MODULI = [0] + list(range(2, 13))


def reference_gram(H, m):
    """gram_fields, one pair of rows at a time."""
    n = H.n
    counts = {}
    for i in range(n):
        for j in range(i + 1, n):
            r = residue(H.row_inner(i, j), m)
            counts[r] = counts.get(r, 0) + 1
    return (m, dict(sorted(counts.items())), set(counts) <= {0})


def gram_fields(H, m, rotations=()):
    """verify_mh's fields, with the histogram of offdiag_residues."""
    report = verify_mh(H, m, rotations)
    return (report.modulus, offdiag_residues(H, m), report.verdict)


def reference_kron(H1, H2):
    """The Kronecker product, one column block at a time."""
    n1, n2 = H1.n, H2.n
    mask2 = (1 << n2) - 1
    out = []
    for r1 in H1.rows:
        for r2 in H2.rows:
            bits = 0
            for j1 in range(n1):
                block = r2 ^ mask2 if (r1 >> j1) & 1 else r2
                bits |= block << (j1 * n2)
            out.append(bits)
    return tuple(out)


def test_sign_matrix_entries():
    H = SignMatrix.from_entries([[1, -1], [-1, 1]])
    assert H.entry(0, 0) == 1
    assert H.entry(0, 1) == -1
    assert H.to_entries() == [[1, -1], [-1, 1]]
    with pytest.raises(ValueError, match="entries must be \\+1 or -1"):
        SignMatrix.from_entries([[1, 2], [1, 1]])
    with pytest.raises(ValueError, match="matrix not square"):
        SignMatrix.from_entries([[1, 1], [1]])


def test_incidence_matrix_entries():
    entries = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    D = IncidenceMatrix.from_entries(entries)
    assert D.rows == (0b011, 0b110, 0b101)
    assert [[D.entry(i, j) for j in range(3)] for i in range(3)] == entries
    assert format_rows(D) == ["110", "011", "101"]
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        IncidenceMatrix.from_entries([[1, -1], [0, 1]])
    with pytest.raises(ValueError, match="matrix not square"):
        IncidenceMatrix.from_entries([[1, 0], [1]])
    with pytest.raises(ValueError, match="row bits out of range"):
        IncidenceMatrix(2, (0b100, 0))
    # a bad row in the middle, above or below, is found too
    for rows in ((0, 0b1000, 1), (0, -1, 1)):
        with pytest.raises(ValueError, match="row bits out of range"):
            SignMatrix(3, rows)


def test_verify_mh_examples():
    assert verify_mh(all_ones(7), 7).verdict is True
    assert verify_mh(j_minus_2i(11), 7).verdict is True
    assert verify_mh(all_ones(7), 5).verdict is False


def test_verify_mh_modulus_zero_is_exact():
    assert verify_mh(j_minus_2i(4), 0).verdict is True  # a real Hadamard matrix
    assert verify_mh(all_ones(7), 0).verdict is False


def test_verify_mh_rejects_modulus_one():
    with pytest.raises(ValueError):
        verify_mh(F2, 1)
    with pytest.raises(ValueError):
        verify_mh(F2, -3)


def test_gram_report_residues():
    report = verify_mh(all_ones(7), 5)
    assert offdiag_residues(all_ones(7), 5) == {2: 21}  # every pair has inner product 7
    assert report.modulus == 5 and report.verdict is False


def test_verify_mh_matches_pairwise_reference():
    # rows drawn from a small pool, so most matrices repeat rows; the
    # histogram's key order is part of the report
    rng = random.Random(SEED)
    verdicts = set()
    for _ in range(2000):
        n = rng.randint(1, 14)
        pool = [rng.getrandbits(n) for _ in range(rng.randint(1, n))]
        H = SignMatrix(n, tuple(rng.choice(pool) for _ in range(n)))
        m = rng.choice(MODULI)
        got = gram_fields(H, m)
        want = reference_gram(H, m)
        assert got == want, (H, m)
        assert list(got[1]) == list(want[1])
        verdicts.add((n == 1, got[2]))
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_verify_mh_matches_reference_on_verified_pool():
    pool = verified_pool()
    for H, _ in pool:
        for m in MODULI:
            assert gram_fields(H, m) == reference_gram(H, m)


def test_verify_mh_all_ones():
    for n in range(1, 40):
        pairs = n * (n - 1) // 2
        for m in MODULI:
            _, residues, verdict = got = gram_fields(all_ones(n), m)
            assert got == reference_gram(all_ones(n), m)
            if n == 1 or residue(n, m) == 0:
                assert verdict is True
                assert residues == ({0: pairs} if pairs else {})
            else:
                assert verdict is False
                assert residues == {residue(n, m): pairs}


def test_orbit_reduction_matches_unreduced_check():
    # verify_mh with no proposals checks every pair of distinct rows once;
    # reference_gram checks every pair of rows.  The bases are random, with
    # repeated rows, or J - 2I, which passes at the divisors of n - 4; H2
    # goes on either side, 0 to 3 times.
    rng = random.Random(SEED)
    seen = set()
    for _ in range(1500):
        n = rng.randint(1, 6)
        if rng.random() < 0.5:
            pool = [rng.getrandbits(n) for _ in range(rng.randint(1, n))]
            H = SignMatrix(n, tuple(rng.choice(pool) for _ in range(n)))
        else:
            H = j_minus_2i(n)
        for _ in range(rng.randint(0, 3)):
            if 2 * H.n <= 48:
                H = _kron(H, F2) if rng.random() < 0.5 else _kron(F2, H)
        rows = list(H.rows)
        if rng.random() < 0.5:
            rng.shuffle(rows)
        if rng.random() < 0.3:
            rows[rng.randrange(H.n)] ^= 1 << rng.randrange(H.n)
        H = SignMatrix(H.n, tuple(rows))
        m = rng.choice(MODULI)
        got = gram_fields(H, m)
        assert got == reference_gram(H, m), (H, m)
        seen.add(got[2])
    assert seen == {False, True}


def _kept_maps(H, rotations):
    """The permutations of H's distinct rows that verify_mh uses with the
    proposed rotations, after checking that each is a permutation of their
    indices."""
    distinct = list(dict.fromkeys(H.rows))
    perms = matrices._permutations(distinct, H.n, rotations)
    for p in perms:
        assert sorted(p) == list(range(len(distinct)))
    return perms


def _random_bits(rng, n):
    return {j for j in range(n) if rng.random() < 0.5}


def _symmetric_piece(rng):
    """A small matrix and rotations that are symmetries of it by
    construction: J - 2I, a Paley matrix, a two-circulant or a developed
    design, the last two from random first rows."""
    kind = rng.randrange(4)
    if kind == 0:
        n = rng.randint(3, 8)
        return j_minus_2i(n), _core_rotations(n)
    if kind == 1:
        q = rng.choice((3, 7, 11))
        return paley_hadamard(q), _core_rotations(q + 1)
    if kind == 2:
        b = rng.randint(2, 6)
        H = _two_circulant(b, _random_bits(rng, b), _random_bits(rng, b))
        return H, _two_circulant_rotations(b)
    mods = rng.choice([(5,), (7,), (2, 3), (3, 2), (2, 2), (2, 2, 2), (4, 2)])
    D = _develop(mods, _random_bits(rng, math.prod(mods)))
    return design_to_mh(D), _develop_rotations(mods)


def _wrong_rotations(rng, n, rotations):
    """Proposals that are mostly no symmetry: a valid one with its blocks
    one column off or a different shift, or a random block."""
    out = []
    for L, s, starts in rotations:
        step = rng.choice((-1, 1))
        if all(0 <= a + step and a + step + L <= n for a in starts):
            out.append((L, s, tuple(a + step for a in starts)))
        if L > 2:
            out.append((L, s % (L - 1) + 1, starts))
    if n >= 3:
        L = rng.randint(2, n)
        out.append((L, rng.randint(1, L - 1), (rng.randint(0, n - L),)))
    return out


def test_orbit_reduction_with_rotations_matches_unreduced_check():
    # verify_mh with proposed column rotations (pruning on) against
    # reference_gram (pruning off).  The rotations are built with the
    # pieces (seeds of each kind) and lifted through Kronecker products on
    # either side, Double and rounds of Iterate, as _build does; wrong
    # proposals are mixed in, and a flipped entry or repeated rows break
    # some of the right ones.  Every map the check uses must permute the
    # distinct rows.
    rng = random.Random(SEED)
    seen = set()
    dropped = 0
    for _ in range(1500):
        H, rotations = _symmetric_piece(rng)
        for _ in range(rng.randint(0, 2)):
            step = rng.randrange(3)
            if step == 0:
                other = _symmetric_piece(rng)
                if other[0].n * H.n <= 48:
                    pieces = [(H, rotations), other]
                    rng.shuffle(pieces)
                    H, rotations = _kron_built(*pieces)
            elif step == 1 and 2 * H.n <= 48:
                H, rotations = _kron_built((H, rotations), (F2, ()))
            elif step == 2:
                mods = rng.choice([(3,), (5,), (2, 2), (7,)])
                D = _develop(mods, _random_bits(rng, math.prod(mods)))
                # up to the base order and one companion block past it, so
                # that companion rows and columns leave too; order <= 48
                most = min(H.n + D.v, (48 - H.n) // (D.v - 1))
                if most >= 1:
                    rounds = rng.randint(1, most)
                    H, rotations = _iterate_built(
                        (H, rotations), D, _develop_rotations(mods), rounds
                    )
        if rng.random() < 0.5:
            rotations = list(rotations) + _wrong_rotations(rng, H.n, rotations)
            rng.shuffle(rotations)
        rows = list(H.rows)
        rng.shuffle(rows)
        if rng.random() < 0.2:
            rows[rng.randrange(H.n)] = rows[rng.randrange(H.n)]
        i = rng.randrange(H.n)
        # one flipped entry changes every inner product of its row by 2;
        # two in one row change some by 4 and leave the others
        for _ in range(rng.choice((0, 0, 1, 2))):
            rows[i] ^= 1 << rng.randrange(H.n)
        H = SignMatrix(H.n, tuple(rows))
        m = rng.choice(MODULI)
        got = gram_fields(H, m, rotations)
        assert got == reference_gram(H, m), (H, m, rotations)
        kept = len(_kept_maps(H, rotations))
        dropped += len(rotations) - kept
        seen.add((kept > 0, got[2]))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}
    assert dropped > 100


def test_iterate_proposes_the_rotations_off_the_columns_that_left():
    # a rotation of the base is proposed only if it keeps off the columns
    # that leave; companion blocks still whole keep theirs, at their place
    # minus the rounds.  verify_mh alone decides whether a proposal holds:
    # J - 2I's rotation does after a round, but not once row 0 is moved
    H, rotation = paley_hadamard(7), _core_rotations(8)  # fixes row 0 only
    D, companion = _develop((3,), {0}), _develop_rotations((3,))
    assert _iterate_built((H, rotation), D, (), 1)[1] == ((7, 1, (0,)),)
    assert _iterate_built((H, rotation), D, (), 2)[1] == ()
    rows = j_minus_2i(8).rows
    for base, holds in ((rows, 1), (rows[1:] + rows[:1], 0)):
        mat, proposed = _iterate_built((SignMatrix(8, base), rotation), D, (), 1)
        assert proposed == ((7, 1, (0,)),)
        distinct = list(dict.fromkeys(mat.rows))
        assert len(matrices._permutations(distinct, mat.n, proposed)) == holds
    assert _iterate_built((H, ()), D, companion, 3)[1] == ((3, 1, (5, 8, 11)),)
    assert _iterate_built((H, ()), D, companion, 9)[1] == ((3, 1, tuple(range(2, 24, 3))),)


def test_histogram_built_on_demand(monkeypatch):
    # verify_mh never counts the residues, not even for a failing matrix
    # order 200 at m = 5: the copies of row 0 pass, the flipped entry fails
    rows = list(materialize(plan(200, 5)).rows)
    rows[1:9] = [rows[0]] * 8
    rows[50] ^= 1 << 17
    paley = list(paley_hadamard(19).rows)
    paley[3] ^= 1 << 5
    cases = ((SignMatrix(200, tuple(rows)), 5), (SignMatrix(20, tuple(paley)), 0))

    def refuse(H, m):
        raise AssertionError("verify_mh counted the residues")

    with monkeypatch.context() as patch:
        patch.setattr(matrices, "offdiag_residues", refuse)
        assert [verify_mh(H, m).verdict for H, m in cases] == [False, False]
    for H, m in cases:
        got, want = offdiag_residues(H, m), reference_gram(H, m)[1]
        assert got == want and list(got) == list(want)


def test_kron_matches_blockwise_reference():
    rng = random.Random(SEED)
    double = SignMatrix(2, (0, 2))
    for n1 in range(1, 13):
        for n2 in range(1, 13):
            H1 = random_sign_matrix(rng, n1)
            H2 = random_sign_matrix(rng, n2)
            K = _kron(H1, H2)
            assert K.n == n1 * n2
            assert K.rows == reference_kron(H1, H2), (n1, n2)
        assert _kron(H1, double).rows == reference_kron(H1, double)
    H = materialize(plan(22, 7))
    assert _kron(H, double).rows == reference_kron(H, double)


def test_row_inner_matches_naive():
    rng = random.Random(SEED)
    for _ in range(1000):
        n = rng.randint(1, 24)
        H = random_sign_matrix(rng, n)
        i = rng.randrange(n)
        j = rng.randrange(n)
        naive = sum(H.entry(i, c) * H.entry(j, c) for c in range(n))
        assert H.row_inner(i, j) == naive


def test_verify_design_examples():
    fano, fparams = catalog_design("fano_7_3_1")
    assert verify_design(fano, DesignParams(7, 3, 1, 7)) is True
    menon, _ = catalog_design("menon_36_15_6")
    assert verify_design(menon, DesignParams(36, 15, 6, 7)) is True
    eye = IncidenceMatrix(4, (1, 2, 4, 8))
    assert verify_design(eye, DesignParams(4, 1, 1, 3)) is False


def reference_design(D, params):
    """verify_design's answer, one row, column and pair of rows at a time,
    with the name of the first check that fails."""
    m, v, rows = params.modulus, D.v, D.rows

    def ok(x, want):
        return x == want if m == 0 else (x - want) % m == 0

    if not all(ok(r.bit_count(), params.k) for r in rows):
        return "row"
    if not all(ok(sum(1 for r in rows if r >> j & 1), params.k) for j in range(v)):
        return "column"
    for i in range(v):
        for j in range(i + 1, v):
            if not ok((rows[i] & rows[j]).bit_count(), params.lam):
                return "pair"
    return None


def test_verify_design_matches_pairwise_reference():
    # random rows, random rows of one weight, and circulants, so that each
    # of the three checks is the first to fail somewhere; then designs,
    # shuffled, with their own and a wrong lambda
    rng = random.Random(SEED)
    cases = []
    for t in range(2400):
        v = rng.randint(2, 9)
        k = rng.randint(0, v)
        if t % 3 == 0:
            rows = [rng.getrandbits(v) for _ in range(v)]
        elif t % 3 == 1:
            rows = [sum(1 << j for j in rng.sample(range(v), k)) for _ in range(v)]
        else:
            first = rng.sample(range(v), k)
            rows = [sum(1 << (i + j) % v for j in first) for i in range(v)]
        lam = (rows[0] & rows[1]).bit_count() if rng.random() < 0.7 else rng.randint(0, v)
        cases.append((IncidenceMatrix(v, tuple(rows)), v, k, lam, rng.choice(MODULI)))
    designs = [catalog_design(name)[0] for name in ("fano_7_3_1", "menon_36_15_6")]
    designs += [paley_design(q)[0] for q in (11, 27)]
    for D in designs:
        v, k = D.v, D.rows[0].bit_count()
        lam = k * (k - 1) // (v - 1)
        perm = rng.sample(range(v), v)
        shuffled = [sum(1 << perm[j] for j in range(v) if r >> j & 1) for r in D.rows]
        rng.shuffle(shuffled)
        for m in MODULI:
            for M in (D, IncidenceMatrix(v, tuple(shuffled))):
                cases += [(M, v, k, lam, m), (M, v, k, lam + 1, m)]
    outcomes = set()
    for D, v, k, lam, m in cases:
        params = DesignParams(v, k, lam, m)
        want = reference_design(D, params)
        assert verify_design(D, params) is (want is None), (D, params)
        outcomes.add(want)
    assert outcomes == {None, "row", "column", "pair"}


def test_normalize_first_row_and_column():
    H = normalize(j_minus_2i(9))
    assert is_normalized(H)
    assert H.rows[0] == 0
    assert all((r & 1) == 0 for r in H.rows)
    # idempotent, and F2 is already normalized
    assert normalize(H) == H
    assert normalize(F2) == F2


def test_normalize_preserves_verdict():
    """Row and column negations never change any Gram residue class."""
    rng = random.Random(SEED)
    pool = verified_pool()
    for _ in range(100):
        H, m = pool[rng.randrange(len(pool))]
        scrambled = flip_rows_cols(H, rng)
        renormalized = normalize(scrambled)
        is_normalized(renormalized)
        for modulus in range(2, 16):
            assert (
                verify_mh(renormalized, modulus).verdict
                == verify_mh(H, modulus).verdict
            )


def test_kronecker_examples():
    K, m = kronecker(F2, 2, F2, 2)
    assert (K.n, m) == (4, 4)
    assert verify_mh(K, 4).verdict

    K, m = kronecker(j_minus_2i(11), 7, F2, 7)
    assert (K.n, m) == (22, 7)
    assert verify_mh(K, 7).verdict

    K, m = kronecker(all_ones(5), 5, all_ones(7), 7)
    assert (K.n, m) == (35, 35)
    assert verify_mh(K, 35).verdict


def test_kronecker_rejects_bad_input():
    with pytest.raises(ValueError):
        kronecker(all_ones(7), 5, F2, 2)  # J7 is not an MH(7,5)


def test_kronecker_modulus_law():
    rng = random.Random(SEED)
    pool = [(H, m) for H, m in verified_pool() if H.n <= 22]
    for _ in range(100):
        H1, m1 = pool[rng.randrange(len(pool))]
        H2, m2 = pool[rng.randrange(len(pool))]
        if H1.n * H2.n > 300:
            continue
        K, m = kronecker(H1, m1, H2, m2)
        assert K.n == H1.n * H2.n
        if m1 == 0 or m2 == 0:
            assert m == 0 or verify_mh(K, m).verdict
        else:
            assert m == math.gcd(math.gcd(m1 * m2, H1.n * m2), H2.n * m1)
        if m != 1:
            assert verify_mh(K, m).verdict


def test_core_to_design_examples():
    H22 = materialize(plan(22, 7))
    D, params = core_to_design(normalize(H22), 7)
    assert (params.v, params.k, params.lam, params.modulus) == (21, 3, 1, 7)
    assert verify_design(D, params)

    D, params = core_to_design(normalize(j_minus_2i(11)), 7)
    assert (params.v, params.k, params.lam, params.modulus) == (10, 1, 0, 7)
    assert verify_design(D, params)

    H12 = materialize(plan(12, 5))
    D, params = core_to_design(normalize(H12), 5)
    assert (params.v, params.k, params.lam, params.modulus) == (11, 0, 2, 5)
    assert verify_design(D, params)


def test_core_to_design_preconditions():
    with pytest.raises(ValueError):
        core_to_design(normalize(all_ones(7)), 7)  # gcd(7,7) = 7
    with pytest.raises(ValueError):
        core_to_design(j_minus_2i(11), 7)  # not normalized


def test_direct_sum_and_check():
    d21 = DesignParams(21, 3, 1, 7)
    d36 = DesignParams(36, 15, 6, 7)
    assert dsum_check(d21, d36) is True
    assert dsum_check(d21, DesignParams(36, 15, 5, 7)) is False
    with pytest.raises(ValueError):
        dsum_check(d21, DesignParams(36, 15, 6, 5))

    H22 = materialize(plan(22, 7))
    D1, p1 = core_to_design(normalize(H22), 7)
    D2, _ = catalog_design("menon_36_15_6")
    p2 = DesignParams(36, 15, 6, 7)
    S = direct_sum(D1, p1, D2, p2)
    assert S.v == 57
    H = design_to_mh(S)
    assert verify_mh(H, 7).verdict


def test_design_to_mh_edge_cases():
    ones = IncidenceMatrix(5, tuple((1 << 5) - 1 for _ in range(5)))
    H = design_to_mh(ones)
    assert H.rows == all_ones(5).rows
    assert verify_mh(H, 5).verdict

    zeros = IncidenceMatrix(3, (0, 0, 0))
    H = design_to_mh(zeros)
    assert all(H.entry(i, j) == -1 for i in range(3) for j in range(3))
    assert verify_mh(H, 3).verdict


def test_mh_modulus_of_exact_design():
    assert mh_modulus_of_exact_design(DesignParams(7, 3, 1, 0)) == 1
    assert mh_modulus_of_exact_design(DesignParams(11, 5, 2, 0)) == 1
    # Menon parameters: v = 4(k - lambda), the sign version is exactly Hadamard
    assert mh_modulus_of_exact_design(DesignParams(36, 15, 6, 0)) == 0


def test_det_squared_examples():
    assert det_squared_mod(F2, 5) == 4
    assert det_squared_mod(j_minus_2i(11), 7) == 2
    K, _ = kronecker(F2, 2, F2, 2)
    assert det_squared_mod(K, 3) == 1
    with pytest.raises(ValueError):
        det_squared_mod(materialize(plan(22, 7)), 7)  # order above the exact-det cap


def test_det_squared_consistency():
    """For a true MH(n, m) with n odd and coprime to m, det^2 lands on n^n."""
    rng = random.Random(SEED)
    cases = 0
    mats = [j_minus_2i(n) for n in range(7, 20, 2)]
    for H in mats:
        scrambled = flip_rows_cols(H, rng)  # det flips sign at most
        for modulus in range(2, 16):
            if not verify_mh(H, modulus).verdict:
                continue
            if H.n % 2 and math.gcd(H.n, modulus) == 1:
                want = pow(H.n, H.n, modulus)
                assert det_squared_mod(H, modulus) == want
                assert det_squared_mod(scrambled, modulus) == want
                assert is_quadratic_residue(H.n % modulus, modulus)
                cases += 1
    assert cases >= 10


def test_parse_format_round_trip():
    H = j_minus_2i(7)
    text = format_matrix_text(H, 3)
    M, m = parse_matrix_text(text)
    assert m == 3
    assert M.rows == H.rows

    D, params = catalog_design("fano_7_3_1")
    text = format_matrix_text(D, params=DesignParams(7, 3, 1, 7))
    M2, p2 = parse_matrix_text(text)
    assert M2.rows == D.rows
    assert (p2.v, p2.k, p2.lam, p2.modulus) == (7, 3, 1, 7)

    # a header needs the modulus, or the parameters, for either kind
    with pytest.raises(ValueError, match="sign matrix needs a modulus"):
        format_matrix_text(H)
    with pytest.raises(ValueError, match="incidence matrix needs params"):
        format_matrix_text(D)


def test_parse_format_round_trip_random():
    rng = random.Random(SEED)
    for n in range(1, 30):
        H = random_sign_matrix(rng, n)
        assert parse_matrix_text(format_matrix_text(H, n % 7)) == (H, n % 7)
        if n >= 2:
            D = IncidenceMatrix(n, random_sign_matrix(rng, n).rows)
            params = DesignParams(n, n % 5, n % 3, n % 4 * 3)
            assert parse_matrix_text(format_matrix_text(D, params=params)) == (D, params)


def test_parse_rejects_ragged_rows():
    with pytest.raises(ValueError, match="ragged row: '\\+\\+'"):
        parse_matrix_text("3 2\n+++\n++\n+++\n")
    with pytest.raises(ValueError, match="bad character in row '\\+\\+\\*'"):
        parse_matrix_text("3 2\n+++\n++*\n+++\n")
    with pytest.raises(ValueError, match="bad character in row '\\*\\+\\+'"):
        parse_matrix_text("3 2\n+++\n*++\n+++\n")
    with pytest.raises(ValueError, match="bad character in row '101'"):
        parse_matrix_text("3 2\n+++\n101\n+++\n")
    with pytest.raises(ValueError, match="bad character in row '\\+-0'"):
        parse_matrix_text("3 1 0 3\n101\n+-0\n111\n")
    with pytest.raises(ValueError, match="expected 3 rows, got 2"):
        parse_matrix_text("3 2\n+++\n+++\n")
    with pytest.raises(ValueError, match="header must be"):
        parse_matrix_text("3\n+++\n")
    with pytest.raises(ValueError, match="empty input"):
        parse_matrix_text(" \n\n")


def test_parse_tolerates_whitespace():
    M, m = parse_matrix_text("  2   3 \n\n + + \n +-\n")
    assert M.n == 2
    assert m == 3


def test_orthogonal_popcounts_match_brute_force():
    for m in [0] + list(range(2, 41)):
        for n in range(201):
            brute = {c for c in range(n + 1) if residue(n - 2 * c, m) == 0}
            assert matrices._orthogonal_popcounts(n, m) == brute, (n, m)


def _formatted_row_by_row(M):
    """The reference for format_rows: every row formatted on its own."""
    n = M.n if isinstance(M, SignMatrix) else M.v
    rows = [format(r, "0%db" % n)[::-1] for r in M.rows]
    if isinstance(M, SignMatrix):
        rows = [r.translate(str.maketrans("01", "+-")) for r in rows]
    return rows


def test_round_trip_with_repeated_rows():
    J = all_ones(1001)
    text = format_matrix_text(J, 7)
    assert text == "1001 7\n" + ("+" * 1001 + "\n") * 1001
    assert parse_matrix_text(text) == (J, 7)
    rng = random.Random(SEED)
    for n in (2, 5, 17, 64):
        pool = [rng.getrandbits(n) for _ in range(3)]
        H = SignMatrix(n, tuple(rng.choice(pool) for _ in range(n)))
        assert len(set(H.rows)) < n
        assert format_rows(H) == _formatted_row_by_row(H)
        assert parse_matrix_text(format_matrix_text(H, 3)) == (H, 3)
        D = IncidenceMatrix(n, H.rows)
        params = DesignParams(n, 1, 0, 0)
        assert format_rows(D) == _formatted_row_by_row(D)
        assert parse_matrix_text(format_matrix_text(D, params=params)) == (D, params)


def test_rows_differing_in_inner_whitespace_parse_to_one_row():
    M, _ = parse_matrix_text("3 2\n+-+\n+ -+\n+  - \t+\n")
    assert M.rows == (0b010,) * 3


def test_repeated_bad_row_reported_by_first_occurrence():
    with pytest.raises(ValueError, match="bad character in row '\\+\\*\\+'"):
        parse_matrix_text("3 2\n+*+\n+ *+\n+*+\n")
    with pytest.raises(ValueError, match="ragged row: '\\+\\+'"):
        parse_matrix_text("4 2\n++++\n++\n+-*+\n++\n")
    with pytest.raises(ValueError, match="bad character in row '\\+-\\*\\+'"):
        parse_matrix_text("4 2\n++++\n+-*+\n++\n+-*+\n")
    # a letter outside ASCII is a bad character, named as written
    with pytest.raises(ValueError, match="bad character in row '\\+\u00e9\\+'"):
        parse_matrix_text("3 2\n+++\n+\u00e9+\n+\u00e9+\n")
