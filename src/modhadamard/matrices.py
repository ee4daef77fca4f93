"""Exact sign-matrix and incidence-matrix types with modular Gram checks.

Rows are bit-packed into Python ints. For a SignMatrix, bit j set means
entry -1 in column j, so the all-plus-one row is the integer 0 and the
inner product of two rows is n - 2*popcount(xor). For an IncidenceMatrix,
bit j set means entry 1.

Modulus 0 means exact: a congruence mod 0 is an equality. gcd follows the
same convention (gcd(0, x) = x), which makes the Kronecker modulus law
degrade gracefully to real Hadamard matrices.
"""

from collections import Counter, namedtuple
from itertools import accumulate, repeat
from math import gcd
from operator import and_, xor

from ._record import Record

__all__ = [
    "SignMatrix",
    "IncidenceMatrix",
    "all_ones",
    "j_minus_2i",
    "DesignParams",
    "GramReport",
    "residue",
    "verify_mh",
    "offdiag_residues",
    "verify_design",
    "normalize",
    "is_normalized",
    "kronecker",
    "core_to_design",
    "direct_sum",
    "dsum_check",
    "design_to_mh",
    "mh_modulus_of_exact_design",
    "det_squared_mod",
    "parse_matrix_text",
    "format_matrix_text",
    "format_rows",
]


def residue(x, m):
    """Canonical residue of x mod m; identity when m = 0 (exact)."""
    if m == 0:
        return x
    return x % m


def _congruent(x, y, m):
    return x == y if m == 0 else (x - y) % m == 0


def _check_rows(order, rows):
    """Positive order, `order` rows, and no bit at or past column `order`."""
    if order < 1:
        raise ValueError("order must be positive")
    if len(rows) != order:
        raise ValueError("row count != order")
    if min(rows) < 0 or max(rows) >> order:
        raise ValueError("row bits out of range")


def _pack_entries(entries, set_entry, clear_entry, message):
    """(order, packed rows) of square entries; `set_entry` is a set bit."""
    order = len(entries)
    rows = []
    for row in entries:
        if len(row) != order:
            raise ValueError("matrix not square")
        bits = 0
        for j, e in enumerate(row):
            if e == set_entry:
                bits |= 1 << j
            elif e != clear_entry:
                raise ValueError(message)
        rows.append(bits)
    return order, tuple(rows)


class SignMatrix(Record, namedtuple("SignMatrix", "n rows")):
    """Square matrix over {+1, -1}, rows bit-packed (set bit = -1)."""

    __slots__ = ()

    def __new__(cls, n, rows):
        _check_rows(n, rows)
        return tuple.__new__(cls, (n, rows))

    @classmethod
    def from_entries(cls, entries):
        return cls(*_pack_entries(entries, -1, 1, "entries must be +1 or -1"))

    def entry(self, i, j):
        return -1 if (self.rows[i] >> j) & 1 else 1

    def to_entries(self):
        return [[self.entry(i, j) for j in range(self.n)] for i in range(self.n)]

    def row_inner(self, i, j):
        return self.n - 2 * (self.rows[i] ^ self.rows[j]).bit_count()


def all_ones(n):
    """The matrix J."""
    return SignMatrix(n, (0,) * n)


def j_minus_2i(n):
    """J - 2I: +1 everywhere except -1 on the diagonal."""
    return SignMatrix(n, tuple(1 << i for i in range(n)))


class IncidenceMatrix(Record, namedtuple("IncidenceMatrix", "v rows")):
    """Square 0/1 matrix, rows bit-packed (set bit = 1)."""

    __slots__ = ()

    def __new__(cls, v, rows):
        _check_rows(v, rows)
        return tuple.__new__(cls, (v, rows))

    @classmethod
    def from_entries(cls, entries):
        return cls(*_pack_entries(entries, 1, 0, "entries must be 0 or 1"))

    def entry(self, i, j):
        return (self.rows[i] >> j) & 1


class DesignParams(Record, namedtuple("DesignParams", "v k lam modulus")):
    """(v, k, lambda; m) parameter record.

    k and lam are kept as exact integers when known; congruence checks
    reduce them at the modulus. modulus 0 means the design is exact.
    """

    __slots__ = ()

    def __new__(cls, v, k, lam, modulus):
        if v < 2:
            raise ValueError("v must be >= 2")
        if modulus < 0 or modulus == 1:
            raise ValueError("modulus must be 0 (exact) or >= 2")
        return tuple.__new__(cls, (v, k, lam, modulus))


class GramReport(Record, namedtuple("GramReport", "modulus verdict")):
    """Outcome of verify_mh: verdict says whether H H^T = nI at the
    modulus.  offdiag_residues(H, m) counts the residues themselves."""

    __slots__ = ()


def _orthogonal_popcounts(n, m):
    """The popcounts c in 0..n of the xor of two sign rows of length n whose
    inner product n - 2c is 0 at the modulus; two copies of one row have
    c = 0.  They form one progression: 2c = n exactly (m = 0), c = n / 2
    mod m for odd m, and c = n / 2 mod m / 2 for even m and n."""
    if m % 2:
        return frozenset(range(n * (m + 1) // 2 % m, n + 1, m))
    if n % 2:
        return frozenset()
    if m == 0:
        return frozenset([n // 2])
    return frozenset(range(n // 2 % (m // 2), n + 1, m // 2))


def _every_pair(firsts, rows, starts, op, allowed):
    """Is the popcount of op(x, r) in allowed for each x in firsts, paired
    with its start in starts, and every r in rows[start:]?  The one pair
    kernel of the Gram checks: each first row is tested against its rows at
    C speed, and the check stops at the first failing pair.  firsts = rows
    with starts 1, 2, 3, ... is every pair."""
    return all(
        allowed.issuperset(map(int.bit_count, map(op, repeat(x), rows[start:])))
        for x, start in zip(firsts, starts)
    )


def _rotation(rotation, n):
    """The column permutation rotation = (L, s, starts) of rows of n bits,
    as a function of a row: in each block of columns [a, a + L), a in
    starts, column a + j goes to a + (j + s) % L.  So the blocks' first
    L - s columns move up by s and their last s down by L - s, and a row
    costs a few big-int operations.  None unless the blocks are disjoint
    and inside [0, n) and 0 < s < L: else the map is no permutation.
    """
    L, s, starts = rotation
    starts = sorted(starts)
    if not (
        0 < s < L
        and starts
        and starts[0] >= 0
        and starts[-1] + L <= n
        and all(b - a >= L for a, b in zip(starts, starts[1:]))
    ):
        return None
    low = high = 0
    for a in starts:
        low |= ((1 << (L - s)) - 1) << a
        high |= ((1 << s) - 1) << (a + L - s)
    keep = ((1 << n) - 1) ^ low ^ high
    back = L - s
    return lambda r: (r & low) << s | (r & high) >> back | r & keep


def _permutations(rows, n, rotations):
    """Each proposed rotation (see _rotation) that maps every distinct row
    to a row, as the list of the indices of the rows' images.  A proposal
    is applied once to each row; one with an image that is no row is
    dropped, never trusted.  A column permutation is injective, so one
    that maps the rows into themselves permutes them."""
    index = {r: i for i, r in enumerate(rows)}
    perms = []
    for rotation in rotations:
        turn = _rotation(rotation, n)
        if turn is not None:
            perm = list(map(index.get, map(turn, rows)))
            if None not in perm:
                perms.append(perm)
    return perms


def _orbits(rows, perms):
    """The distinct rows split into the orbits of the group that the
    permutations of their indices generate, each a list that starts with
    its first row in the given order, largest orbits first and otherwise
    in the order of their first rows.  An orbit is the rows reached from
    its first one by the permutations."""
    seen = [False] * len(rows)
    out = []
    for i in range(len(rows)):
        if not seen[i]:
            seen[i] = True
            orbit = [i]
            for x in orbit:
                for p in perms:
                    y = p[x]
                    if not seen[y]:
                        seen[y] = True
                        orbit.append(y)
            out.append([rows[j] for j in orbit])
    out.sort(key=len, reverse=True)
    return out


def verify_mh(H, m, rotations=()):
    """Gram check: does H H^T equal nI at the modulus?

    Returns a GramReport; .verdict is the answer.  The check stops at the
    first failing pair and counts no residues; offdiag_residues does.

    Copies of one row have inner product n, so they pass against each
    other exactly when n = 0 at the modulus; then each pair of distinct
    rows is checked once against the popcounts whose inner product
    vanishes, and the check stops at the first failing pair.

    One pair per orbit of a group G of symmetries is enough: G is generated
    by those of the proposed column rotations (L, s, starts), see
    _rotation, that map every distinct row to a row; each is checked here,
    none is trusted (_permutations).  Every g in G permutes the d distinct
    rows and, as a column permutation, keeps the popcount of u ^ v, so a
    pair and its image under g have the same inner product.  The rows are
    split into G-orbits, largest first (the fewest pairs), and each orbit's
    first row x is checked against every row from its own orbit onward.
    If u is in orbit A with first row x and g(u) = x, then (x, g(v)) is
    such a checked pair (take A to be the earlier of the orbits of u and
    v) with the popcount of u ^ v.  With no rotation kept, that is every
    pair of distinct rows.
    """
    if m < 0 or m == 1:
        raise ValueError("modulus must be 0 (exact) or >= 2")
    n = H.n
    distinct = list(dict.fromkeys(H.rows))
    allowed = _orthogonal_popcounts(n, m)
    passed = len(distinct) == n or 0 in allowed
    if passed:
        orbits = _orbits(distinct, _permutations(distinct, n, rotations))
        rows = [r for orbit in orbits for r in orbit]
        starts = accumulate(map(len, orbits), initial=1)
        passed = _every_pair([o[0] for o in orbits], rows, starts, xor, allowed)
    return GramReport(m, passed)


def offdiag_residues(H, m):
    """The inner products of H's pairs of rows i < j at the modulus, as a
    histogram {residue: pairs} sorted by residue; counted on every call."""
    if m < 0 or m == 1:
        raise ValueError("modulus must be 0 (exact) or >= 2")
    n, rows = H.n, H.rows
    table = [residue(n - 2 * c, m) for c in range(n + 1)]
    counts = Counter()
    for i, ri in enumerate(rows):
        xors = map(ri.__xor__, rows[i + 1 :])
        counts.update(map(table.__getitem__, map(int.bit_count, xors)))
    return dict(sorted(counts.items()))


def verify_design(D, params):
    """Check D D^T = (k-lam) I + lam J and DJ = JD = kJ at the modulus.

    As in verify_mh, each pair of rows is checked once, by _every_pair,
    against the allowed intersection sizes.  The column sums are counted
    on one transpose of the text rows: column j is every v-th character.
    """
    if D.v != params.v:
        raise ValueError("dimension mismatch: matrix %d vs params %d" % (D.v, params.v))
    m, v, rows = params.modulus, D.v, D.rows
    is_k = frozenset(c for c in range(v + 1) if _congruent(c, params.k, m))
    is_lam = frozenset(c for c in range(v + 1) if _congruent(c, params.lam, m))
    text = "".join(format_rows(D))
    return (
        is_k.issuperset(map(int.bit_count, rows))
        and is_k.issuperset(text[j::v].count("1") for j in range(v))
        and _every_pair(rows, rows, range(1, v), and_, is_lam)
    )


def normalize(H):
    """Negate rows and columns until the first row and column are all +1."""
    mask = (1 << H.n) - 1
    colflip = H.rows[0]
    rows = [r ^ colflip for r in H.rows]
    rows = [r ^ mask if r & 1 else r for r in rows]
    return SignMatrix(H.n, tuple(rows))


def is_normalized(H):
    return H.rows[0] == 0 and all(not r & 1 for r in H.rows)


def kronecker(H1, m1, H2, m2):
    """Kronecker product with the modulus law of _kron_modulus.

    Both inputs are re-verified at their stated moduli first; the output
    order is n1*n2.
    """
    if not verify_mh(H1, m1).verdict:
        raise ValueError("left factor fails verification at modulus %d" % m1)
    if not verify_mh(H2, m2).verdict:
        raise ValueError("right factor fails verification at modulus %d" % m2)
    return _kron(H1, H2), _kron_modulus(H1.n, m1, H2.n, m2)


def _kron_modulus(n1, m1, n2, m2):
    """Modulus of the Kronecker product of an MH(n1, m1) and an MH(n2, m2):
    rows (a, b) != (a', b') have inner product <a, a'> <b, b'>."""
    return gcd(m1 * m2, n1 * m2, n2 * m1)


def _kron(H1, H2):
    """The Kronecker product's rows, unchecked.

    Block (j1, i2) of output row (i1, i2) is row i2 of H2, negated where
    entry j1 of row i1 of H1 is -1. So an output row is the H2 row repeated
    n1 times, XOR the block mask at every set bit of the H1 row. Spreading
    the H1 row's bits to stride n2 once makes each output row two big-int
    operations.  The spread row is the H1 row's binary digits written into
    every n2-th place of a string of zeros, reused from row to row.
    """
    n1, n2 = H1.n, H2.n
    spec = "0%db" % n1
    spread = bytearray(b"0" * (n1 * n2))
    spread[n2 - 1 :: n2] = b"1" * n1
    repunit = int(spread, 2)  # bit j1*n2 set for every j1
    mask2 = (1 << n2) - 1
    tiles = [r2 * repunit for r2 in H2.rows]
    out = []
    for r1 in H1.rows:
        spread[n2 - 1 :: n2] = format(r1, spec).encode()
        negated = int(spread, 2) * mask2
        out += [negated ^ t for t in tiles]
    return SignMatrix(n1 * n2, tuple(out))


def _kron_built(left, right):
    """_kron of two built (matrix, rotations) pairs, with the product's
    rotations: column j2 of block j1 is column j1 * n2 + j2, so the right
    factor's blocks turn inside each block of n2 columns, and the left
    factor's turn whole blocks of n2 columns."""
    (H1, rot1), (H2, rot2) = left, right
    n1, n2 = H1.n, H2.n
    rotations = tuple(
        (L * n2, s * n2, tuple(a * n2 for a in starts)) for L, s, starts in rot1
    ) + tuple(
        (L, s, tuple(b + a for b in range(0, n1 * n2, n2) for a in starts))
        for L, s, starts in rot2
    )
    return _kron(H1, H2), rotations


def _iterate_built(built, comp, companion, rounds):
    """The built (matrix, rotations) pair of a base after the given number
    of extension rounds (the rounds of an Iterate recipe), each
    H -> design_to_mh(_direct_sum(_core(normalize(H)), comp)), with the
    companion incidence matrix comp, whose rotations are companion.

    A round is one pass over the rows, and one SignMatrix is built at the
    end.  With t = r ^ row0, normalize and _core make row r (row 0 left
    out) the core row t >> 1, complemented on the core's n - 1 columns
    unless t & 1; 2D - J complements it once more and turns the direct
    sum's ones on the companion's columns into zeros.  Companion row d
    becomes its complement, moved past the core's n - 1 columns.

    Rows and columns leave in the order they arrived: a round drops row 0
    and column 0 and appends the companion's v of each.  With the base's
    n places first and each round's v after them, the first `rounds`
    places are gone and place c ends at c - rounds.  A rotation of one
    piece, the base or round i's companion at place n + i v, that touches
    no place below `rounds` is proposed, `rounds` places down.  It is a
    symmetry when it also fixes the piece's rows that the rounds drop, as
    it then commutes with each round; verify_mh keeps only the proposals
    that permute the rows, so that is not checked here.  Rotations with
    equal (L, s), which act on disjoint blocks, are merged into one.
    """
    mat, v = built[0], comp.v
    n, rows = mat.n, mat.rows
    pieces = [(0, built[1])] + [(n + i * v, companion) for i in range(rounds)]
    merged = {}
    for place, rotations in pieces:
        for L, s, starts in rotations:
            if place + min(starts) >= rounds:
                merged.setdefault((L, s), []).extend(a + place - rounds for a in starts)
    flipped = [d ^ ((1 << v) - 1) for d in comp.rows]
    for _ in range(rounds):
        row0 = rows[0]
        core = (1 << (n - 1)) - 1
        rows = [t >> 1 ^ core if t & 1 else t >> 1 for t in map(row0.__xor__, rows[1:])]
        rows += [d << (n - 1) for d in flipped]
        n += v - 1
    rotations = tuple((L, s, tuple(starts)) for (L, s), starts in merged.items())
    return SignMatrix(n, tuple(rows)), rotations


def core_to_design(H, m):
    """Strip the first row and column of a normalized MH and rescale to 0/1.

    The result is an order n-1 incidence matrix with parameters
    (n-1, 2**(phi(m)-1) (n-2), 2**(phi(m)-2) (n-4)) at the modulus.
    Requires gcd(n, m) = 1 and n, m >= 3.
    """
    n = H.n
    if m < 3 or n < 3:
        raise ValueError("need n >= 3 and m >= 3")
    if gcd(n, m) != 1:
        raise ValueError("gcd(%d, %d) != 1" % (n, m))
    if not is_normalized(H):
        raise ValueError("matrix is not normalized")
    if not verify_mh(H, m).verdict:
        raise ValueError("matrix fails verification at modulus %d" % m)
    # m is odd: were m even, gcd(n, m) = 1 would make n odd, and the odd
    # inner products of an odd order would have failed the check above
    half = pow(4, -1, m)
    k = 2 * half * (n - 2) % m
    lam = half * (n - 4) % m
    return _core(H), DesignParams(n - 1, k, lam, m)


def _core(H):
    """The core's incidence rows, unchecked: entry +1 maps to 1, -1 to 0."""
    mask = (1 << (H.n - 1)) - 1
    return IncidenceMatrix(H.n - 1, tuple((r >> 1) ^ mask for r in H.rows[1:]))


def direct_sum(D1, p1, D2, p2):
    """Block matrix [[D1, J], [J^T, D2]] of order v1 + v2."""
    if p1.modulus != p2.modulus:
        raise ValueError("modulus mismatch: %d vs %d" % (p1.modulus, p2.modulus))
    return _direct_sum(D1, D2)


def _direct_sum(D1, D2):
    v1, v2 = D1.v, D2.v
    ones2 = (1 << v2) - 1
    ones1 = (1 << v1) - 1
    rows = [r | (ones2 << v1) for r in D1.rows]
    rows += [ones1 | (r << v1) for r in D2.rows]
    return IncidenceMatrix(v1 + v2, tuple(rows))


def dsum_check(p1, p2):
    """The direct-sum compatibility congruences.

    v1+v2, 4(k1-lam1), 4(k2-lam2) and 2(k1+k2) must all agree at the
    common modulus for 2(D1 (+) D2) - J to be modular Hadamard.
    """
    if p1.modulus != p2.modulus:
        raise ValueError("modulus mismatch: %d vs %d" % (p1.modulus, p2.modulus))
    m = p1.modulus
    s = p1.v + p2.v
    vals = (4 * (p1.k - p1.lam), 4 * (p2.k - p2.lam), 2 * (p1.k + p2.k))
    return all(_congruent(s, x, m) for x in vals)


def design_to_mh(D):
    """Entrywise 2D - J: ones become +1, zeros become -1."""
    mask = (1 << D.v) - 1
    return SignMatrix(D.v, tuple(r ^ mask for r in D.rows))


def mh_modulus_of_exact_design(params):
    """The natural modulus of 2D - J for an exact (v, k, lam) design.

    The Gram matrix of 2D - J is 4(k-lam) I + (v - 4(k-lam)) J, so the
    sign matrix is modular Hadamard exactly at divisors of v - 4(k-lam);
    0 means it is a real Hadamard matrix.
    """
    return abs(params.v - 4 * (params.k - params.lam))


def det_squared_mod(H, m):
    """(det H)^2 at the modulus, det computed exactly. Orders above 20 are
    rejected; Bareiss elimination keeps every intermediate an integer."""
    n = H.n
    if n > 20:
        raise ValueError("order %d too large for exact determinant" % n)
    a = [[H.entry(i, j) for j in range(n)] for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return residue(0, m)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    det = sign * a[n - 1][n - 1]
    return residue(det * det, m)


def parse_matrix_text(text):
    """Read the shared text format.

    Header 'n m' followed by n rows of +- characters gives a SignMatrix;
    header 'v k lambda m' followed by 01 rows gives an IncidenceMatrix
    with params. Blank lines and inner whitespace are ignored; ragged
    rows are an error.
    """
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty input")
    header = lines[0].split()
    if len(header) == 2:
        n, m = int(header[0]), int(header[1])
        return SignMatrix(n, _read_rows(lines[1:], n, "+-")), m
    if len(header) == 4:
        v, k, lam, m = (int(x) for x in header)
        D = IncidenceMatrix(v, _read_rows(lines[1:], v, "01"))
        return D, DesignParams(v, k, lam, m)
    raise ValueError("header must be 'n m' or 'v k lambda m'")


def _read_rows(lines, n, alphabet):
    """Bit-packed rows from text rows over a two-letter alphabet; the second
    letter is a set bit, column 0 comes first.  Each distinct line is
    checked and converted once, in order of first appearance, so an error
    names the first offending row."""
    if len(lines) != n:
        raise ValueError("expected %d rows, got %d" % (n, len(lines)))
    letters = alphabet.encode()
    digits = bytes.maketrans(letters, b"01")
    bits = dict.fromkeys(lines)
    for ln in bits:
        row = "".join(ln.split())
        if len(row) != n:
            raise ValueError("ragged row: %r" % row)
        raw = row.encode("ascii", "replace")  # any other letter is bad
        if raw.translate(None, letters):
            raise ValueError("bad character in row %r" % row)
        bits[ln] = int(raw[::-1].translate(digits), 2)
    return tuple(map(bits.__getitem__, lines))


_SIGN_DIGITS = str.maketrans("01", "+-")


def format_rows(M):
    """Rows as text, column 0 first: +- for a SignMatrix, 01 for an
    IncidenceMatrix.  A set bit prints as '-' or '1'.  Each distinct row
    is formatted once."""
    sign = isinstance(M, SignMatrix)
    spec = "0%db" % (M.n if sign else M.v)
    digits = _SIGN_DIGITS if sign else {}
    text = {r: format(r, spec)[::-1].translate(digits) for r in set(M.rows)}
    return list(map(text.__getitem__, M.rows))


def format_matrix_text(M, m=None, params=None):
    """Inverse of parse_matrix_text."""
    if isinstance(M, SignMatrix):
        if m is None:
            raise ValueError("sign matrix needs a modulus")
        head = "%d %d" % (M.n, m)
    elif params is None:
        raise ValueError("incidence matrix needs params")
    else:
        head = "%d %d %d %d" % (params.v, params.k, params.lam, params.modulus)
    return "\n".join([head] + format_rows(M)) + "\n"
