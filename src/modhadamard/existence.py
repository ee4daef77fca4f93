"""Decision oracle for m-modular Hadamard matrix existence.

decide(n, m) stacks the cheap necessary conditions, the switching gate
and the construction planner into one auditable verdict.  Every Exists
verdict carries a certificate; every NotExists names the test that
fired.  gate_walk is the one statement of the order in which decide
consults them.  small_case_test is the paper's quadratic row-count test,
kept for reference; decide does not consult it.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt, lcm

from . import search as search_mod
from ._record import Record, json_fields
from .constructions import _chain, _family10_giant, plan, recipe_to_json
from .numtheory import half_pow_coeff, is_perfect_square, is_prime, is_quadratic_residue

__all__ = [
    "NotApplicable",
    "SmallCaseReport",
    "Verdict",
    "check_gcd_bound",
    "decide",
    "gate_walk",
    "small_case_test",
    "small_even_reduction",
    "special_case_2m_plus_1",
    "threshold_note",
    "verdict_to_json",
]


class NotApplicable(ValueError):
    """The test's preconditions do not hold for this (n, m)."""


class Verdict(
    Record,
    namedtuple(
        "Verdict",
        "n m status reason certificate conjecture_prediction threshold_note",
        defaults=(None,) * 4,
    ),
):
    """decide's answer for (n, m): status Exists, NotExists or Unknown; the
    reason, the gate that fired or ThresholdNotMet; for Exists the
    certificate, plan's recipe."""

    __slots__ = ()


class SmallCaseReport(
    Record,
    namedtuple(
        "SmallCaseReport", "n m Delta sqrt_Delta d_plus d_minus admissible row_profile"
    ),
):
    """small_case_test's findings: the discriminant Delta and its square
    root (None unless Delta is a square), the quadratic's roots d_plus and
    d_minus, whether one is a nonnegative integer, and the row profile."""

    __slots__ = ()


def _gcd_divisibility(n, m):
    g = gcd(m, 4)
    if n % g:
        return "gcd(m,4) = %d does not divide n = %d" % (g, n)
    return None


def _gcd_size(n, m):
    # an even m already fails the divisibility half for odd n
    if n % 2 == 0 or m % 2 == 0 or n % m == 0:
        return None
    r = half_pow_coeff(m) * n % m
    if n < 4 * r:
        return "r = %d forces n >= %d, but n = %d" % (r, 4 * r, n)
    return None


def check_gcd_bound(n, m):
    """Both halves of the gcd necessary condition; None when they pass.

    Part one: gcd(m,4) must divide n.  Part two: for odd n not divisible
    by m, the residue r = 2^(phi(m)-2) n mod m forces n >= 4r.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    return _gcd_divisibility(n, m) or _gcd_size(n, m)


def small_case_test(n, m):
    """The paper's quadratic feasibility test for odd n < 3m.

    The row-counting argument pins the number of rows of each inner
    product sign to a root of a quadratic with discriminant Delta; the
    matrix can only exist when Delta is a perfect square and a root is a
    nonnegative integer.

    Unsound as coded: it rejects every n = m + 4 for odd m >= 5, where
    J - 2I is an MH(n, m), and (31, 11) and (57, 29), where J - 2N of
    PG(2, 5) and PG(2, 7) is one.  decide does not consult it; its
    Switching gate (_switching) is proved, and admits both families.
    """
    if m % 2 == 0:
        raise NotApplicable("even modulus")
    if not search_mod._restricted_regime(n, m):
        raise NotApplicable("need odd n < 3m with gcd(n,m) = 1")
    delta = (
        36 * m**4
        + m**3 * (4 - 28 * n)
        + m**2 * (5 * n**2 - 2 * n + 1)
        + 2 * m * n * (n**2 - 1)
        + (n - 1) ** 2 * n**2
    )
    root = isqrt(delta) if delta >= 0 else None
    square = root is not None and root * root == delta
    base = 14 * m**2 - m * n - m - n**2 + n
    d_plus = d_minus = None
    admissible = False
    chosen = None
    if square:
        d_plus = Fraction(base + root, 8 * m)
        d_minus = Fraction(base - root, 8 * m)
        for d in (d_plus, d_minus):
            if d.denominator == 1 and d >= 0:
                admissible = True
                if chosen is None:
                    chosen = int(d)
    profile = None
    if admissible:
        profile = (
            chosen,
            n - 1 - chosen,
            Fraction(n - m, 4),
            Fraction((n - m) * (n - m - 1), 4 * m),
        )
    return SmallCaseReport(
        n, m, delta, root if square else None, d_plus, d_minus, admissible, profile
    )


def _switching(n, m):
    """The switching gate for odd m, odd n < 3m and gcd(n, m) = 1: an
    MH(n, m) needs n > m, n = m (mod 4) and nm + n - m a square.  Returns
    the condition that fails, or None; None outside that regime.

    Every off-diagonal inner product of an MH(n, m) there is odd, a
    multiple of m and of absolute value at most n < 3m, so it is s m with
    a sign s = +-1.
    - The triangle identity.  In each column three +-1 rows u, v, x
      disagree in 0 or 2 of their three pairs, so
      d(u, v) + d(u, x) + d(v, x) is even, d being the Hamming distance,
      and as <u, v> = n - 2 d(u, v),
      <u, v> + <u, x> + <v, x> = 3n (mod 4).  Three signs with product +1
      sum to 3 or -1, so their products sum to 3m = -m (mod 4); with
      product -1 they sum to 1 or -3, and the products to m (mod 4).  As
      m is odd, 3m != m (mod 4).  So every sign triangle s_ij s_ik s_jk has
      the product sigma = +1 when n = m (mod 4), and -1 otherwise.
    - Switching.  Negating rows keeps an MH(n, m).  Multiply row i >= 1 by
      e_i = sigma s_0i: the sign of (0, i) becomes sigma s_0i s_0i = sigma,
      and that of (i, j) sigma^2 s_0i s_0j s_ij = sigma.  Negate the
      columns where row 0 is -1, so that row 0 is all +1.  Every other row
      then has inner product sigma m with row 0 and with each other: it
      has weight w = (n - sigma m)/2, and every two rows differ in exactly
      w places.  Conversely the all-ones row and n - 1 such rows form an
      MH(n, m).  So an MH(n, m) exists exactly when n - 1 rows of weight w
      over all n columns are pairwise at distance w.  w is even, as
      n - sigma m = 0 (mod 4) for either sigma.
    - n = m (mod 4).  Two rows of weight w at distance w share w/2 ones,
      so they cover 3w/2 columns, and n >= 3 gives two such rows.  With
      sigma = -1 that is 3(n + m)/4 > n, as n < 3m, so sigma = +1.
    - The Gram matrix.  With sigma = +1 the switched H has
      G = H H^T = (n - m)I + mJ, positive semidefinite only for n >= m,
      and gcd(n, m) = 1 rules out n = m.  For n > m, G and H are
      invertible and H^T G^-1 H = I, where
      G^-1 = (I - mJ/(nm + n - m))/(n - m), so
      H^T H = (n - m)I + m ss^T/(nm + n - m) with s = H^T 1.  Its diagonal
      makes every column sum s_j satisfy s_j^2 = nm + n - m.
    """
    if not search_mod._restricted_regime(n, m):
        return None
    if n <= m:
        return "n = %d <= m = %d" % (n, m)
    if (n - m) % 4:
        return "n = %d != m = %d (mod 4)" % (n, m)
    if is_perfect_square(n * m + n - m) is None:
        return "nm + n - m = %d is not a square" % (n * m + n - m)
    return None


def special_case_2m_plus_1(m):
    """Feasibility of n = 2m + 1: the Switching gate's square condition,
    nm + n - m = m^2 + (m+1)^2 a perfect square."""
    if m < 3 or m % 2 == 0:
        raise NotApplicable("need odd m >= 3")
    n = 2 * m + 1
    return is_perfect_square(n * m + n - m) is not None


def small_even_reduction(n, m):
    """Even n < lcm(2, m), 4 not dividing n: no MH(n, m); reason or None.

    Inner products have n's parity, are multiples of m and lie in
    [-n, n]; +-n needs parallel rows and m | n, which n < lcm(2, m)
    excludes for even n.  So all are 0, H is real Hadamard and 4 | n.
    Odd n needs no case, as GcdBound fires first: for odd m and n < m,
    4r = n (mod m) with n odd forces 4r >= n + m, and an even m fails
    the divisibility half.

    For odd m and 4 | n < 4m every product is 0 as well, so MH(n, m)
    exists exactly when a Hadamard matrix of order n does.  +-n needs
    4m | n, so the products are 0 or +-2m.  Those of three rows sum to
    3n = 0 (mod 4) and 2m = 2 (mod 4), so each triple has 0 or 2 nonzero
    pairs: they form a complete bipartite graph K_{a,b}.  G =
    [[nI, 2mS], [2mS^T, nI]] is positive semidefinite only if
    sigma_max(S) <= n/(2m), but b > 0 gives sigma_max(S)^2 >= max(a, b)
    (a row's or a column's norm) >= n/2 > (n/(2m))^2, as n < 4m <= 2m^2.
    """
    if n % 2 == 0 and n < lcm(2, m) and n % 4:
        return "an exact Hadamard matrix of order %d cannot exist" % n
    return None


_CLASS_12_MOD_14_BOUND = 4481157543653329008412788039740507382


def threshold_note(n, m):
    """Which stated cutoff keeps (n, m) out of the construction chains.

    At m = 7 it quotes the start of the planner's chain for n's class; an
    even n whose class has no chain quotes the chain of n / 2, doubled, as
    plan's first Double reaches it.  Class 26 (mod 28) quotes the paper's
    bound instead."""
    if m != 7:
        return None
    gate = _chain(n, 7)
    if gate is None and n % 2 == 0:
        half = _chain(n // 2, 7)
        gate = half and tuple(2 * x for x in half[:3])
    if gate is None:
        return None
    if gate[:2] == (26, 28):  # the paper's bound, not the chain's start
        if n < _CLASS_12_MOD_14_BOUND:
            return "n = 12 (mod 14) but n < %d" % _CLASS_12_MOD_14_BOUND
        giant = _family10_giant()
        return (
            "n = 26 (mod 28) but no extension base of order n - %d is available"
            % (giant.v - 1)
        )
    if n < gate[2]:
        return "n = %d (mod %d) but n < %d" % gate[:3]
    return None


def _conjecture(n, m):
    prime, _ = is_prime(m)
    if m % 2 == 0 or not prime:
        return None
    if n % 2 == 0 or n % m == 0:
        return True
    return is_quadratic_residue(n % m, m)


def gate_walk(n, m):
    """decide's steps for MH(n, m) in decide's order: GcdBound (divisibility),
    QuadNonResidue, GcdBound (size), SmallEvenRealHadamard, Switching and
    Constructed.

    Yields (step, finding).  decide stops at the first finding that is not
    None and reports its step: a gate's finding says why it fires,
    Constructed's is plan(n, m), so a refuted (n, m) builds no plan.  The
    paper's Delta test (small_case_test) is not a step.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if m < 2:
        raise ValueError("need m >= 2")
    yield "GcdBound", _gcd_divisibility(n, m)
    fires = n % 2 and m % 2 and gcd(n, m) == 1 and not is_quadratic_residue(n % m, m)
    yield "QuadNonResidue", "n mod m is a quadratic nonresidue" if fires else None
    yield "GcdBound", _gcd_size(n, m)
    yield "SmallEvenRealHadamard", small_even_reduction(n, m)
    yield "Switching", _switching(n, m)
    yield "Constructed", plan(n, m)


def decide(n, m, search_cap=None):
    """Existence verdict for an MH(n, m).

    Every Exists certificate is the recipe plan(n, m), and decide builds
    no matrix: the recipe's constructors checked every residue law when
    they made it, and materialize builds the matrix and Gram-checks it.

    decide runs no search; search_cap is accepted and ignored, as
    callers of the search fallback it once had still pass it.
    """

    def verdict(status, reason=None, certificate=None, note=None):
        return Verdict(n, m, status, reason, certificate, _conjecture(n, m), note)

    for step, finding in gate_walk(n, m):
        if finding is None:
            continue
        if step == "Constructed":
            return verdict("Exists", step, finding)
        return verdict("NotExists", step)
    return verdict("Unknown", "ThresholdNotMet", note=threshold_note(n, m))


def verdict_to_json(v):
    """The verdict as a JSON object (verdict.schema.json), with no null
    field: n and m past 2^53 are strings, and the certificate is its
    recipe."""
    fields = json_fields(v, drop=("certificate",)).items()
    out = {key: value for key, value in fields if value is not None}
    if v.certificate is not None:
        out["certificate"] = {"kind": "recipe", "recipe": recipe_to_json(v.certificate)}
    return out
