"""Exact integer and modular arithmetic primitives.

Everything here is arbitrary precision; nothing ever overflows silently.
Primality is exact below 2**64 and probabilistic (flagged) above.
"""

import math
from collections import namedtuple
from functools import lru_cache
from itertools import compress

from ._record import Record

__all__ = [
    "NotInvertible",
    "NotCoprime",
    "Condition1Error",
    "Condition1Witness",
    "PrimePower",
    "euler_phi",
    "factorize",
    "mod_inverse",
    "half_pow_coeff",
    "is_quadratic_residue",
    "is_prime",
    "is_prime_power",
    "is_perfect_square",
    "is_primitive_root",
    "repunit",
    "condition1_verify",
    "condition1_search",
]


class NotInvertible(ValueError):
    """Element has no inverse at this modulus."""


class NotCoprime(ValueError):
    """Arguments share a common factor where coprimality is required."""


class Condition1Error(ValueError):
    """A named witness invariant failed; .invariant holds the name."""

    def __init__(self, invariant, message):
        super().__init__(message)
        self.invariant = invariant


_sieve_limit = 10000
_sieve = bytearray([1]) * (_sieve_limit + 1)
_sieve[0:2] = b"\x00\x00"
for _i in range(2, int(_sieve_limit**0.5) + 1):
    if _sieve[_i]:
        _sieve[_i * _i :: _i] = bytearray(len(_sieve[_i * _i :: _i]))
_SMALL_PRIMES = list(compress(range(_sieve_limit + 1), _sieve))


def _odd_split(m):
    """(d, s) with m = d * 2**s and d odd, for m >= 1."""
    s = (m & -m).bit_length() - 1
    return m >> s, s


def _miller_rabin_round(n, a, d, s):
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a, n):
    """Jacobi symbol (a/n) for odd n >= 1."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n):
    """Strong Lucas probable-prime test, Selfridge's method A, odd n >= 3.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, and P = 1,
    Q = (1 - D)/4.  With n + 1 = d 2**s, d odd, n passes when U_d = 0 or
    V_(d 2**r) = 0 mod n for some 0 <= r < s, as every prime n not
    dividing 2QD does.
    """
    if is_perfect_square(n) is not None:
        return False  # no D has (D/n) = -1
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False  # gcd(D, n) is a proper factor
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = _odd_split(n + 1)
    # left-to-right over the bits of d: (U_k, V_k, Q**k) with P = 1, using
    # U_2k = U_k V_k, V_2k = V_k**2 - 2 Q**k, and for the step k -> k + 1
    # U = (U_k + V_k)/2, V = (D U_k + V_k)/2; halving is mod n (n odd)
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n, (D * U + V) % n
            U = (U + n) // 2 if U % 2 else U // 2
            V = (V + n) // 2 if V % 2 else V // 2
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _bpsw(n):
    """Baillie-PSW: a strong base-2 test, then a strong Lucas test.

    No composite is known to pass both.  None below 2**64 does: every
    base-2 strong pseudoprime there is on J. Feitsma's list, and each of
    them fails the Lucas test.  For larger n that is not proven.
    """
    if n < 3 or n % 2 == 0:
        return n == 2
    d, s = _odd_split(n - 1)
    return _miller_rabin_round(n, 2, d, s) and _strong_lucas(n)


def is_prime(n):
    """Primality test.

    Returns (prime, probabilistic).  After trial division by the primes up
    to 37 (and by those below 10**4 for n >= 2**64), every n gets the
    Baillie-PSW test (R. Baillie and S. S. Wagstaff Jr., "Lucas
    pseudoprimes", Math. Comp. 35, 1980): a strong base-2 test and a
    strong Lucas test with Selfridge parameters.  It is exact below 2**64,
    where no composite passes it.  Above, a composite that passes is
    unknown but not ruled out, so a prime answer there is flagged
    probabilistic.  The test draws nothing at random, so results are
    reproducible.
    """
    if n < 2:
        return False, False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == p:
            return True, False
        if n % p == 0:
            return False, False
    big = bool(n >> 64)
    if big:
        for p in _SMALL_PRIMES:
            if n % p == 0:
                return False, False
    return (True, big) if _bpsw(n) else (False, False)


def _pollard_rho(n):
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError("factorization failed for %d" % n)


def factorize(n):
    """Prime factorization as a sorted dict {prime: exponent}. n >= 1."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        if p * p > n:
            break
    if n > 1:
        stack = [n]
        while stack:
            x = stack.pop()
            prime, _ = is_prime(x)
            if prime:
                out[x] = out.get(x, 0) + 1
                continue
            r = is_perfect_square(x)
            if r is not None:
                stack.extend([r, r])
                continue
            d = _pollard_rho(x)
            stack.extend([d, x // d])
    return dict(sorted(out.items()))


def euler_phi(m):
    """Euler totient via factorization."""
    if m < 1:
        raise ValueError("euler_phi needs m >= 1")
    out = m
    for p in factorize(m):
        out -= out // p
    return out


def mod_inverse(a, m):
    """Inverse of a mod m, in [0, m). Raises NotInvertible if gcd(a,m) != 1."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    g = math.gcd(a, m)
    if g != 1:
        raise NotInvertible("gcd(%d, %d) = %d" % (a, m, g))
    return pow(a, -1, m)


def half_pow_coeff(m):
    """The paper's 2**(phi(m)-2) mod m for odd m >= 3: the inverse of 4."""
    if m < 3 or m % 2 == 0:
        raise ValueError("need odd m >= 3")
    return pow(4, -1, m)


def _is_qr_odd_prime_power(n, p, k):
    # q coprime to p: residue mod p^k iff residue mod p
    return pow(n % p, (p - 1) // 2, p) == 1


def _is_qr_power_of_two(n, k):
    if k == 1:
        return True
    if k == 2:
        return n % 4 == 1
    return n % 8 == 1


def is_quadratic_residue(n, m):
    """True iff x*x == n (mod m) has a solution, for gcd(n, m) = 1.

    Composite m is split into prime powers; a residue mod m is exactly one
    that is a residue mod every component (Chinese remainders recombine the
    square roots).
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if math.gcd(n, m) != 1:
        raise NotCoprime("gcd(%d, %d) != 1" % (n, m))
    for p, k in factorize(m).items():
        if p == 2:
            if not _is_qr_power_of_two(n, k):
                return False
        elif not _is_qr_odd_prime_power(n, p, k):
            return False
    return True


def is_perfect_square(x):
    """Integer square root when x is a perfect square, else None."""
    if x < 0:
        return None
    r = math.isqrt(x)
    return r if r * r == x else None


def _iroot(x, e):
    # floor of the e-th root, Newton on ints
    if x < 2:
        return x
    r = 1 << ((x.bit_length() + e - 1) // e)
    while True:
        nr = ((e - 1) * r + x // r ** (e - 1)) // e
        if nr >= r:
            break
        r = nr
    while r**e > x:
        r -= 1
    return r


@lru_cache(maxsize=None)
def _power_residue_moduli(e):
    """Up to four primes l = 1 mod e below the sieve limit.  For x prime
    to l, an e-th power x = b**e has x**((l - 1) / e) = b**(l - 1) = 1
    mod l, so any other residue shows that x is no e-th power."""
    return tuple([ell for ell in _SMALL_PRIMES if ell % e == 1][:4])


class PrimePower(
    Record, namedtuple("PrimePower", "base exponent probabilistic", defaults=(False,))
):
    """x = base**exponent with base prime; probabilistic when the base's
    primality rests on the Baillie-PSW test alone (a base >= 2**64)."""

    __slots__ = ()


def is_prime_power(x):
    """Decompose x = b**e with b prime, or None.

    The result carries a probabilistic flag when the base's primality was
    only established by the Baillie-PSW test of is_prime (a base >= 2**64).
    """
    if x < 2:
        raise ValueError("need x >= 2")
    for p in _SMALL_PRIMES:
        if x % p == 0:
            # base forced: x must be a power of p
            e = 0
            y = x
            while y % p == 0:
                y //= p
                e += 1
            return PrimePower(p, e, False) if y == 1 else None
    # no factor below the sieve limit, so any base exceeds it and the
    # exponent is at most bit_length/13; it suffices to peel prime
    # exponents and recurse on the root.  x is prime to every l below the
    # limit, so the power residue test of each l applies
    max_e = x.bit_length() // 13 + 1
    for e in range(2, max_e + 1):
        if e <= _sieve_limit and not _sieve[e]:
            continue
        if any(pow(x, (ell - 1) // e, ell) != 1 for ell in _power_residue_moduli(e)):
            continue
        b = _iroot(x, e)
        if b**e == x:
            inner = is_prime_power(b)
            if inner is None:
                return None
            return PrimePower(inner.base, inner.exponent * e, inner.probabilistic)
    # the trial division of is_prime is done above
    return PrimePower(x, 1, bool(x >> 64)) if _bpsw(x) else None


def is_primitive_root(a, p):
    """True iff a generates the multiplicative group mod prime p."""
    prime, _ = is_prime(p)
    if not prime:
        raise ValueError("%d is not prime" % p)
    if math.gcd(a, p) != 1:
        raise NotCoprime("gcd(%d, %d) != 1" % (a, p))
    if p == 2:
        return a % 2 == 1
    for q in factorize(p - 1):
        if pow(a, (p - 1) // q, p) == 1:
            return False
    return True


def repunit(q, d):
    """1 + q + ... + q**(d-1), exactly."""
    if q < 2 or d < 1:
        raise ValueError("need q >= 2, d >= 1")
    return (q**d - 1) // (q - 1)


class Condition1Witness(
    Record,
    namedtuple("Condition1Witness", "p delta q d r r_base r_exponent probabilistic"),
):
    """A checked (p, q, d) row: the repunit r = (q**d - 1)/(q - 1) is
    r_base**r_exponent, and delta = d mod p."""

    __slots__ = ()


def condition1_verify(p, q, d):
    """Check one (p, q, d) row and return its witness.

    Required: q an odd prime power, q = 1 mod p, d = delta mod p with
    1 <= delta < p, and r = (q**d - 1)/(q - 1) a prime power with
    r = 1 mod 4. Each failure raises Condition1Error naming the invariant.
    """
    prime, _ = is_prime(p)
    if not prime or p == 2:
        raise ValueError("p must be an odd prime")
    if q < 3 or q % 2 == 0 or is_prime_power(q) is None:
        raise Condition1Error("q_odd_prime_power", "q=%d is not an odd prime power" % q)
    if q % p != 1:
        raise Condition1Error("q_congruent_1_mod_p", "q=%d != 1 mod %d" % (q, p))
    if d < 1:
        raise Condition1Error("d_positive", "d=%d" % d)
    delta = d % p
    if delta == 0:
        raise Condition1Error("delta_range", "d=%d is 0 mod %d" % (d, p))
    r = repunit(q, d)
    if r % 4 != 1:
        raise Condition1Error("r_congruent_1_mod_4", "r = %d mod 4" % (r % 4))
    pp = is_prime_power(r) if r >= 2 else None
    if pp is None:
        raise Condition1Error("r_prime_power", "r=%d is not a prime power" % r)
    return Condition1Witness(p, delta, q, d, r, pp.base, pp.exponent, pp.probabilistic)


def _odd_prime_powers_congruent(residue, modulus, limit):
    for q in range(3, limit + 1, 2):
        if q % modulus == residue and is_prime_power(q) is not None:
            yield q


# _has_two_primes divides by progression terms below this.  At 3500 bits one
# division costs about 10**-5 of a strong base-2 test; condition1_search over
# the classes of p = 3, 5 and 7 took the same time, within noise, for bounds
# from 10**5 to 3 * 10**6.
_PROGRESSION_BOUND = 10**6


def _has_two_primes(r, d):
    """True when trial division shows that r = repunit(q, d) has two primes.

    d is an odd prime and r >= 2**64.  A prime l != d dividing r has
    q**d = 1 and q != 1 mod l (else r = d mod l), so q has order d mod l,
    d divides l - 1, and l, being odd, is 1 mod 2d.  Only that progression
    is tried; a term may be composite, and then its smallest prime b also
    divides r.  After a hit r is a prime power exactly when it is a power
    of b.  Terms stop at _PROGRESSION_BOUND, far below isqrt(r) >= 2**32.
    """
    step = 2 * d
    for ell in range(step + 1, _PROGRESSION_BOUND, step):
        if r % ell == 0:
            b = next(iter(factorize(ell)))
            while r % b == 0:
                r //= b
            return r != 1
    return False


def condition1_search(p, delta, q_limit, d_limit):
    """Smallest (q, d) witness for the class delta, scanning q then d.

    Deterministic: q ascends over odd prime powers = 1 mod p, and for each
    q the exponent d ascends over the primes d = delta mod p, each checked
    by condition1_verify.  Returns None on exhaustion.

    Skipping the other d loses no witness.  d = 1 gives r = 1.  For
    composite d, take a proper divisor a > 1 of d: repunit(q, a) > 1
    divides r = repunit(q, d), and its primes divide q**a - 1.  By
    Zsigmondy's theorem (Monatsh. Math. 3, 1892) q**d - 1 has a prime
    dividing no q**k - 1 with k < d, hence not q - 1, so it divides r and
    is not one of those primes: r has two distinct primes.  The theorem's
    exceptions, d = 2 and (q, d) = (2, 6), are excluded because d is
    composite and q odd.  For prime d and r >= 2**64, _has_two_primes
    rejects about half of the composite r with cheap divisions before
    condition1_verify runs its primality test.
    """
    if not 1 <= delta < p:
        raise ValueError("need 1 <= delta < p")
    exponents = [d for d in range(delta, d_limit + 1, p) if is_prime(d)[0]]
    for q in _odd_prime_powers_congruent(1, p, q_limit):
        for d in exponents:
            r = repunit(q, d)
            # condition1_verify rejects r != 1 mod 4 at once
            if r >> 64 and r % 4 == 1 and _has_two_primes(r, d):
                continue
            try:
                return condition1_verify(p, q, d)
            except Condition1Error:
                pass
    return None
