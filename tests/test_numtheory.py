import math
import random

import pytest

from modhadamard import (
    Condition1Error,
    NotInvertible,
    condition1_search,
    condition1_verify,
    euler_phi,
    factorize,
    half_pow_coeff,
    is_perfect_square,
    is_prime,
    is_prime_power,
    is_primitive_root,
    is_quadratic_residue,
    mod_inverse,
    repunit,
)
from modhadamard.numtheory import (
    PrimePower,
    _bpsw,
    _has_two_primes,
    _miller_rabin_round,
    _odd_split,
    _strong_lucas,
)

from conftest import SEED


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        flag, probabilistic = is_prime(n)
        assert flag == (n in primes)
        assert probabilistic is False


def test_is_prime_medium():
    assert is_prime(292561) == (True, False)
    assert is_prime(292561 * 292561)[0] is False
    # 2^61 - 1 is a Mersenne prime, still below the deterministic cutoff
    assert is_prime(2**61 - 1) == (True, False)


def _strong_base_2(n):
    return _miller_rabin_round(n, 2, *_odd_split(n - 1))


def test_is_prime_large_is_probabilistic():
    for exponent in (89, 127, 521):
        assert is_prime(2**exponent - 1) == (True, True)
    # 2^67 - 1 = 193707721 * 761838257287 is a strong base-2 pseudoprime, as
    # every composite Mersenne number 2^p - 1 is: the Lucas half rejects it
    assert _strong_base_2(2**67 - 1) is True
    assert is_prime(2**67 - 1) == (False, False)


def _miller_rabin_12_bases(n):
    """Reference: Miller-Rabin with the first 12 prime bases, exact for
    n < 2^64 (J. Sorenson and J. Webster, Math. Comp. 86, 2017)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    if n in bases:
        return True
    if any(n % a == 0 for a in bases):
        return False
    d, s = _odd_split(n - 1)
    return all(_miller_rabin_round(n, a, d, s) for a in bases)


def test_is_prime_matches_miller_rabin_below_2_64():
    rng = random.Random(SEED)
    odd = list(range(1, 10**5, 2))
    odd += [rng.randrange(1, 2**64, 2) for _ in range(10**4)]
    # strong pseudoprimes to the first bases (2047, 3277: base 2;
    # 3215031751: bases 2 to 7; 3825123056546413051: bases 2 to 23) and the
    # Carmichael numbers up to 6601
    odd += [2047, 3277, 3215031751, 3825123056546413051]
    odd += [561, 1105, 1729, 2465, 2821, 6601]
    for n in odd:
        assert is_prime(n) == (_miller_rabin_12_bases(n), False), n
        if n >= 2:
            pp = is_prime_power(n)
            if _miller_rabin_12_bases(n):
                assert pp == PrimePower(n, 1, False), n


def test_bpsw_agrees_with_sieve():
    limit = 10**5
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    for n in range(limit):
        assert _bpsw(n) == bool(sieve[n]), n


def test_bpsw_halves_reject_each_others_pseudoprimes():
    # the first strong Lucas pseudoprimes (OEIS A217255)
    for n in (5459, 5777, 10877, 16109, 18971):
        assert _strong_lucas(n) is True, n
        assert _strong_base_2(n) is False, n
        assert _bpsw(n) is False, n
    # squares of the Wieferich primes 1093 and 3511 are strong base-2
    # pseudoprimes; no D has (D/n) = -1 for a square, and the Lucas half
    # rejects them
    for n in (1093**2, 3511**2):
        assert _strong_base_2(n) is True, n
        assert _bpsw(n) is False, n


def test_is_prime_rejects_chernick_carmichael():
    # (6k+1)(12k+1)(18k+1) is a Carmichael number when all three are prime;
    # take the first above 2^64, whose factors also clear the trial division
    k = 240000  # n passes 2^64 near k = 242,000
    while True:
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        n = math.prod(factors)
        if n > 2**64 and all(is_prime(f)[0] for f in factors):
            break
        k += 1
    assert min(factors) > 10**4
    assert pow(2, n - 1, n) == 1  # a base-2 Fermat pseudoprime
    assert is_prime(n) == (False, False)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(292561) == {292561: 1}
    assert factorize(2 * 3 * 5 * 7 * 11 * 13) == {2: 1, 3: 1, 5: 1, 7: 1, 11: 1, 13: 1}
    # cofactors with no prime factor below the trial-division bound: a
    # semiprime goes to Pollard rho, a square to the integer square root
    assert factorize(10007 * 10009) == {10007: 1, 10009: 1}
    assert factorize(3 * 10009**2) == {3: 1, 10009: 2}


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(7) == 6
    assert euler_phi(9) == 6
    assert euler_phi(10) == 4
    assert euler_phi(36) == 12


def test_mod_inverse():
    assert mod_inverse(4, 7) == 2
    assert mod_inverse(3, 10) == 7
    with pytest.raises(NotInvertible):
        mod_inverse(6, 9)


def test_half_pow_coeff_equals_inverse_of_four():
    for m in range(3, 200, 2):
        assert half_pow_coeff(m) == mod_inverse(4, m)
    # the paper's form: 2^phi(m) = 1, so 2^(phi(m) - 2) = 1/4 at odd m
    for m in range(3, 2000, 2):
        assert half_pow_coeff(m) == pow(2, euler_phi(m) - 2, m), m


def test_is_perfect_square_returns_root():
    assert is_perfect_square(0) == 0
    assert is_perfect_square(1) == 1
    assert is_perfect_square(169) == 13
    assert is_perfect_square(168) is None
    assert is_perfect_square(-4) is None
    assert is_perfect_square(88592) is None
    assert is_perfect_square(24400) is None


def test_is_perfect_square_random_roots():
    rng = random.Random(SEED)
    for _ in range(1000):
        x = rng.randint(1, 10**40)
        assert is_perfect_square(x * x) == x
        # consecutive squares differ by more than 1 out here
        assert is_perfect_square(x * x + 1) is None


def test_is_quadratic_residue_brute_force():
    """Agreement with direct enumeration of squares, all moduli up to 500."""
    for m in range(2, 501):
        squares = {(x * x) % m for x in range(m)}
        for n in range(1, m):
            if math.gcd(n, m) != 1:
                continue
            assert is_quadratic_residue(n, m) == (n in squares), (n, m)


def test_is_primitive_root():
    assert is_primitive_root(2, 11) is True
    assert is_primitive_root(2, 7) is False  # order 3
    assert is_primitive_root(3, 7) is True
    assert is_primitive_root(2, 3) is True


def test_is_prime_power():
    pp = is_prime_power(27)
    assert (pp.base, pp.exponent) == (3, 3)
    assert pp.probabilistic is False
    pp = is_prime_power(7)
    assert (pp.base, pp.exponent) == (7, 1)
    assert is_prime_power(12) is None
    assert is_prime_power(36) is None
    pp = is_prime_power(2**10)
    assert (pp.base, pp.exponent) == (2, 10)
    with pytest.raises(ValueError):
        is_prime_power(1)


def test_is_prime_power_bases_past_the_sieve():
    # bases above 10**4 take the root and power residue path; 2**89 - 1
    # is past 2**64, so its primality is probabilistic
    for b, prob in ((10007, False), (2**31 - 1, False), (2**89 - 1, True)):
        for e in (1, 2, 3, 4, 5, 6, 7, 11, 13, 30):
            x = b**e
            assert is_prime_power(x) == PrimePower(b, e, prob), (b, e)
            for y in (x - 2, x + 2):
                prime, flag = is_prime(y)
                want = PrimePower(y, 1, flag) if prime else None
                assert is_prime_power(y) == want, (b, e)
    for e in (1, 2, 3, 7):
        assert is_prime_power((10007 * 10009) ** e) is None
        assert is_prime_power((2**61 - 1) ** e * (2**89 - 1)) is None


def test_repunit():
    assert repunit(2, 5) == 31
    assert repunit(10, 4) == 1111
    assert repunit(23, 5) == 292561
    assert repunit(3, 1) == 1
    with pytest.raises(ValueError):
        repunit(1, 3)
    with pytest.raises(ValueError):
        repunit(5, 0)


def test_repunit_residues():
    # for q = 1 mod 4 the repunit is d mod 4; for q = 1 mod p it is d mod p
    rng = random.Random(SEED)
    for _ in range(200):
        d = rng.randint(1, 50)
        q = 4 * rng.randint(1, 300) + 1
        assert repunit(q, d) % 4 == d % 4
    for p in (3, 7, 11, 13):
        for _ in range(50):
            d = rng.randint(1, 40)
            q = p * rng.randint(1, 100) + 1
            assert repunit(q, d) % p == d % p


def test_repunit_binomial_expansion():
    """repunit(r, e) = sum of (r-1)^b * C(e, b+1) over b, for r = 1 mod 4."""
    rng = random.Random(SEED)
    for _ in range(120):
        r = 4 * rng.randint(1, 2500) + 1
        e = rng.randint(1, 12)
        total = sum((r - 1) ** b * math.comb(e, b + 1) for b in range(e))
        assert repunit(r, e) == total


def test_condition1_verify_known_row():
    w = condition1_verify(11, 23, 5)
    assert w.p == 11
    assert w.delta == 5
    assert w.r == 292561
    assert w.r_base == 292561
    assert w.r_exponent == 1
    assert w.r % 4 == 1
    assert w.probabilistic is False
    assert is_prime(w.r)[0]


def test_condition1_verify_rejects_bad_rows():
    with pytest.raises(Condition1Error):
        condition1_verify(11, 24, 5)  # q not a prime power
    with pytest.raises(Condition1Error):
        condition1_verify(11, 23, 4)  # repunit lands in the wrong class mod 4
    with pytest.raises(Condition1Error):
        condition1_verify(11, 13, 5)  # q not 1 mod p
    with pytest.raises(ValueError):
        condition1_verify(9, 23, 5)  # p must be an odd prime


def test_condition1_search_finds_smallest_witness():
    w = condition1_search(11, 5, 100, 20)
    assert (w.q, w.d) == (23, 5)
    assert w.r == 292561


def _unpruned_search(p, delta, q_limit, d_limit):
    """condition1_search by its definition: every (q, d), checked in full."""
    for q in range(3, q_limit + 1, 2):
        if q % p != 1 or is_prime_power(q) is None:
            continue
        for d in range(delta, d_limit + 1, p):
            try:
                return condition1_verify(p, q, d)
            except Condition1Error:
                pass
    return None


def test_condition1_search_matches_unpruned_scan():
    # (7, delta) within q <= 700, d <= 60 holds the (659, 29) witness and
    # one class with none
    for p, q_limit, d_limit in ((3, 3000, 400), (5, 3000, 400), (7, 700, 60)):
        for delta in range(1, p):
            want = _unpruned_search(p, delta, q_limit, d_limit)
            assert condition1_search(p, delta, q_limit, d_limit) == want, (p, delta)
    assert condition1_search(7, 4, 700, 60) is None


def test_composite_exponent_is_not_a_witness():
    # r = repunit(11, 9) = 1 mod 4, but repunit(11, 3) = 7 * 19 divides it
    assert repunit(11, 9) % 4 == 1
    with pytest.raises(Condition1Error) as err:
        condition1_verify(5, 11, 9)
    assert err.value.invariant == "r_prime_power"


def test_has_two_primes_settles_hits_exactly():
    # d = 3 tries 7, 13, 19, 25, ...: 25 is composite and stands for 5
    assert _has_two_primes(5**30, 3) is False
    assert _has_two_primes(7 * 5**30, 3) is True
    assert _has_two_primes(13**20, 3) is False
    assert _has_two_primes(2**127 - 1, 3) is False  # no factor in range


def test_condition1_search_exhausts_to_none():
    assert condition1_search(3, 1, 5, 1) is None


def test_condition1_search_rejects_bad_delta():
    with pytest.raises(ValueError):
        condition1_search(11, 0, 100, 20)
    with pytest.raises(ValueError):
        condition1_search(11, 11, 100, 20)
