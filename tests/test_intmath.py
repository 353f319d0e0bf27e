import random
import time
from fractions import Fraction

import pytest

from recipsums import intmath
from recipsums.intmath import (
    exceeds_power,
    inv_mod,
    is_prime,
    nth_root_floor,
    pow_floor,
    primes_between,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(-3, 42):
        assert is_prime(n) == (n in primes)


def test_is_prime_strong_pseudoprimes():
    # Composites that fool single-base Miller-Rabin tests.
    for n in [2047, 1373653, 25326001, 3215031751, 3825123056546413051]:
        assert not is_prime(n)
    for n in [2**31 - 1, 2**61 - 1, 1000003, 67280421310721]:
        assert is_prime(n)


def is_strong_probable_prime(n: int, a: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, r))


def test_is_prime_rejects_the_strong_pseudoprime_at_each_bound():
    # Each bound is the least composite that passes the bases below it, so
    # the first one it is tested with must reject it.
    bounds = [bound for bound, _ in intmath._MR_PREFIXES]
    assert bounds == [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                      341550071728321, 3825123056546413051]
    for bound, count in intmath._MR_PREFIXES:
        assert all(is_strong_probable_prime(bound, a) for a in intmath._MR_WITNESSES[:count])
        assert not is_prime(bound)


def test_is_prime_agrees_with_the_sieve():
    limit = 200_000
    assert [n for n in range(limit) if is_prime(n)] == primes_between(0, limit - 1)


def test_is_prime_refuses_uncertified_verdict():
    # Strong pseudoprimes to all twelve bases 2..37: 399165290221 * 798330580441
    # (the smallest) and 1287836182261 * 2575672364521.
    for n in [318665857834031151167461, 3317044064679887385961981]:
        with pytest.raises(ValueError, match="certif"):
            is_prime(n)
    # a composite verdict needs no bound: 2^80 + 1 is divisible by 2^16 + 1
    assert not is_prime(2**80 + 1)
    assert not is_prime(10**30)


def test_inv_mod_matches_fermat():
    rng = random.Random(11)
    for p in [2, 3, 7, 101, 499, 10007]:
        for _ in range(20):
            x = rng.randrange(1, p)
            inv = inv_mod(x, p)
            assert inv * x % p == 1
            assert inv == pow(x, p - 2, p)


def test_inv_mod_rejects_noncoprime():
    with pytest.raises(ValueError, match="^6 is not invertible modulo 9$"):
        inv_mod(6, 9)


def test_nth_root_floor_exact_boundaries():
    cases = [(base, n) for base in [1, 2, 3, 10, 101] for n in [1, 2, 3, 5, 7]]
    cases += [(10**40 + 7, n) for n in [2, 3, 7]]
    for base, n in cases:
        x = base**n
        assert nth_root_floor(x, n) == base
        if x > 1:
            assert nth_root_floor(x - 1, n) == base - 1
        if n > 1:
            assert nth_root_floor(x + 1, n) == base
    # Roots of 10**600 - 1 and 10**600 + 1, far beyond any float.
    for n in [2, 3, 5, 7, 600]:
        for x in [10**600 - 1, 10**600 + 1]:
            r = nth_root_floor(x, n)
            assert r**n <= x < (r + 1) ** n
    for n in [2, 3, 5, 600]:
        assert nth_root_floor(10**600 - 1, n) == 10 ** (600 // n) - 1
        assert nth_root_floor(10**600 + 1, n) == 10 ** (600 // n)


def test_pow_floor():
    assert pow_floor(101, Fraction(1, 2)) == 10
    assert pow_floor(11, Fraction(3, 5)) == 4
    assert pow_floor(7, Fraction(1, 1)) == 7
    assert pow_floor(2, Fraction(1, 3)) == 1
    assert pow_floor(997, Fraction(2, 3)) == 99


def test_exceeds_power_boundary():
    # 21^3 = 9261 < 101^2 = 10201 < 22^3 = 10648
    assert not exceeds_power(21, 101, Fraction(2, 3))
    assert exceeds_power(22, 101, Fraction(2, 3))


def test_primes_between_sieves_only_the_window():
    for lo in range(-2, 60):
        for hi in range(lo - 1, 80):
            assert primes_between(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)], (lo, hi)
    assert primes_between(2, 10_000) == [n for n in range(10_001) if is_prime(n)]
    # The window just below the dense ceiling: base primes up to 55109 and a
    # 101-byte segment, where a sieve of all of [0, hi] would need 3 GB.
    start = time.perf_counter()
    window = primes_between(3_037_000_400, 3_037_000_500)
    assert time.perf_counter() - start < 2
    assert window == [n for n in range(3_037_000_400, 3_037_000_501) if is_prime(n)]
    assert window == [3037000427, 3037000429, 3037000453, 3037000493]
