"""Exact integer arithmetic helpers: primality, inverses, integer roots.

Everything here is pure integer arithmetic; no result depends on floating
point. Inverses come from Python's own pow(a, -1, m). Exponent comparisons
with rational exponents are reduced to integer power comparisons.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress

# Bases 2..37 give a deterministic Miller-Rabin verdict below
# _MR_CERTIFIED_BELOW = 399165290221 * 798330580441, the smallest strong
# pseudoprime to all of them; every 64-bit integer lies below it.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_CERTIFIED_BELOW = 318665857834031151167461
# (bound, m): below bound, the least strong pseudoprime to the first m bases,
# those m decide (Jaeschke, Math. Comp. 61 (1993); Sorenson and Webster,
# Math. Comp. 86 (2017)). Larger n take all twelve.
_MR_PREFIXES = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
                (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, to the fewest bases that certify n's
    size. An n >= _MR_CERTIFIED_BELOW that passes every base raises
    ValueError: its prime verdict would be a guess."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    count = next((m for bound, m in _MR_PREFIXES if n < bound), len(_MR_WITNESSES))
    for a in _MR_WITNESSES[:count]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_CERTIFIED_BELOW:
        raise ValueError(f"{n} passes Miller-Rabin to bases 2..37; primality is not certified")
    return True


def inv_mod(a: int, m: int) -> int:
    """Modular inverse by Python's pow; raises ValueError if gcd(a, m) != 1."""
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ValueError(f"{a} is not invertible modulo {m}") from None


def nth_root_floor(x: int, n: int) -> int:
    """Largest r with r**n <= x, for x >= 0, n >= 1."""
    if x < 0 or n < 1:
        raise ValueError("nth_root_floor requires x >= 0 and n >= 1")
    if n == 1 or x < 2:
        return x
    # Integer Newton iteration, converging from above.
    r = 1 << -(-x.bit_length() // n)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r**n > x:
        r -= 1
    return r


def pow_floor(base: int, exponent: Fraction) -> int:
    """Exact floor(base**exponent) for a positive rational exponent."""
    if base < 0 or exponent <= 0:
        raise ValueError("pow_floor requires base >= 0 and exponent > 0")
    return nth_root_floor(base ** exponent.numerator, exponent.denominator)


def exceeds_power(value: int, base: int, exponent: Fraction) -> bool:
    """Exact test value > base**exponent, all in integer arithmetic."""
    if value < 0 or base < 0 or exponent <= 0:
        raise ValueError("exceeds_power requires nonnegative arguments")
    return value ** exponent.denominator > base ** exponent.numerator


def primes_between(lo: int, hi: int) -> list[int]:
    """The primes q with lo <= q <= hi, ascending: a bytearray sieve of the
    segment [lo, hi] alone, by the primes up to isqrt(hi), found the same way."""
    lo = max(lo, 2)
    if hi < lo:
        return []
    segment = bytearray([1]) * (hi - lo + 1)
    for q in primes_between(2, math.isqrt(hi)):
        first = max(q * q, -(-lo // q) * q) - lo  # q's first multiple in the segment, above q
        segment[first::q] = bytes(len(range(first, len(segment), q)))
    return list(compress(range(lo, hi + 1), segment))
