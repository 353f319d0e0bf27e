import random
from fractions import Fraction

import pytest

from recipsums import (
    BaseSetSpec,
    NotInvertible,
    NotPrime,
    PrimeField,
    ReprProblem,
    build_prime_reciprocal_set,
    primes_up_to,
)
from recipsums import field as field_module, sets
from recipsums.intmath import inv_mod


def brute_inverse(y: int, p: int) -> int:
    return next(z for z in range(1, p) if y * z % p == 1)


def recip_power_fermat(x: int, k: int, field: PrimeField) -> int:
    """Cross-check path: 1/x^k computed as x^{k(p-2)} mod p."""
    if x % field.p == 0:
        raise NotInvertible(f"{x} is divisible by {field.p}")
    return pow(pow(x, k, field.p), field.p - 2, field.p)


def test_make_field():
    assert PrimeField(2).p == 2
    assert PrimeField(7).p == 7
    with pytest.raises(NotPrime):
        PrimeField(9)
    with pytest.raises(NotPrime):
        PrimeField(1)
    with pytest.raises(NotPrime):
        PrimeField(0)


def test_mod_inv_examples():
    assert inv_mod(1, 7) == 1
    assert inv_mod(3, 7) == 5


def test_mod_inv_involution(rng):
    for p in [2, 3, 7, 101, 499]:
        for _ in range(30):
            x = rng.randrange(1, p)
            assert inv_mod(inv_mod(x, p), p) == x


def test_recip_power_examples():
    f7 = PrimeField(7)
    assert f7.recip_power(1, 5) == 1
    assert f7.recip_power(2, 2) == 2
    with pytest.raises(NotInvertible):
        f7.recip_power(7, 1)


def test_recip_power_vs_naive_oracle(rng):
    """Sampled over x <= 10^6, k <= 5, p <= 10^4: compare against repeated
    multiplication plus a brute-force inverse scan."""
    primes = [2, 3, 5, 7, 101, 499, 1009, 9973]
    for _ in range(150):
        p = rng.choice(primes)
        f = PrimeField(p)
        k = rng.randint(1, 5)
        x = rng.randint(1, 10**6)
        if x % p == 0:
            x += 1
        y = 1
        for _ in range(k):
            y = y * x % p
        assert f.recip_power(x, k) == brute_inverse(y, p)


def test_recip_power_reduction_invariance(rng):
    for p in [7, 101, 499]:
        f = PrimeField(p)
        for _ in range(40):
            x = rng.randrange(1, p)
            m = rng.randrange(0, 5)
            k = rng.randint(1, 4)
            assert f.recip_power(x + m * p, k) == f.recip_power(x, k)


def test_recip_power_fermat_cross_check(rng):
    for p in [3, 101, 997]:
        f = PrimeField(p)
        for _ in range(40):
            x = rng.randrange(1, p)
            k = rng.randint(1, 5)
            assert f.recip_power(x, k) == recip_power_fermat(x, k, f)


def test_base_set_reciprocals_match_fermat():
    # With u = 1 the base set is the reciprocal k-th powers of the primes <= p^beta.
    for p, beta in [(101, Fraction(99, 100)), (9973, Fraction(1, 2)), (1_000_003, Fraction(1, 4))]:
        field = PrimeField(p)
        for k in [1, 2, 7, 100, 101, 250]:
            spec = BaseSetSpec(field, k, beta, u=1)
            members, report = build_prime_reciprocal_set(spec)
            primes = primes_up_to(spec.prime_height)
            assert report.prime_count == len(primes) > 0
            assert set(members) == {recip_power_fermat(q, k, field) for q in primes}


def test_recip_power_refuses_multiples_of_p_and_bad_k():
    field = PrimeField(7)
    with pytest.raises(NotInvertible):
        field.recip_power(14, 1)
    with pytest.raises(ValueError):
        field.recip_power(2, 0)


def test_reciprocal_powers_are_refused_above_the_dense_ceiling():
    # field owns the ceiling, and sets refuses through the same check.
    assert field_module.DENSE_P_MAX == 3_037_000_500
    assert sets.require_dense is field_module.require_dense
    # 3037000507 is the first prime above the ceiling.
    field = PrimeField(3_037_000_507)
    message = "^3037000507 exceeds the dense-modulus ceiling 3037000500: "
    with pytest.raises(ValueError, match=message):
        ReprProblem(field, 1, Fraction(1, 3))
    with pytest.raises(ValueError, match=message):
        BaseSetSpec(field, 1, Fraction(1, 10))
