import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from recipsums import (
    BaseSetSpec,
    EmptyBase,
    NonPositiveU,
    PrimeField,
    build_prime_reciprocal_set,
    build_smooth_set,
    check_multiplicative_conditions,
    compute_u,
    primes_up_to,
)


def test_compute_u_examples():
    assert compute_u(Fraction(1, 10), 1) == 4  # 1/(2*beta) = 5, strictly below
    assert compute_u(Fraction(19, 100), 1) == 2  # 50/19 ~ 2.63
    assert compute_u(Fraction(1, 4), 1) == 1  # exactly 2, strict -> 1
    assert compute_u(Fraction(1, 10), 2) == 2  # 10/4 = 2.5
    with pytest.raises(NonPositiveU):
        compute_u(Fraction(1, 2), 1)  # limit exactly 1, strict -> 0


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(10) == [2, 3, 5, 7]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(2) == [2]


def test_prime_reciprocal_set_u1():
    # floor(101^(1/2)) = 10, primes {2,3,5,7}, inverses mod 101
    spec = BaseSetSpec(PrimeField(101), 1, Fraction(1, 2), u=1)
    members, report = build_prime_reciprocal_set(spec)
    assert sorted(members) == [29, 34, 51, 81]
    assert report.tuple_count == 4
    assert report.set_size == 4
    assert report.prime_height == 10
    assert report.prime_count == 4


def test_prime_reciprocal_set_u2():
    spec = BaseSetSpec(PrimeField(101), 1, Fraction(1, 2), u=2)
    members, report = build_prime_reciprocal_set(spec)
    assert report.tuple_count == 6
    # pairwise sums of {51, 34, 81, 29} mod 101, enumerated by hand
    assert sorted(members) == [9, 14, 31, 63, 80, 85]
    assert report.set_size == 6


def test_prime_reciprocal_set_empty_base():
    # floor(11^(3/5)) = 4, only primes {2, 3}
    spec = BaseSetSpec(PrimeField(11), 1, Fraction(3, 5), u=3)
    with pytest.raises(EmptyBase):
        build_prime_reciprocal_set(spec)


def test_u1_size_equals_prime_count():
    for p, beta in [(101, Fraction(1, 2)), (499, Fraction(1, 2)), (1009, Fraction(1, 3))]:
        spec = BaseSetSpec(PrimeField(p), 1, beta, u=1)
        members, report = build_prime_reciprocal_set(spec)
        assert report.set_size == report.prime_count == report.tuple_count
        assert members.card == len(primes_up_to(report.prime_height))


def test_regime_implies_distinctness():
    cases = [
        (1009, 1, Fraction(1, 3), 1),
        (1009, 1, Fraction(1, 5), 2),
        (10007, 1, Fraction(1, 5), 2),
        (10007, 2, Fraction(1, 8), 1),
        (4001, 1, Fraction(1, 4), 2),
    ]
    for p, k, beta, u in cases:
        spec = BaseSetSpec(PrimeField(p), k, beta, u=u)
        members, report = build_prime_reciprocal_set(spec)
        assert report.regime_holds
        assert report.set_size == report.tuple_count


def test_elementary_symmetric_reconstruction():
    """Each residue, multiplied back by the tuple's k-th power product,
    matches the sum of complementary products."""
    rng = random.Random(3)
    for p, k, beta, u in [(101, 1, Fraction(1, 2), 2), (499, 2, Fraction(1, 2), 2)]:
        field = PrimeField(p)
        spec = BaseSetSpec(field, k, beta, u=u)
        members, report = build_prime_reciprocal_set(spec)
        primes = primes_up_to(spec.prime_height)
        combos = list(combinations(primes, u))
        for combo in rng.sample(combos, min(10, len(combos))):
            lhs = sum(field.recip_power(q, k) for q in combo) % p
            prod_k = 1
            for q in combo:
                prod_k = prod_k * pow(q, k, p) % p
            sym = sum(
                math.prod(pow(q, k, p) for j, q in enumerate(combo) if j != i) % p
                for i in range(u)
            ) % p
            assert lhs == sym * pow(prod_k, -1, p) % p
            assert lhs in members


def test_collision_outside_regime():
    # 1/2^2 + 1/3^2 = 1/3^2 + 1/5^2 = 6 mod 7, so the three pair-tuples
    # over primes {2,3,5} yield only two residues.
    spec = BaseSetSpec(PrimeField(7), 2, Fraction(5, 6), u=2)
    assert spec.prime_height == 5
    members, report = build_prime_reciprocal_set(spec)
    assert not report.regime_holds
    assert report.tuple_count == 3
    assert report.set_size == 2
    assert sorted(members) == [4, 6]
    assert report.set_size <= report.tuple_count


def test_small_beta_regime_flag():
    assert BaseSetSpec(PrimeField(101), 1, Fraction(1, 6), u=1).small_beta_regime
    assert not BaseSetSpec(PrimeField(101), 1, Fraction(1, 2), u=1).small_beta_regime
    assert not BaseSetSpec(PrimeField(101), 2, Fraction(1, 10), u=1).small_beta_regime


def test_build_smooth_set_examples():
    assert build_smooth_set(PrimeField(11), 2) == (1, 2, 4, 8)
    assert build_smooth_set(PrimeField(11), 3) == (1, 2, 3, 4, 6, 8, 9)
    assert build_smooth_set(PrimeField(3), 2) == (1, 2)


def test_smooth_set_is_closed():
    for p, bound in [(11, 2), (101, 5), (499, 7), (1009, 11)]:
        field = PrimeField(p)
        smooth = build_smooth_set(field, bound)
        report = check_multiplicative_conditions(smooth, field, Fraction(1, 2), Fraction(1, 2))
        assert report.closure_holds
        assert report.contains_one


def test_closure_examples():
    f11 = PrimeField(11)
    ok = check_multiplicative_conditions([1, 2, 4, 8], f11, Fraction(1, 2), Fraction(1, 2))
    assert ok.closed_under_product and ok.closure_holds
    bad = check_multiplicative_conditions([1, 2, 3], f11, Fraction(1, 2), Fraction(1, 2))
    assert not bad.closed_under_product
    s, t = bad.closure_counterexample
    assert s in (1, 2, 3) and t in (1, 2, 3) and s * t <= 10 and s * t not in (1, 2, 3)
    trivial = check_multiplicative_conditions([1], f11, Fraction(1, 2), Fraction(1, 2))
    assert trivial.closure_holds


def test_density_check_exact():
    field = PrimeField(101)
    smooth = build_smooth_set(field, 10)
    # epsilon = 1/2, theta = 1/2: count of elements <= 10 against 101^(1/4)
    report = check_multiplicative_conditions(smooth, field, Fraction(1, 2), Fraction(1, 2))
    assert report.height == 10
    assert report.count_up_to_height == 10  # 1..10 are all 10-smooth
    assert report.density_holds  # 10^4 >= 101
