import random

import numpy as np
import pytest

from recipsums import (
    NotInvertible,
    NotPrime,
    ZeroInverse,
    make_field,
    mod_inv,
    recip_power,
)
from recipsums import field as field_module, sets
from recipsums.field import PrimeField, recip_power_fermat


def brute_inverse(y: int, p: int) -> int:
    return next(z for z in range(1, p) if y * z % p == 1)


def test_make_field():
    assert make_field(2).p == 2
    assert make_field(7).p == 7
    with pytest.raises(NotPrime):
        make_field(9)
    with pytest.raises(NotPrime):
        make_field(1)
    with pytest.raises(NotPrime):
        make_field(0)


def test_mod_inv_examples():
    f7 = make_field(7)
    assert mod_inv(f7.residue(1)).value == 1
    assert mod_inv(f7.residue(3)).value == 5
    with pytest.raises(ZeroInverse):
        mod_inv(f7.residue(0))


def test_mod_inv_involution(rng):
    for p in [2, 3, 7, 101, 499]:
        f = make_field(p)
        for _ in range(30):
            x = f.residue(rng.randrange(1, p))
            assert mod_inv(mod_inv(x)) == x


def test_recip_power_examples():
    f7 = make_field(7)
    assert recip_power(1, 5, f7).value == 1
    assert recip_power(2, 2, f7).value == 2
    with pytest.raises(NotInvertible):
        recip_power(7, 1, f7)


def test_recip_power_vs_naive_oracle(rng):
    """Sampled over x <= 10^6, k <= 5, p <= 10^4: compare against repeated
    multiplication plus a brute-force inverse scan."""
    primes = [2, 3, 5, 7, 101, 499, 1009, 9973]
    for _ in range(150):
        p = rng.choice(primes)
        f = make_field(p)
        k = rng.randint(1, 5)
        x = rng.randint(1, 10**6)
        if x % p == 0:
            x += 1
        y = 1
        for _ in range(k):
            y = y * x % p
        assert recip_power(x, k, f).value == brute_inverse(y, p)


def test_recip_power_reduction_invariance(rng):
    for p in [7, 101, 499]:
        f = make_field(p)
        for _ in range(40):
            x = rng.randrange(1, p)
            m = rng.randrange(0, 5)
            k = rng.randint(1, 4)
            assert recip_power(x + m * p, k, f) == recip_power(x, k, f)


def test_recip_power_fermat_cross_check(rng):
    for p in [3, 101, 997]:
        f = make_field(p)
        for _ in range(40):
            x = rng.randrange(1, p)
            k = rng.randint(1, 5)
            assert recip_power(x, k, f) == recip_power_fermat(x, k, f)


def test_residue_range_enforced():
    f = make_field(7)
    assert f.residue(9).value == 2
    assert (f.residue(3) + f.residue(5)).value == 1
    assert (f.residue(3) * f.residue(5)).value == 1


def test_recip_powers_vectorised():
    field = make_field(101)
    xs = np.arange(1, 300)
    xs = xs[xs % 101 != 0]
    for k in [1, 2, 7, 100, 101, 250]:
        got = field.recip_powers(xs, k)
        assert got.dtype == np.int64
        assert got.tolist() == [recip_power_fermat(int(x), k, field).value for x in xs]
    assert make_field(2).recip_powers(np.array([1, 3]), 5).tolist() == [1, 1]
    assert field.recip_powers(np.array([], dtype=np.int64), 3).size == 0


def test_recip_powers_refuses_multiples_of_p_and_bad_k():
    field = make_field(7)
    with pytest.raises(NotInvertible):
        field.recip_powers(np.array([1, 14]), 1)
    with pytest.raises(ValueError):
        field.recip_powers(np.array([1, 2]), 0)


def test_recip_powers_refuses_p_above_the_dense_ceiling():
    # field owns the ceiling; sets only re-exports it.
    assert sets.DENSE_P_MAX is field_module.DENSE_P_MAX == 3_037_000_500
    assert sets.require_dense is field_module.require_dense
    # 3037000507 is the first prime above the ceiling.
    with pytest.raises(ValueError, match="^3037000507 exceeds the dense-modulus ceiling 3037000500: "):
        PrimeField(3_037_000_507).recip_powers(np.array([2]), 1)
