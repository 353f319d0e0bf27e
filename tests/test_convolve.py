import random

import numpy as np
import pytest

from recipsums.convolve import cyclic_convolve_exact, cyclic_power_exact


def convolve_py(a, b):
    """O(n^2) cyclic convolution in Python ints."""
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % n] += int(x) * int(y)
    return out


def power_py(a, j):
    out = list(a)
    for _ in range(j - 1):
        out = convolve_py(out, a)
    return out


def check(a, b):
    got = cyclic_convolve_exact(a, b, len(a))
    expected = convolve_py(a, b)
    assert got.tolist() == expected
    assert got.dtype == (np.uint64 if max(expected) < 1 << 64 else object)
    return got


def test_matches_reference_on_seeded_vectors():
    rng = random.Random(401)
    for _ in range(60):
        n = rng.randint(1, 40)
        bools = [np.array([rng.random() < 0.4 for _ in range(n)]) for _ in range(2)]
        check(*bools)
        ints = [np.array([rng.randrange(1000) for _ in range(n)], dtype=np.int64) for _ in range(2)]
        check(*ints)
        check(bools[0], ints[1])
        bits = rng.choice([8, 63, 64, 65, 200])
        big = [[rng.randrange(1 << bits) for _ in range(n)] for _ in range(2)]
        check(*big)
        check(big[0], ints[1])


def test_single_entry_and_zero_vectors():
    assert check([3], [5]).tolist() == [15]
    assert check(np.array([True]), np.array([True])).tolist() == [1]
    for a, b in (([0, 0, 0], [1, 2, 3]), ([4, 5, 6], [0, 0, 0]), ([0], [0])):
        got = check(a, b)
        assert got.tolist() == [0] * len(a)
        assert got.dtype == np.uint64


@pytest.mark.parametrize("bound", [255, 256, (1 << 64) - 1, 1 << 64])
def test_bucket_width_boundaries(bound):
    # a single nonzero entry in each vector makes the bound exact
    check([bound, 0, 0], [0, 1, 0])
    check([0, 0, 1], [bound, 0, 0])
    # two halves landing on one coefficient
    half = bound // 2
    check([half, bound - half, 0], [1, 1, 0])


def test_wide_buckets_can_still_give_uint64():
    # the bound 2^64 needs 9-byte buckets, but no coefficient exceeds 2^63
    x = 1 << 62
    got = check([x, 0, 0, 0, x], [2, 0, 2, 0, 0])
    assert got.dtype == np.uint64
    assert max(got.tolist()) == 1 << 63


def test_bound_is_not_a_wrapping_sum():
    # sum(a) = 2^64 wraps to 0 in uint64; the result must not
    for a in ([1 << 63, 1 << 63], np.array([1 << 63, 1 << 63], dtype=np.uint64)):
        got = cyclic_convolve_exact(a, [1, 0], 2)
        assert got.tolist() == [1 << 63, 1 << 63]
        assert got.dtype == np.uint64


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        cyclic_convolve_exact([1, 2], [1, 2, 3], 2)
    with pytest.raises(ValueError):
        cyclic_convolve_exact([1, 2], [1, 2], 3)
    with pytest.raises(ValueError):
        cyclic_convolve_exact([1, -1], [1, 2], 2)
    with pytest.raises(ValueError):
        cyclic_convolve_exact([1, 2], np.array([1, -1], dtype=np.int64), 2)
    with pytest.raises(ValueError):
        cyclic_power_exact([1, -1], 3, 2)
    with pytest.raises(ValueError):
        cyclic_power_exact([1, 1], 0, 2)


def test_power_matches_reference():
    rng = random.Random(402)
    for _ in range(30):
        n = rng.randint(1, 25)
        a = [rng.randrange(rng.choice([2, 50, 1 << 40])) for _ in range(n)]
        for j in (1, 2, 3, 5, 8):
            got = cyclic_power_exact(a, j, n)
            expected = power_py(a, j)
            assert got.tolist() == expected
            assert got.dtype == (np.uint64 if max(expected) < 1 << 64 else object)
    assert cyclic_power_exact(np.array([True, False, True]), 1, 3).tolist() == [1, 0, 1]


@pytest.mark.parametrize(
    "bound",
    [9, 10, 99, 100, 10**18 - 1, 10**18, 10**19 - 1, 10**19, (1 << 64) - 1, 1 << 64]
    + [10**36 - 1, 10**36, 10**37],
)
def test_decimal_bucket_boundaries(bound):
    # digit-width steps, the widest coefficient that fits in uint64, and the
    # steps from one base-10^18 limb to two and from two to three
    check([bound, 0, 0], [0, 1, 0])
    check([0, 0, 1], [bound, 0, 0])
    half = bound // 2
    check([half, bound - half, 0], [1, 1, 0])
    check([half, bound - half, half], [1, 0, 1])


def test_entry_beyond_int_str_digit_limit():
    # 2^20000 has 6021 decimal digits, above Python's int <-> str limit
    big = (1 << 20000) + 3
    got = check([big, 1, 0, 2], [1, 0, 5, 1])
    assert got.dtype == object
    check([big, big], [big, 1])


def test_exact_context_traps_rounding():
    from decimal import Decimal, Inexact, Rounded

    from recipsums.convolve import _EXACT

    assert _EXACT.traps[Inexact] and _EXACT.traps[Rounded]
    # the same traps at a precision too small for the product: digits are
    # never dropped silently
    narrow = _EXACT.copy()
    narrow.prec = 5
    with pytest.raises(Inexact):
        narrow.multiply(Decimal(123457), Decimal(7))
    # 12340 * 70 loses only a zero digit: exact, but rounded all the same
    with pytest.raises(Rounded):
        narrow.multiply(Decimal(12340), Decimal(70))
    assert narrow.multiply(Decimal(12345), Decimal(7)) == 86415


def test_square_packs_once_and_matches_two_copies(monkeypatch):
    from recipsums import convolve

    packs = []
    pack = convolve._pack
    monkeypatch.setattr(convolve, "_pack", lambda values, digits: packs.append(digits) or pack(values, digits))
    rng = random.Random(403)
    for top in (2, 1000, 1 << 70):
        a = np.array([rng.randrange(top) for _ in range(37)], dtype=object if top > 1 << 63 else np.int64)
        square = cyclic_convolve_exact(a, a, 37)
        assert len(packs) == 1
        assert square.tolist() == cyclic_convolve_exact(a, a.copy(), 37).tolist() == convolve_py(a, a)
        assert len(packs) == 3
        packs.clear()
    # binary exponentiation packs each squaring's operand once: j = 8 is three squarings
    v = np.array([rng.randrange(5) for _ in range(20)], dtype=np.int64)
    assert cyclic_power_exact(v, 8, 20).tolist() == power_py(v.tolist(), 8)
    assert len(packs) == 3
