import gc
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from recipsums import (
    BoundViolated,
    ExpSumProfile,
    NonPositiveBeta,
    ResidueSet,
    check_covering_positivity,
    compute_J,
    covering_counts,
    covering_counts_fourier,
    exp_sum_profile,
    exponent_excess,
    f_profile,
    h_profile,
    make_field,
    minimal_covering_J,
    pair_product_multiplicity,
    verify_bilinear_bound,
)
from recipsums.basesets import primes_up_to
from recipsums.convolve import cyclic_convolve_exact
from recipsums.expsums import f_profile_direct, h_profile_direct
from recipsums.growth import product_counts


def rset(p, members):
    return ResidueSet.from_members(make_field(p), members)


def test_h_profile_trivial():
    h = h_profile(rset(7, [0]))
    assert np.allclose(h, np.ones(7))
    h_full = h_profile(ResidueSet.full(make_field(7)))
    assert h_full[0] == pytest.approx(7)
    assert np.allclose(np.abs(h_full[1:]), 0, atol=1e-9)


def test_h_profile_vs_direct(rng):
    for p in [7, 11, 101]:
        for _ in range(10):
            t = rset(p, rng.sample(range(p), rng.randint(1, p - 1)))
            assert np.allclose(h_profile(t), h_profile_direct(t), atol=1e-9)
    t = rset(7, [1, 2, 4])
    h = h_profile(t)
    assert h[0] == pytest.approx(3)
    direct = sum(np.exp(2j * np.pi * tt / 7) for tt in [1, 2, 4])
    assert abs(h[1] - direct) < 1e-9


def test_f_profile_trivial():
    f1 = f_profile(rset(7, [1]))
    assert np.allclose(np.abs(f1), 1)
    f0 = f_profile(rset(7, [0]))
    assert np.allclose(f0, np.ones(7))
    for members in [[1, 2], [0, 3, 5]]:
        t = rset(11, members)
        assert f_profile(t)[0].real == pytest.approx(len(members) ** 2)


def test_f_profile_vs_direct(rng):
    for p in [7, 11, 101]:
        for _ in range(5):
            t = rset(p, rng.sample(range(p), rng.randint(1, min(p - 1, 50))))
            f = f_profile(t)
            fd = f_profile_direct(t)
            scale = max(1.0, float(np.abs(fd).max()))
            assert np.abs(f - fd).max() / scale < 1e-8
    seeded = random.Random(4099)
    for p in [2, 3, 503, 1009]:
        for with_zero in (False, True):
            for _ in range(2):
                members = seeded.sample(range(1, p), seeded.randint(1, min(p - 1, 59)))
                t = rset(p, members + [0] * with_zero)
                assert (0 in t) == with_zero
                fd = f_profile_direct(t)
                assert np.abs(f_profile(t) - fd).max() / float(np.abs(fd).max()) < 1e-8


def test_parseval(rng):
    for p in [11, 101, 499]:
        for _ in range(20):
            t = rset(p, rng.sample(range(p), rng.randint(1, p - 1)))
            profile = exp_sum_profile(t)
            assert profile.parseval_relative_error < 1e-6
            assert profile.h_abs[0] == pytest.approx(t.card, rel=1e-9)
            assert profile.f_abs[0] == pytest.approx(profile.f0, rel=1e-9)


def test_bilinear_bound():
    report = verify_bilinear_bound(exp_sum_profile(rset(11, [1])))
    assert report.max_ratio == pytest.approx(1 / math.sqrt(11))
    assert report.holds

    rng = random.Random(5)
    t = rset(101, rng.sample(range(101), 20))
    assert verify_bilinear_bound(exp_sum_profile(t)).holds

    assert verify_bilinear_bound(exp_sum_profile(ResidueSet.full(make_field(7)))).holds


def test_bilinear_worst_a_is_smaller_mirror():
    rng = random.Random(2027)
    for p in [2, 3, 101, 1009, 2003]:
        for _ in range(4):
            t = rset(p, rng.sample(range(p), rng.randint(1, p - 1)))
            profile = exp_sum_profile(t)
            report = verify_bilinear_bound(profile)
            assert 1 <= report.worst_a <= p // 2
            peak = profile.f_abs[1:].max()
            assert abs(profile.f_abs[report.worst_a] - peak) <= 1e-12 * peak
            scale = math.sqrt(p) * t.card
            assert report.max_ratio == pytest.approx(peak / scale, rel=1e-12)


def test_bilinear_bound_checks_upper_half():
    p = 11
    f_abs = np.ones(p)
    f_abs[0] = 4.0
    f_abs[9] = 2 * math.sqrt(p) * 2  # too large only at a = 9 > p/2
    profile = ExpSumProfile(p=p, set_size=2, h_abs=np.ones(p), f_abs=f_abs, f0=4)
    with pytest.raises(BoundViolated):
        verify_bilinear_bound(profile)


def test_compute_J():
    assert compute_J(Fraction(1, 6)) == 17
    assert compute_J(Fraction(1, 2)) == 9
    assert compute_J(Fraction(1, 1)) == 7
    assert compute_J(0.25) == 13  # floats convert to their exact rational
    with pytest.raises(NonPositiveBeta):
        compute_J(Fraction(0))
    with pytest.raises(NonPositiveBeta):
        compute_J(-0.5)


def test_pair_product_multiplicity():
    w = pair_product_multiplicity(rset(7, [1]))
    assert list(w) == [0, 1, 0, 0, 0, 0, 0]
    w = pair_product_multiplicity(rset(7, [2, 3]))
    assert list(w) == [0, 0, 1, 0, 1, 0, 2]  # products 4, 6, 6, 2
    w = pair_product_multiplicity(rset(7, [0, 1]))
    assert w[0] == 3 and w[1] == 1
    t = rset(101, list(range(1, 30)))
    assert pair_product_multiplicity(t).sum() == t.card**2


def product_counts_loop(a, b):
    """Reference: for each member x of A, bincount the products x*B."""
    p = a.field.p
    c = np.zeros(p, dtype=np.int64)
    bm = b.members()
    for x in a.members():
        c += np.bincount((int(x) * bm) % p, minlength=p)
    return c


def test_product_counts_vs_loop():
    rng = random.Random(1301)
    for p in [2, 3] + rng.sample(primes_up_to(1000), 24):
        for _ in range(2):
            a, b = (rng.sample(range(1, p), rng.randint(1, p - 1)) for _ in range(2))
            for zero_a, zero_b in product((False, True), repeat=2):
                ta, tb = rset(p, [0] * zero_a + a), rset(p, [0] * zero_b + b)
                assert product_counts(ta, tb).tolist() == product_counts_loop(ta, tb).tolist()
                w = pair_product_multiplicity(ta)
                assert w.tolist() == product_counts_loop(ta, ta).tolist()
    assert product_counts(rset(5, [0]), rset(5, [0, 3])).tolist() == [2, 0, 0, 0, 0]
    assert product_counts(rset(5, []), rset(5, [0, 3])).tolist() == [0] * 5


def test_covering_counts_trivial():
    table = covering_counts(rset(5, [1]), 2)
    assert table.counts == (0, 0, 1, 0, 0)
    w = pair_product_multiplicity(rset(7, [2, 3]))
    table = covering_counts(rset(7, [2, 3]), 1)
    assert list(table.counts) == [int(v) for v in w]


def test_covering_counts_vs_exhaustive():
    # All 81 ordered pairs of ordered pair-products for T = {1,2,3} mod 7.
    p = 7
    t = [1, 2, 3]
    prods = [(t1 * t2) % p for t1 in t for t2 in t]
    expected = [0] * p
    for x1, x2 in product(prods, repeat=2):
        expected[(x1 + x2) % p] += 1
    assert expected == [8, 13, 9, 10, 13, 18, 10]
    table = covering_counts(rset(p, t), 2)
    assert list(table.counts) == expected


def test_covering_mass_conservation(rng):
    for _ in range(10):
        p = rng.choice([7, 11, 17])
        t = rset(p, rng.sample(range(p), rng.randint(1, p - 1)))
        j = rng.randint(1, 4)
        table = covering_counts(t, j)
        assert sum(table.counts) == (t.card**2) ** j


def test_fourier_agreement(rng):
    for _ in range(10):
        p = rng.choice([7, 11, 31, 101])
        size = rng.randint(1, min(10, p - 1))
        t = rset(p, rng.sample(range(p), size))
        j = rng.randint(1, 5)
        exact = covering_counts(t, j)
        assert covering_counts_fourier(t, j) == list(exact.counts)


def test_covering_positivity_full_set():
    report = check_covering_positivity(ResidueSet.full(make_field(7)), 1)
    assert report.all_covered
    assert report.min_count >= 6  # every nonzero target has p-1 pair factorizations


def test_covering_positivity_zero_set():
    report = check_covering_positivity(rset(7, [0]), 3)
    assert not report.all_covered
    assert report.min_count == 0


def test_exponent_excess_owns_the_J_rule():
    small = rset(101, range(1, 11))  # 10^2 <= 101
    assert exponent_excess(small) is None
    assert check_covering_positivity(small, 2).beta_excess is None
    t = rset(101, range(1, 12))  # 11^2 > 101
    assert exponent_excess(t) == check_covering_positivity(t, 2).beta_excess
    assert exponent_excess(t) == pytest.approx(math.log(11) / math.log(101) - 0.5)


def test_minimal_covering_J():
    # Products of {1,2} mod 7 are {1,2,4}; sums of two miss 0, sums of
    # three reach everything (1+2+4 = 7).
    assert minimal_covering_J(rset(7, [1, 2])) == 3
    assert minimal_covering_J(rset(7, [0]), j_cap=5) is None
    assert minimal_covering_J(ResidueSet.full(make_field(7))) == 1


def minimal_covering_J_counts(t, j_cap):
    """The minimal-J search on exact covering counts, for comparison."""
    counts = w = pair_product_multiplicity(t)
    for j in range(1, j_cap + 1):
        if counts.min() > 0:
            return j
        counts = cyclic_convolve_exact(counts, w, t.field.p)
    return None


def test_minimal_covering_J_matches_counts():
    rng = random.Random(511)
    seen = set()
    for _ in range(40):
        p = rng.choice([7, 11, 31, 101, 211])
        t = rset(p, rng.sample(range(p), rng.randint(1, min(12, p - 1))))
        j_cap = rng.choice([2, 3, 8])
        expected = minimal_covering_J_counts(t, j_cap)
        assert minimal_covering_J(t, j_cap=j_cap) == expected
        seen.add(expected is None)
    assert seen == {True, False}
    # products of the quadratic residues mod 7 stay in {1, 2, 4}: J = 3 is needed
    assert minimal_covering_J(rset(7, [1, 2, 4]), j_cap=2) is None
    assert minimal_covering_J_counts(rset(7, [1, 2, 4]), 2) is None


def test_pair_product_multiplicity_is_shared_and_locked():
    t = rset(31, [2, 3, 5, 7, 11])
    w = pair_product_multiplicity(t)
    assert pair_product_multiplicity(t) is w
    assert not w.flags.writeable
    # an equal but distinct set computes its own w
    other = pair_product_multiplicity(rset(31, [2, 3, 5, 7, 11]))
    assert other is not w and np.array_equal(other, w)


def test_pair_product_multiplicity_is_freed_with_its_set():
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        t = rset(30011, random.Random("w-freed").sample(range(30011), 1500))
        verify_bilinear_bound(exp_sum_profile(t))
        held = tracemalloc.get_traced_memory()[0] - start
        del t
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held > 30011 * 8  # w alone is a length-p int64 vector
    assert left < 64 * 1024
