import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from recipsums import (
    FieldMismatch,
    GrowthConfig,
    IterationCap,
    NonPositiveTheta,
    PrimeField,
    ResidueSet,
    Stalled,
    grow_step,
    grow_until,
    n_bound,
    productset,
    sumset,
    term_budget,
)
from recipsums import BaseSetSpec, build_prime_reciprocal_set, growth
from recipsums.field import primitive_root
from recipsums.growth import (
    PRODUCT,
    SUM,
    product_counts,
    productset_dlog,
    productset_naive,
    sumset_conv,
    sumset_naive,
)


def rset(p, members):
    return ResidueSet.from_members(PrimeField(p), members)


def sumset_py(a, b):
    p = a.field.p
    return {(x + y) % p for x in a.to_list() for y in b.to_list()}


def productset_py(a, b):
    p = a.field.p
    return {x * y % p for x in a.to_list() for y in b.to_list()}


def test_sumset_examples():
    a = rset(7, [1, 3, 5])
    assert sumset(a, rset(7, [0])) == a
    assert sorted(sumset(rset(5, [1, 2]), rset(5, [1, 2]))) == [2, 3, 4]
    full = ResidueSet.full(PrimeField(7))
    assert sumset(full, a) == full


def test_productset_examples():
    a = rset(7, [1, 3, 5])
    assert productset(rset(7, [1]), a) == a
    assert sorted(productset(rset(7, [2, 3]), rset(7, [2, 3]))) == [2, 4, 6]
    assert productset(rset(7, [0]), a) == rset(7, [0])


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        sumset(rset(7, [1]), rset(11, [1]))
    with pytest.raises(FieldMismatch):
        productset(rset(7, [1]), rset(11, [1]))


def test_kernels_match_python_reference(rng):
    for _ in range(50):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        a = rset(p, rng.sample(range(p), rng.randint(1, p)))
        b = rset(p, rng.sample(range(p), rng.randint(1, p)))
        expected_sum = sumset_py(a, b)
        expected_prod = productset_py(a, b)
        assert set(sumset_naive(a, b)) == expected_sum
        assert set(sumset_conv(a, b)) == expected_sum
        assert set(productset_naive(a, b)) == expected_prod
        assert set(productset_dlog(a, b)) == expected_prod


def test_kernel_equivalence_random(rng):
    for _ in range(150):
        p = rng.choice([11, 101, 499])
        a = rset(p, rng.sample(range(p), rng.randint(1, p - 1)))
        b = rset(p, rng.sample(range(p), rng.randint(1, p - 1)))
        assert sumset_naive(a, b) == sumset_conv(a, b)
        assert productset_naive(a, b) == productset_dlog(a, b)


def test_from_members_array_matches_iterable():
    members = [-8, 0, 3, 7, 9, 23, 40]
    expected = rset(11, members)
    assert expected.to_list() == [0, 1, 3, 7, 9]
    for dtype in (np.int64, np.int32):
        assert rset(11, np.array(members, dtype=dtype)) == expected
    assert rset(11, np.array([m % 11 for m in members], dtype=np.uint64)) == expected
    assert rset(11, np.array([], dtype=np.int64)).card == 0


def test_empty_operand():
    a = rset(7, [1, 2])
    empty = ResidueSet.empty(PrimeField(7))
    assert sumset(a, empty).card == 0
    assert productset(empty, a).card == 0


def test_commutative_associative(rng):
    for _ in range(25):
        p = rng.choice([7, 11, 101])
        sets = [rset(p, rng.sample(range(p), rng.randint(1, p - 1))) for _ in range(3)]
        a, b, c = sets
        assert sumset(a, b) == sumset(b, a)
        assert productset(a, b) == productset(b, a)
        assert sumset(sumset(a, b), c) == sumset(a, sumset(b, c))
        assert productset(productset(a, b), c) == productset(a, productset(b, c))


def test_primitive_root_generates():
    for p in [2, 3, 5, 7, 11, 101, 499]:
        g = primitive_root(p)
        seen = set()
        acc = 1
        for _ in range(p - 1):
            seen.add(acc)
            acc = acc * g % p
        assert len(seen) == p - 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 9871, 99929])
def test_dlog_tables_match_loop(p):
    g = primitive_root(p)
    powers, dlog = [], [0] * p
    acc = 1
    for i in range(p - 1):
        powers.append(acc)
        dlog[acc] = i
        acc = acc * g % p
    got_powers, got_dlog = PrimeField(p).dlog_tables
    assert got_powers.tolist() == powers
    assert got_dlog.tolist() == dlog
    assert not got_powers.flags.writeable and not got_dlog.flags.writeable


def test_grow_until_builds_dlog_tables_once_per_field(monkeypatch):
    from recipsums import field as field_module

    roots, dense = [], []
    root, dlog_kernel = field_module.primitive_root, growth.productset_dlog
    monkeypatch.setattr(field_module, "primitive_root", lambda p: roots.append(p) or root(p))
    monkeypatch.setattr(growth, "productset_dlog", lambda a, b: dense.append(a.card) or dlog_kernel(a, b))
    field = PrimeField(10007)
    cfg = GrowthConfig(threshold_exponent=Fraction(9, 10))
    for seed in [range(1, 60), [1, 2, 3]]:  # one dense productset in each run
        grow_until(ResidueSet.from_members(field, seed), cfg, 1, Fraction(1, 4))
    assert dense == [1097, 1373] and roots == [10007]
    assert "dlog_tables" in vars(field)


def test_grow_step_degenerate_zero():
    nxt, op = grow_step(rset(7, [0]))
    assert op == PRODUCT
    assert sorted(nxt) == [0]


def test_grow_step_tie_goes_to_product():
    nxt, op = grow_step(rset(7, [1, 2]))
    assert op == PRODUCT
    assert sorted(nxt) == [1, 2, 4]


def test_grow_step_base_set_101():
    # |S+S| = |S*S| = 10 for the base set, so the tie picks the productset.
    s = rset(101, [51, 34, 81, 29])
    nxt, op = grow_step(s)
    assert op == PRODUCT
    assert nxt.card == 10
    assert sorted(nxt) == [17, 26, 27, 33, 45, 65, 76, 77, 91, 97]


def test_grow_until_already_large():
    full = ResidueSet.full(PrimeField(11))
    final, trace = grow_until(full, GrowthConfig(), 1, Fraction(1, 4))
    assert trace.n == 0
    assert final == full


def test_grow_until_stalls_on_zero():
    with pytest.raises(Stalled):
        grow_until(rset(11, [0]), GrowthConfig(), 1, Fraction(1, 4))


def test_grow_until_iteration_cap():
    # {2} mod 7 wanders around a cycle of singletons and never grows.
    with pytest.raises(IterationCap):
        grow_until(rset(7, [2]), GrowthConfig(max_iters=5), 1, Fraction(1, 4))


def test_grow_until_base_set_101():
    s = rset(101, [51, 34, 81, 29])
    final, trace = grow_until(s, GrowthConfig(), 1, Fraction(1, 2))
    assert final.card**3 > 101**2
    sizes = [trace.steps[0].size_before] + [st.size_after for st in trace.steps]
    assert sizes == sorted(sizes)
    assert trace.steps[-1].size_before ** 3 <= 101**2
    for st in trace.steps:
        expected = math.log(st.size_after) / math.log(st.size_before) - 1
        assert st.theta_hat == pytest.approx(expected)


def test_trace_bookkeeping():
    s = rset(101, [51, 34, 81, 29])
    _, trace = grow_until(s, GrowthConfig(), 2, Fraction(1, 4))
    assert trace.height_exponent == Fraction(2**trace.n, 4)
    assert trace.term_bound == 2 ** (2**trace.n)
    assert not trace.term_bound_capped


def test_term_bound_cap_flag():
    from recipsums.growth import GrowthStep, GrowthTrace

    steps = tuple(
        GrowthStep(SUM, 2, 2, 0.0) for _ in range(30)
    )
    trace = GrowthTrace(steps, u=3, beta=Fraction(1, 8))
    assert trace.term_bound_capped
    assert trace.term_bound is None
    assert trace.height_exponent == Fraction(2**30, 8)


# 2^10 * bit_length(u) at the bit cap 2^22, and one bit over it
@pytest.mark.parametrize("bits,capped", [(4096, False), (4097, True)])
def test_term_budget_is_the_trace_term_bound(bits, capped):
    from recipsums.growth import GrowthStep, GrowthTrace

    k, d, u = 1, 10, (1 << (bits - 1)) + 1
    theta = 3 ** (1 / (d - 0.5)) - 1
    assert math.ceil(math.log(3 * k) / math.log(1 + theta)) == d
    trace = GrowthTrace(tuple(GrowthStep(SUM, 2, 2, 0.0) for _ in range(d)), u=u, beta=Fraction(1, 8))
    if capped:
        with pytest.raises(OverflowError):
            term_budget(u, k, theta)
        assert trace.term_bound_capped and trace.term_bound is None
    else:
        assert term_budget(u, k, theta) == trace.term_bound == u ** (2**d)
        assert not trace.term_bound_capped


def test_term_budget_of_one_term():
    from recipsums.growth import GrowthStep, GrowthTrace

    # A sum step doubles an element's terms, so one-term sums are bounded as if u = 2.
    with pytest.raises(OverflowError):
        term_budget(1, 3, 1e-300)  # 1 + theta rounds to 1; log1p does not divide by zero
    trace = GrowthTrace(tuple(GrowthStep(SUM, 2, 2, 0.0) for _ in range(64)), u=1, beta=Fraction(1, 8))
    assert trace.term_bound is None and trace.term_bound_capped
    trace = GrowthTrace(tuple(GrowthStep(SUM, 2, 2, 0.0) for _ in range(3)), u=1, beta=Fraction(1, 8))
    assert trace.term_bound == 2 ** (2**3) == 256 and not trace.term_bound_capped


def test_n_bound():
    assert n_bound(1, 1.0) == pytest.approx(math.log(3) / math.log(2) + 1)
    assert n_bound(2, 1.0) == pytest.approx(math.log(6) / math.log(2) + 1)
    with pytest.raises(NonPositiveTheta):
        n_bound(1, 0.0)


def test_term_budget():
    assert term_budget(1, 1, 0.5) == 256  # ceil(log3/log1.5) = 3, so max(1, 2)^(2^3)
    assert term_budget(2, 1, 1.0) == 16  # ceil(log3/log2) = 2, so 2^(2^2)
    assert term_budget(3, 1, 1.0) == 81
    with pytest.raises(NonPositiveTheta):
        term_budget(2, 1, 0.0)
    with pytest.raises(OverflowError):
        term_budget(2, 1, 1e-9)


def test_self_product_counts_pack_once(monkeypatch, rng):
    from recipsums import convolve

    packs = []
    pack = convolve._pack
    monkeypatch.setattr(convolve, "_pack", lambda values, digits: packs.append(digits) or pack(values, digits))
    for p in [2, 3, 101, 1009]:
        for with_zero in (False, True):
            members = rng.sample(range(1, p), min(p - 1, 30)) + ([0] if with_zero else [])
            t = rset(p, members)
            packs.clear()
            counts = product_counts(t, t)
            assert len(packs) == 1
            twin = rset(p, members)
            assert counts.tolist() == product_counts(t, twin).tolist()
            expected = [0] * p
            for x in t.to_list():
                for y in t.to_list():
                    expected[x * y % p] += 1
            assert counts.tolist() == expected
            packs.clear()
            assert sumset_conv(t, t) == sumset_conv(t, twin)
            assert len(packs) == 1 + 2


def subsets(p):
    return [rset(p, c) for size in range(p + 1) for c in combinations(range(p), size)]


@pytest.mark.parametrize("p", [2, 3])
def test_naive_kernels_on_every_pair_of_subsets(p):
    for a in subsets(p):
        for b in subsets(p):
            assert set(sumset_naive(a, b)) == sumset_py(a, b) and sumset_naive(a, b) == sumset_conv(a, b)
            assert set(productset_naive(a, b)) == productset_py(a, b)
            assert productset_naive(a, b) == productset_dlog(a, b)


def test_naive_kernels_across_block_edges():
    # Blocks hold p // |B| rows of A: cover one row, one block, a block plus
    # one row, a partial last block, |B| = 1 (one block of all rows) and |B| = p.
    rng = random.Random(6011)
    p = 101
    for b_size in (1, 2, 30, 33, 50, 51, 100, 101):
        rows = p // b_size
        for a_size in sorted({1, rows, rows + 1, 2 * rows - 1, 2 * rows + 1, p} & set(range(1, p + 1))):
            a = rset(p, rng.sample(range(p), a_size))
            b = rset(p, rng.sample(range(p), b_size))
            assert sumset_naive(a, b) == sumset_conv(a, b), (a_size, b_size)
            assert productset_naive(a, b) == productset_dlog(a, b), (a_size, b_size)
            with_zero = rset(p, a.to_list() + [0])
            assert productset_naive(with_zero, b) == productset_dlog(with_zero, b)


def test_dispatch_switches_at_pairs_per_residue(monkeypatch):
    calls = []
    for name in ("sumset_naive", "sumset_conv", "productset_naive", "productset_dlog"):
        kernel = getattr(growth, name)
        monkeypatch.setattr(growth, name, lambda a, b, k=kernel, n=name: calls.append(n) or k(a, b))
    p = 101
    limit = growth._NAIVE_PAIRS_PER_RESIDUE * p
    rng = random.Random(4243)
    shapes = {x * y: (x, y) for x in range(1, p + 1) for y in range(x, p + 1)}
    below = max(n for n in shapes if n < limit)
    above = min(n for n in shapes if n > limit)
    assert limit - below <= 2 and above - limit == 1
    for pairs in (below, limit, above):
        na, nb = shapes[pairs]
        a, b = rset(p, rng.sample(range(p), na)), rset(p, rng.sample(range(p), nb))
        calls.clear()
        assert sumset(a, b) == sumset_naive(a, b) == sumset_conv(a, b)
        assert productset(a, b) == productset_naive(a, b) == productset_dlog(a, b)
        naive = pairs <= limit
        assert calls == (["sumset_naive", "productset_naive"] if naive else ["sumset_conv", "productset_dlog"])


def test_kernel_results_are_locked_and_callers_arrays_copied():
    field = PrimeField(7)
    bits = np.zeros(7, dtype=bool)
    bits[[1, 3]] = True
    s = ResidueSet(field, bits)
    bits[2] = True
    assert s.to_list() == [1, 3] and bits.flags.writeable
    assert ResidueSet(field, np.array([0, 1, 0, 0, 0, 0, 2], dtype=np.uint8)).to_list() == [1, 6]
    with pytest.raises(ValueError):
        ResidueSet(field, np.zeros(6, dtype=bool))
    a = rset(7, [1, 2])
    built = [sumset_naive(a, a), sumset_conv(a, a), productset_naive(a, a), productset_dlog(a, a),
             ResidueSet.empty(field), ResidueSet.full(field), rset(7, [5])]
    for t in built:
        assert not t.bits.flags.writeable
        with pytest.raises(ValueError):
            t.bits[0] = True


@pytest.mark.parametrize("dense", [False, True])
def test_every_set_is_built_by_the_copying_constructor(monkeypatch, dense):
    built = []
    init = ResidueSet.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(ResidueSet, "__init__", counted)
    if dense:
        monkeypatch.setattr(growth, "_NAIVE_PAIRS_PER_RESIDUE", 0)
    field = PrimeField(101)
    a = rset(101, [1, 2, 3, 5, 8])
    builders = {
        "sumset": lambda: sumset(a, a),
        "productset": lambda: productset(a, a),
        "build_prime_reciprocal_set": lambda: build_prime_reciprocal_set(
            BaseSetSpec(field, 1, Fraction(1, 2), u=2))[0],
        "from_members": lambda: ResidueSet.from_members(field, [4, 7]),
        "empty": lambda: ResidueSet.empty(field),
        "full": lambda: ResidueSet.full(field),
    }
    for name, build in builders.items():
        built.clear()
        t = build()
        assert built and built[-1] is t, name
        assert not t.bits.flags.writeable, name
