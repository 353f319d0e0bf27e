import concurrent.futures
import gc
import itertools
import math
import random
import tracemalloc
import weakref
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipsums import (
    ReprProblem,
    ResidueSet,
    build_layer_table,
    min_terms,
    n_max,
    scan,
)
from recipsums.basesets import primes_up_to
from recipsums.bruteforce import exhaustive_depth_table, exhaustive_min_terms
from recipsums.field import PrimeField
from recipsums.growth import productset_dlog, productset_naive, sumset
from recipsums import represent
from recipsums.represent import check_representation

from conftest import epsilon_for_height


def problem(p, k, epsilon):
    return ReprProblem(PrimeField(p), k, epsilon)


def base_reciprocals(pr):
    """The one-term set G as a ResidueSet, for the sumset oracles."""
    return ResidueSet.from_members(pr.field, pr.reciprocals)


@lru_cache(maxsize=None)
def exact_layer(pr, j):
    """Residues that are a sum of exactly j admissible reciprocals, by repeated sumset."""
    base = base_reciprocals(pr)
    return base if j == 1 else sumset(exact_layer(pr, j - 1), base)


def level_one(table):
    """The residues at distance 1: G, ascending."""
    return [r for r, n in enumerate(table.coverage) if n == 1]


def minimal_layer_counts(pr):
    """For every residue, the first j whose exact layer contains it. The
    layers are iterated sumsets with the base, built in a loop: a deep BFS
    has thousands of levels, too many for exact_layer's recursion."""
    base = base_reciprocals(pr)
    counts = np.zeros(pr.field.p, dtype=np.int64)
    layer, j = base, 1
    while True:
        counts[layer.bits & (counts == 0)] = j
        if counts.all():
            return counts.tolist()
        layer, j = sumset(layer, base), j + 1


def test_height_and_admissible():
    pr = problem(7, 1, Fraction(1, 1))
    assert pr.height == 7
    assert tuple(pr.admissible) == (1, 2, 3, 4, 5, 6)  # 7 is excluded
    assert problem(2, 1, Fraction(1, 3)).height == 1
    assert problem(499, 3, Fraction(1, 3)).height == 7


def test_admissible_is_one_range():
    pr = problem(1_000_003, 1, Fraction(1, 1))
    assert pr.height == 1_000_003
    tracemalloc.start()
    bases = pr.admissible
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert bases == range(1, 1_000_003) and peak < 1024  # a tuple of the bases is 38 MiB
    # Witnesses hold Python ints, so that "x in bases" stays O(1).
    w = min_terms(777, problem(1009, 2, Fraction(1, 2)))
    assert w.xs and all(type(x) is int for x in w.xs)


def test_base_reciprocals_examples():
    assert sorted(base_reciprocals(problem(7, 1, Fraction(1, 1)))) == [1, 2, 3, 4, 5, 6]
    pr = problem(7, 1, epsilon_for_height(7, 2))
    assert pr.height == 2
    assert sorted(base_reciprocals(pr)) == [1, 4]
    assert sorted(base_reciprocals(problem(2, 1, Fraction(1, 1)))) == [1]


@pytest.mark.parametrize(
    "p,k,epsilon",
    [(1009, 1, Fraction(1, 2)), (1009, 2, Fraction(1, 1)), (1009, 3, Fraction(1, 1)), (499, 3, Fraction(1, 3))],
)
def test_generators_are_level_one_of_the_distance_array(p, k, epsilon):
    pr = problem(p, k, epsilon)
    table = build_layer_table(pr)
    gens = level_one(table)
    assert gens == sorted(set(pr.reciprocals))
    assert table.base_size == len(gens)
    if k == 2 and epsilon == 1:  # x and p - x share 1/x^2, so G has half as many residues
        assert 2 * len(gens) == len(pr.reciprocals)


def test_min_terms_single_term():
    for p, k in [(7, 1), (11, 2), (101, 3)]:
        pr = problem(p, k, Fraction(1, 1))
        w = min_terms(1, pr)
        assert w.n == 1 and w.xs == (1,)


def test_min_terms_zero_needs_two():
    w = min_terms(0, problem(7, 1, Fraction(1, 1)))
    assert w.n == 2
    assert w.xs == (1, 6)  # lexicographically smallest
    assert check_representation(w.xs, w.target, w.problem)


def test_min_terms_height_two():
    pr = problem(7, 1, epsilon_for_height(7, 2))
    w = min_terms(3, pr)
    assert w.n == 3  # confirmed by the exhaustive oracle below
    assert check_representation(w.xs, w.target, pr)
    oracle_n, oracle_xs = exhaustive_min_terms(3, pr)
    assert oracle_n == 3
    assert w.xs == oracle_xs


def test_n_max_examples():
    value, hist = n_max(problem(7, 1, Fraction(1, 1)))
    assert value == 2
    assert hist == [2, 1, 1, 1, 1, 1, 1]

    value, hist = n_max(problem(2, 1, Fraction(1, 1)))
    assert value == 2
    assert hist == [2, 1]

    pr = problem(3, 1, epsilon_for_height(3, 1))
    assert pr.height == 1
    value, hist = n_max(pr)
    assert value == 3
    assert hist == [3, 1, 2]


def test_layer_table_structure():
    pr = problem(7, 1, epsilon_for_height(7, 2))
    table = build_layer_table(pr)
    assert level_one(table) == [1, 4] and table.base_size == 2
    # exactly-j-term layers, computed by hand
    assert exact_layer(pr, 2).to_list() == [1, 2, 5]
    assert exact_layer(pr, 3).to_list() == [2, 3, 5, 6]
    # the table's count is the first exact layer holding the residue
    assert table.coverage.tolist() == [
        min(j for j in range(1, 8) if r in exact_layer(pr, j)) for r in range(7)
    ]


@pytest.mark.parametrize(
    "k, epsilon", [(2, Fraction(1, 3)), (2, Fraction(1, 2)), (1, Fraction(1, 1))]
)
def test_coverage_matches_exact_layers_near_10k(k, epsilon):
    rng = random.Random(f"bfs/{k}/{epsilon}")
    p = rng.choice([q for q in primes_up_to(10_500) if q >= 9_500])
    pr = problem(p, k, epsilon)
    table = build_layer_table(pr)
    assert table.coverage.tolist() == minimal_layer_counts(pr)
    for a in rng.sample(range(p), 20):
        w = min_terms(a, pr)
        assert w.n == table.coverage[a] and check_representation(w.xs, w.target, pr)


def test_reciprocals_match_scalar_oracle(monkeypatch):
    rng = random.Random("recip_powers")
    primes = [2, 3] + rng.sample([q for q in primes_up_to(10_000) if q > 3], 5)
    for p in primes:
        for k in sorted({1, 2, 3, p - 1, p, 2 * (p - 1)}):
            for eps in [Fraction(1, 3), Fraction(1, 2), Fraction(1, 1)]:
                pr = problem(p, k, eps)
                assert tuple(pr.admissible) == tuple(x for x in range(1, pr.height + 1) if x % p)
                assert type(pr.reciprocals) is tuple  # immutable, and plain ints
                assert pr.reciprocals == tuple(pr.field.recip_power(x, k) for x in pr.admissible)

    # The dense ceiling: p = 3037000493, and no length-p list.
    p = 3_037_000_493
    for k in [1, 2, 3, p - 1, p, 2 * (p - 1)]:
        pr = problem(p, k, Fraction(1, 3))
        tracemalloc.start()
        recips = pr.reciprocals
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert len(recips) == pr.height == 1448 and peak < 1 << 20
        assert recips == tuple(pr.field.recip_power(x, k) for x in range(1, 1449))

    calls = []
    recip_power = PrimeField.recip_power

    def counted(self, x, k):
        calls.append(x)
        return recip_power(self, x, k)

    monkeypatch.setattr(PrimeField, "recip_power", counted)
    pr = problem(1009, 1, Fraction(1, 1))
    table = build_layer_table(pr)
    assert level_one(table) == base_reciprocals(pr).to_list()
    assert calls == []


def test_full_group_path_matches_the_generic_path(monkeypatch):
    """At epsilon = 1 with gcd(k, p - 1) = 1, G is all of (Z/pZ)*: the table
    is built without a reciprocal, and matches the one built from them."""
    tables = {}
    for fills in (True, False):
        if not fills:
            monkeypatch.setattr(represent, "_fills_group", lambda problem, p: False)
        for p in primes_up_to(2000):
            for k in (1, 2, 3):
                pr = problem(p, k, Fraction(1, 1))
                table = build_layer_table(pr)
                tables.setdefault((p, k), []).append((table.depth, table.base_size, table.coverage.tolist()))
                computed = "reciprocals" in vars(pr)
                assert computed == (not fills or math.gcd(k, p - 1) > 1)
    assert all(full == generic for full, generic in tables.values())
    assert sum(math.gcd(k, p - 1) == 1 for p, k in tables) == 459  # k = 1, p = 2 and half of k = 3
    pr = problem(1009, 1, Fraction(1, 1))
    w = min_terms(0, pr)  # backtracking computes the reciprocals it reads
    assert (w.n, w.xs) == (2, (1, 1008)) and "reciprocals" in vars(pr)


KERNELS = (represent._push, represent._pull, represent._shift)


def force_kernel(monkeypatch, pick):
    """Make every BFS level run pick(level, size, remaining) instead of the
    chooser's kernel."""

    def chooser(h, p):
        level = itertools.count(2)  # level 1 is the base itself
        return lambda size, remaining, in_bits, in_index: pick(next(level), size, remaining)

    monkeypatch.setattr(represent, "_kernel_chooser", chooser)


def spy_kernels(monkeypatch):
    """The kernels the real chooser picks, level by level, appended to a list."""
    chosen = []
    real = represent._kernel_chooser

    def chooser(h, p):
        choose = real(h, p)

        def spied(size, remaining, in_bits, in_index):
            chosen.append(choose(size, remaining, in_bits, in_index))
            return chosen[-1]

        return spied

    monkeypatch.setattr(represent, "_kernel_chooser", chooser)
    return chosen


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize(
    "epsilon", [Fraction(1, 8), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), Fraction(1, 1)]
)
def test_each_kernel_matches_exact_layers(monkeypatch, k, epsilon):
    # A forced push has no memory guard, so the widest bases get smaller primes.
    top = 1_200 if epsilon >= Fraction(9, 10) else 10_000
    rng = random.Random(f"kernels/{k}/{epsilon}")
    p = rng.choice([q for q in primes_up_to(top) if q >= top // 2])
    pr = problem(p, k, epsilon)
    expected = minimal_layer_counts(pr)
    assert represent._layer_table(pr).coverage.tolist() == expected
    for kernel in KERNELS:
        force_kernel(monkeypatch, lambda level, size, remaining: kernel)
        assert represent._layer_table(pr).coverage.tolist() == expected, kernel


@pytest.mark.parametrize("p", [2, 3, 5])
def test_each_kernel_on_the_smallest_primes(monkeypatch, p):
    for k in (1, 2, 3):
        for h in range(1, p + 1):
            pr = problem(p, k, epsilon_for_height(p, h))
            expected = exhaustive_depth_table(pr)
            for kernel in KERNELS:
                force_kernel(monkeypatch, lambda level, size, remaining: kernel)
                assert represent._layer_table(pr).coverage.tolist() == expected


def test_kernel_switches_keep_the_table_exact(monkeypatch):
    # Index form to bit form and back, more than once, through every kernel,
    # with the push levels held as lists and written to the level array.
    pr = problem(9973, 1, Fraction(1, 4))  # frontier sizes 9, 39, ..., 1558, ..., 166, 31
    expected = minimal_layer_counts(pr)
    for held in ((8, 4), (0, 64)):  # hold up to 8 push levels; write every one
        monkeypatch.setattr(represent, "_HELD", held)
        seen = []

        def sparse_dense_sparse(level, size, remaining):
            seen.append(represent._push if size < 200 else represent._shift)
            return seen[-1]

        force_kernel(monkeypatch, sparse_dense_sparse)
        assert represent._layer_table(pr).coverage.tolist() == expected
        runs = [kernel for i, kernel in enumerate(seen) if i == 0 or seen[i - 1] is not kernel]
        assert runs == [represent._push, represent._shift, represent._push]

        cycle = (represent._push, represent._shift, represent._shift, represent._pull, represent._shift)
        force_kernel(monkeypatch, lambda level, size, remaining: cycle[level % len(cycle)])
        assert represent._layer_table(pr).coverage.tolist() == expected


class RecordedSlices(list):
    """A generator list that records how far a kernel read into it."""

    read = 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            self.read = max(self.read, min(index.stop, len(self)))
        return super().__getitem__(index)


def bits_of(residues):
    return sum(1 << r for r in residues)


def base_of(gens, p):
    """The kernels' view of a generator list mod p."""
    return represent._Base(gens, bits_of(gens), p)


def test_shift_pass_stops_once_every_unreached_residue_is_hit():
    # All of 1..10 is the frontier mod 11: the first generator already hits 0.
    gens = RecordedSlices(range(1, 11))
    hit = represent._shift(bits_of(range(1, 11)), bits_of([0]), base_of(gens, 11), 10, 1)
    assert hit == bits_of([0])
    assert gens.read == 1


def test_shift_pass_runs_through_all_generators_when_it_must():
    # Only the last generator reaches 5 from 0, and nothing reaches 7.
    for unreached, expected in (([5], [5]), ([5, 7], [5])):
        gens = RecordedSlices([1, 2, 3, 4, 5])
        hit = represent._shift(1, bits_of(unreached), base_of(gens, 11), 1, len(unreached))
        assert hit == bits_of(expected)
        assert gens.read == len(gens)


def test_shift_pass_pulls_the_few_residues_it_has_not_hit():
    # Mod 1009 the frontier is 0..499 and G = 1..200. 650 is reached only
    # from g >= 151 and 800 not at all; the pass stops after the expected
    # two generators, and the pull probes a few more before it tests each
    # residue against all of u - G at once.
    p, gens = 1009, RecordedSlices(range(1, 201))
    base = base_of(gens, p)
    step = represent._SHIFT_NS[0] + represent._SHIFT_NS[1] * p
    budget = int(represent._TEST_STEPS * step / represent._PROBE_NS)
    hit = represent._shift(bits_of(range(500)), bits_of([650, 800]), base, 500, 2)
    assert hit == bits_of([650])
    assert gens.read < 2 + budget + 1 < len(gens)


def test_pull_probes_then_tests_all_of_u_minus_g():
    p = 1009
    gens = list(range(1, 201))
    front = bits_of(range(500))
    unreached = bits_of(range(500, p))
    expected = bits_of(u for u in range(500, p) if any((u - g) % p < 500 for g in gens))
    assert represent._pull(front, unreached, base_of(gens, p), 500, p - 500) == expected


@pytest.mark.parametrize(
    "k, epsilon, kernel",
    [
        (1, Fraction(1, 8), represent._push),  # deep: a dozen residues per level
        (2, Fraction(1, 2), represent._shift),  # dense levels, 100 generators
        (1, Fraction(1, 1), represent._shift),  # every residue but 0 in G: one left, hit by the first pass
    ],
)
def test_chooser_picks_the_one_fast_kernel(monkeypatch, k, epsilon, kernel):
    rng = random.Random(f"chooser/{k}/{epsilon}")
    for p in rng.sample([q for q in primes_up_to(10_500) if q >= 9_500], 3):
        chosen = spy_kernels(monkeypatch)
        pr = problem(p, k, epsilon)
        assert represent._layer_table(pr).coverage.tolist() == minimal_layer_counts(pr)
        assert chosen and set(chosen) == {kernel}, (p, chosen)


def test_chooser_mixes_the_kernels_at_a_large_base(monkeypatch):
    # p = 99991, k = 1, eps = 9/10: a shift for the dense level 2, whose one
    # straggler, 0, is pulled, then a shift for the residue left.
    chosen = spy_kernels(monkeypatch)
    pulled = []
    pull = represent._pull

    def spied_pull(front, unreached, *args):
        pulled.append(unreached)
        return pull(front, unreached, *args)

    monkeypatch.setattr(represent, "_pull", spied_pull)
    pr = problem(99991, 1, Fraction(9, 10))
    assert represent._layer_table(pr).coverage.tolist() == minimal_layer_counts(pr)
    assert chosen == [represent._shift, represent._shift]
    assert pulled == [bits_of([0])]


def test_chooser_pushes_every_small_level_at_a_small_prime(monkeypatch):
    # p = 4001, k = 2, eps = 1/8: H = 2, so a thousand levels of at most four
    # residues each. A shift level costs more fixed Python work than a push
    # level, however short its pass over 4001 bits.
    chosen = spy_kernels(monkeypatch)
    pr = problem(4001, 2, Fraction(1, 8))
    assert represent._layer_table(pr).coverage.tolist() == minimal_layer_counts(pr)
    assert len(chosen) > 900 and set(chosen) == {represent._push}


def test_coverage_is_the_narrowest_read_only_buffer():
    # H = 1 makes G = {1}, so residue r needs r terms and 0 needs p.
    cases = ((1009, Fraction(1, 2), "B"), (9973, Fraction(1, 8), "H"), (70001, Fraction(1, 100), "I"))
    for p, epsilon, fmt in cases:
        pr = problem(p, 1, epsilon)
        table = build_layer_table(pr)
        coverage = table.coverage
        assert coverage.format == fmt and coverage.readonly and len(coverage) == p
        assert max(coverage) == table.depth == n_max(pr)[0] < 1 << 8 * coverage.itemsize
    assert coverage.tolist() == [p] + list(range(1, p))


def test_scan_keeps_no_table_alive(monkeypatch):
    refs = []
    build = represent.build_layer_table

    def tracked(pr):
        table = build(pr)
        refs.append((weakref.ref(pr), weakref.ref(table), weakref.ref(table.coverage)))
        return table

    monkeypatch.setattr(represent, "build_layer_table", tracked)
    rows = scan(primes_up_to(200), 2, Fraction(1, 2))
    gc.collect()
    assert len(refs) == len(rows) == 46
    assert all(ref() is None for row in refs for ref in row)


def test_tables_are_freed_with_their_objects():
    """Discrete-log and BFS tables live on the field and the problem: once
    those are dropped, the traced memory returns to where it started."""
    primes = [q for q in primes_up_to(41_000) if q > 40_000][:5]
    rng = np.random.default_rng(0)

    def work(p):
        field = PrimeField(p)
        a = ResidueSet.from_members(field, rng.choice(p, 300, replace=False))
        assert productset_dlog(a, a) == productset_naive(a, a)
        assert len(build_layer_table(ReprProblem(field, 2, Fraction(1, 3))).coverage) == p

    work(primes.pop())  # first calls may allocate lasting interpreter state
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for p in primes:
            work(p)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held < 64 << 10  # a cached table alone would hold over 320 KiB per prime


@st.composite
def small_problems(draw):
    p = draw(st.sampled_from(primes_up_to(31)))
    k = draw(st.integers(1, 3))
    h = draw(st.integers(1, p))
    return problem(p, k, epsilon_for_height(p, h))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_problems())
def test_bfs_matches_exhaustive_oracle(pr):
    _, hist = n_max(pr)
    assert hist == exhaustive_depth_table(pr)
    for a in range(pr.field.p):
        w = min_terms(a, pr)
        assert (w.n, w.xs) == exhaustive_min_terms(a, pr)


def test_witness_matches_oracle_small_grid():
    for p in [2, 3, 5, 7, 11, 13]:
        for k in [1, 2]:
            for h in range(1, p + 1):
                pr = problem(p, k, epsilon_for_height(p, h))
                assert pr.height == h
                table = exhaustive_depth_table(pr)
                _, hist = n_max(pr)
                assert hist == table, (p, k, h)
                for a in range(p):
                    w = min_terms(a, pr)
                    oracle_n, oracle_xs = exhaustive_min_terms(a, pr)
                    assert w.n == oracle_n
                    assert w.xs == oracle_xs  # lexicographic minimum
                    assert check_representation(w.xs, w.target, pr)


def test_monotone_in_epsilon():
    for p in [7, 31, 101]:
        for k in [1, 2]:
            values = [
                n_max(problem(p, k, eps))[0]
                for eps in [Fraction(1, 3), Fraction(1, 2), Fraction(1, 1)]
            ]
            assert values[0] >= values[1] >= values[2]


def test_zero_entry_at_least_two():
    for p in [2, 5, 31, 101]:
        for eps in [Fraction(1, 2), Fraction(1, 1)]:
            _, hist = n_max(problem(p, 1, eps))
            assert hist[0] >= 2
            assert all(v >= 1 for v in hist)


def test_check_representation_rejects_bad_witnesses():
    pr = problem(7, 1, Fraction(1, 1))
    assert check_representation([1], 1, pr)
    assert check_representation([1, 6], 0, pr)
    assert not check_representation([7], 3, pr)  # p divides 7
    assert not check_representation([8], 3, pr)  # exceeds the height bound
    assert not check_representation([1, 1], 1, pr)  # wrong sum


def test_witness_construction_validates():
    pr = problem(7, 1, Fraction(1, 1))
    from recipsums import Witness

    with pytest.raises(ValueError):
        Witness(problem=pr, target=3, xs=(1, 1))


def test_fields_problems_and_witnesses_are_read_only_values():
    from recipsums import Witness

    field = PrimeField(101)
    pr = ReprProblem(field, 2, Fraction(1, 2))
    same = ReprProblem(field=PrimeField(p=101), k=2, epsilon=Fraction(1, 2))
    assert field == PrimeField(101) != PrimeField(103) and field != 101
    assert pr == same and hash(pr) == hash(same) and len({pr, same, field}) == 2
    assert pr != ReprProblem(field, 1, Fraction(1, 2))
    assert repr(pr) == "ReprProblem(field=PrimeField(p=101), k=2, epsilon=Fraction(1, 2))"
    assert pr.height == 10 and vars(pr)["height"] == 10  # a cached_property still caches
    w = min_terms(5, pr)
    assert w == Witness(problem=same, target=w.target, xs=w.xs) and hash(w) == hash(Witness(pr, w.target, w.xs))
    for obj, name in ((field, "p"), (pr, "k"), (pr, "height"), (w, "xs"), (w, "other")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert (field.p, pr.k, pr.height, w.xs) == (101, 2, 10, min_terms(5, pr).xs)
    for k, epsilon in ((0, Fraction(1, 2)), (1, Fraction(0)), (1, Fraction(3, 2))):
        with pytest.raises(ValueError):
            ReprProblem(field, k, epsilon)


def test_witness_target_is_a_reduced_int():
    from recipsums import Witness

    pr = problem(101, 1, Fraction(1, 2))
    w = min_terms(-5, pr)
    assert type(w.target) is int and w.target == 96
    assert check_representation(w.xs, 96, pr)
    assert min_terms(10**12, pr).target == 10**12 % 101
    for target in (101, -1):
        with pytest.raises(ValueError, match="out of range"):
            Witness(problem=pr, target=target, xs=w.xs)


def test_scan_small_range():
    rows = scan([p for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]], 1, Fraction(1, 1))
    assert len(rows) == 11
    assert [r["p"] for r in rows] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert all(r["n_max"] <= 3 for r in rows)
    assert all(r["error"] is None for r in rows)
    assert all(r["elapsed_ms"] == 0 for r in rows)


def test_scan_empty():
    assert scan([], 1, Fraction(1, 1)) == []


def test_scan_records_row_errors_and_continues():
    rows = scan([7, 9, 11], 1, Fraction(1, 1))
    assert [r["p"] for r in rows] == [7, 9, 11]
    assert rows[0]["error"] is None and rows[2]["error"] is None
    assert rows[1]["error"].startswith("NotPrime")
    assert rows[1]["n_max"] is None


def test_scan_worker_independence(monkeypatch):
    monkeypatch.setattr(represent, "_POOL_NS", 0)  # every pool pays
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    sequential = scan(primes, 2, Fraction(1, 2), workers=1)
    parallel = scan(primes, 2, Fraction(1, 2), workers=4)
    assert sequential == parallel


def test_scan_pool_size_is_clamped(monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, max_workers=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    primes = [2, 3, 5, 7, 11]
    expected = scan(primes, 1, Fraction(1, 1))
    monkeypatch.setattr(represent.os, "cpu_count", lambda: 64)
    assert scan(primes, 1, Fraction(1, 1), workers=100000) == expected
    assert sizes == []  # five tiny rows do not repay a pool's start
    monkeypatch.setattr(represent, "_POOL_NS", 0)  # every pool pays
    # A pool of one process is the serial loop, so none is started.
    for cpus, workers, size in [(64, 100000, 5), (3, 100000, 3), (None, 100000, None), (64, 2, 2), (64, 1, None)]:
        monkeypatch.setattr(represent.os, "cpu_count", lambda: cpus)
        assert scan(primes, 1, Fraction(1, 1), workers=workers) == expected
        assert (sizes.pop() if sizes else None) == size


def test_scan_starts_a_pool_only_where_it_pays(monkeypatch):
    monkeypatch.setattr(represent.os, "cpu_count", lambda: 2)

    def pool_size(lo, hi, k, epsilon, workers=2):
        args = [(p, k, epsilon, False) for p in primes_up_to(hi) if p >= lo]
        return represent._pool_size(args, workers)

    # The benchmark's pooled command: about 50 ms of rows, which a pool slows.
    assert pool_size(199, 4199, 3, Fraction(1, 3)) == 1
    # A full group costs next to nothing per row, at any p.
    assert pool_size(99_000, 101_000, 1, Fraction(1, 1)) == 1
    # Rows of 1-3 ms each, or a deep BFS: the pool repays its start.
    assert pool_size(99_000, 101_000, 2, Fraction(1, 2)) == 2
    assert pool_size(2, 20_000, 3, Fraction(1, 3)) == 2
    assert pool_size(2, 4002, 2, Fraction(1, 8)) == 2
    assert pool_size(2, 20_000, 3, Fraction(1, 3), workers=1) == 1


def test_scan_chunked_pool_matches_serial(monkeypatch):
    monkeypatch.setattr(represent.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(represent, "_POOL_NS", 0)  # every pool pays
    numbers = list(range(2, 152))  # 150 integers, composites inside every chunk
    serial = scan(numbers, 2, Fraction(1, 2))
    assert scan(numbers, 2, Fraction(1, 2), workers=2) == serial
    assert [r["p"] for r in serial] == numbers and len(primes_up_to(151)) == 36
    assert sum(r["error"] is not None and r["error"].startswith("NotPrime") for r in serial) == 150 - 36
