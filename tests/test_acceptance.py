"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from recipsums import (
    BaseSetSpec,
    GrowthConfig,
    PrimeField,
    ReprProblem,
    ResidueSet,
    build_layer_table,
    build_prime_reciprocal_set,
    check_covering_positivity,
    compute_J,
    covering_counts,
    covering_counts_fourier,
    exp_sum_profile,
    grow_until,
    min_terms,
    n_max,
    primes_up_to,
)
from recipsums.bruteforce import exhaustive_depth_table
from recipsums.cli import main as cli_main
from recipsums.growth import productset_dlog, productset_naive, sumset_conv, sumset_naive
from recipsums.represent import check_representation

from conftest import epsilon_for_height

PRIMES_TO_31 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
EPS_GRID = [Fraction(1, 3), Fraction(1, 2), Fraction(1, 1)]
K_GRID = [1, 2, 3]


def _report(num: int, name: str, detail: str = "") -> None:
    print(f"\ncriterion {num:2d} [{name}]: PASS {detail}".rstrip())


@pytest.fixture(scope="module")
def witness_grid():
    """Witnesses and n_max for every prime <= 499, k in {1,2,3}, eps in the grid."""
    start = time.monotonic()
    nmax_map: dict[tuple[int, int, Fraction], int] = {}
    failures: list[tuple] = []
    witnesses = 0
    for p in primes_up_to(499):
        field = PrimeField(p)
        for k in K_GRID:
            for eps in EPS_GRID:
                problem = ReprProblem(field, k, eps)
                table = build_layer_table(problem)
                nmax_map[(p, k, eps)] = max(table.coverage)
                for a in range(p):
                    w = min_terms(a, problem)
                    witnesses += 1
                    if not check_representation(w.xs, w.target, problem):
                        failures.append((p, k, eps, a))
    elapsed = time.monotonic() - start
    return nmax_map, failures, witnesses, elapsed


def test_criterion_01_oracle_equivalence():
    start = time.monotonic()
    cases = 0
    for p in PRIMES_TO_31:
        field = PrimeField(p)
        for k in (1, 2):
            for h in range(1, p + 1):
                problem = ReprProblem(field, k, epsilon_for_height(p, h))
                assert problem.height == h
                _, hist = n_max(problem)
                oracle = exhaustive_depth_table(problem)
                assert hist == oracle, (p, k, h)
                cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(1, "oracle equivalence", f"{cases} (p,k,H) cases, {elapsed:.1f}s")


def test_criterion_02_witness_soundness(witness_grid):
    nmax_map, failures, witnesses, elapsed = witness_grid
    assert failures == []
    assert elapsed < 600.0
    assert witnesses == sum(p * len(K_GRID) * len(EPS_GRID) for p in primes_up_to(499))
    _report(2, "witness soundness", f"{witnesses} witnesses verified, {elapsed:.1f}s")


def test_criterion_03_epsilon_monotonicity(witness_grid):
    nmax_map, _, _, _ = witness_grid
    for p in primes_up_to(499):
        for k in K_GRID:
            third, half, one = (nmax_map[(p, k, eps)] for eps in EPS_GRID)
            assert third >= half >= one, (p, k, third, half, one)
    _report(3, "epsilon monotonicity", f"{len(nmax_map)} grid points")


def test_criterion_04_distinctness_regime():
    targets = [1000, 2000, 3000, 5000, 10000, 20000, 30000, 50000, 75000, 100000]
    pool = primes_up_to(100100)
    chosen = [next(q for q in pool if q >= t) for t in targets]
    instances = 0
    for p in chosen:
        field = PrimeField(p)
        for beta, u in [(Fraction(1, 3), 1), (Fraction(1, 5), 2)]:
            spec = BaseSetSpec(field, 1, beta, u=u)
            members, report = build_prime_reciprocal_set(spec)
            assert report.regime_holds, (p, beta, u)
            assert report.set_size == report.tuple_count == math.comb(report.prime_count, u)
            assert members.card == report.set_size
            instances += 1
    assert instances >= 20
    _report(4, "distinctness in regime", f"{instances} instances, p up to {chosen[-1]}")


def test_criterion_05_growth_termination():
    start = time.monotonic()
    primes = [q for q in primes_up_to(997) if q >= 101]
    beta = Fraction(1, 4)
    for p in primes:
        field = PrimeField(p)
        base, _ = build_prime_reciprocal_set(BaseSetSpec(field, 1, beta, u=1))
        final, trace = grow_until(base, GrowthConfig(), 1, beta)
        assert trace.n <= 10, (p, trace.n)
        assert final.card**3 > p**2
        sizes = [trace.steps[0].size_before] + [s.size_after for s in trace.steps]
        assert sizes == sorted(sizes)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(5, "growth termination", f"{len(primes)} primes in [101,997], {elapsed:.1f}s")


def test_criterion_06_parseval_and_bilinear():
    checked = 0
    for p in (11, 101, 499):
        field = PrimeField(p)
        rng = random.Random(600 + p)
        for _ in range(100):
            size = rng.randint(1, p - 1)
            t = ResidueSet.from_members(field, rng.sample(range(p), size))
            profile = exp_sum_profile(t)
            assert profile.parseval_relative_error < 1e-6
            scale = math.sqrt(p) * t.card
            assert (profile.f_abs[1:] <= scale * (1 + 1e-9)).all()
            checked += 1
    _report(6, "Parseval and bilinear bound", f"{checked} random sets")


def test_criterion_07_covering_dual_computation():
    rng = random.Random(700)
    for case in range(20):
        p = rng.choice([7, 11, 17, 31, 53, 101])
        field = PrimeField(p)
        size = rng.randint(1, min(12, p - 1))
        t = ResidueSet.from_members(field, rng.sample(range(p), size))
        j = rng.randint(1, 5)
        exact = covering_counts(t, j)
        fourier = covering_counts_fourier(t, j)
        assert list(exact) == fourier, (p, size, j)
        assert sum(exact) == (t.card**2) ** j
    _report(7, "covering-count dual computation", "20 seeded sets, J <= 5, p <= 101")


def test_criterion_08_lemma_end_to_end():
    field = PrimeField(101)
    beta = Fraction(1, 4)
    base, _ = build_prime_reciprocal_set(BaseSetSpec(field, 1, beta, u=1))
    t, _ = grow_until(base, GrowthConfig(), 1, beta)
    assert t.card**3 > 101**2  # past the 101^(2/3) ~ 21.54 threshold
    beta_excess = math.log(t.card) / math.log(101) - 0.5
    assert beta_excess > 1 / 6
    j = compute_J(beta_excess)
    report = check_covering_positivity(t, j)
    assert report.min_count > 0
    assert report.all_covered
    assert report.j_sufficient
    # once positive, covering stays positive for any larger J
    assert check_covering_positivity(t, 17).all_covered
    _report(8, "covering positivity end-to-end", f"|T|={t.card}, J={j}, min count={report.min_count}")


def test_criterion_09_kernel_equivalence():
    rng = random.Random(900)
    primes = primes_up_to(499)
    for _ in range(1000):
        p = rng.choice(primes)
        field = PrimeField(p)
        a = ResidueSet.from_members(field, rng.sample(range(p), rng.randint(1, p - 1)))
        b = ResidueSet.from_members(field, rng.sample(range(p), rng.randint(1, p - 1)))
        assert sumset_naive(a, b) == sumset_conv(a, b)
        assert productset_naive(a, b) == productset_dlog(a, b)
    _report(9, "kernel equivalence", "1000 seeded pairs, p <= 499")


def test_criterion_10_scan_determinism(tmp_path):
    outputs = []
    for i, workers in enumerate(["1", "8", "1"]):
        path = tmp_path / f"scan_{i}.csv"
        code = cli_main(
            [
                "scan",
                "--primes",
                "2..499",
                "--k",
                "2",
                "--epsilon",
                "1/2",
                "--workers",
                workers,
                "--format",
                "csv",
                "--output",
                str(path),
            ]
        )
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    _report(10, "scan determinism", f"{len(outputs[0])} identical bytes, workers 1 vs 8")
