"""The covering minimum from a float ranking plus exact half powers,
against the full J-th power as the oracle."""

import json
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from recipsums import PrimeField, ResidueSet, check_covering_positivity
from recipsums import expsums
from recipsums.basesets import BaseSetSpec, build_prime_reciprocal_set
from recipsums.cli import main
from recipsums.convolve import cyclic_convolve_exact, cyclic_power_exact
from recipsums.expsums import (
    _candidates,
    _fourier_ranking,
    _half_power_minimum,
    pair_product_multiplicity,
)
from recipsums.field import primitive_root
from recipsums.growth import GrowthConfig, grow_until


@lru_cache(maxsize=None)
def grown(p: int) -> ResidueSet:
    spec = BaseSetSpec(PrimeField(p), 1, Fraction(1, 4))
    base, _ = build_prime_reciprocal_set(spec)
    return grow_until(base, GrowthConfig(), spec.tuple_length, spec.beta)[0]


@lru_cache(maxsize=None)
def subgroup(p: int, index: int) -> ResidueSet:
    """The multiplicative subgroup of index `index`: counts are constant on its cosets."""
    g = primitive_root(p)
    return ResidueSet.from_members(PrimeField(p), [pow(g, index * i, p) for i in range((p - 1) // index)])


def full_counts(t: ResidueSet, j: int) -> list[int]:
    return cyclic_power_exact(pair_product_multiplicity(t), j, t.field.p).tolist()


def oracle(t: ResidueSet, j: int) -> tuple[int, int]:
    counts = full_counts(t, j)
    least = min(counts)
    return least, counts.index(least)


def grid():
    rng = random.Random(7919)
    cases = [(grown(1009), j) for j in range(1, 14)]
    cases += [(grown(10007), j) for j in (4, 5, 12, 13)]
    for p in (101, 1009):
        field = PrimeField(p)
        for j in range(1, 14):
            cases.append((ResidueSet.from_members(field, rng.sample(range(p), rng.randint(1, p))), j))
        cases += [(ResidueSet.from_members(field, [0]), j) for j in (1, 2, 3, 8, 13)]
        cases += [(ResidueSet.full(field), j) for j in (1, 2, 3, 8, 13)]
    for index in (2, 3, 4, 6, 7, 8, 9, 12, 14, 16):
        cases += [(subgroup(1009, index), j) for j in (2, 3, 4, 5, 9, 13)]
    return cases


GRID = grid()


def test_minimum_matches_full_power_on_grid():
    evaluated = 0
    for t, j in GRID:
        expected = oracle(t, j)
        report = check_covering_positivity(t, j)
        assert (report.min_count, report.min_residue) == expected, (t, j)
        assert report.all_covered == (expected[0] > 0)
        found = _half_power_minimum(t, j)
        if found is not None:
            assert found == expected, (t, j)
            evaluated += 1
    assert evaluated > len(GRID) // 2


def test_bound_dominates_observed_error_on_grid():
    for t, j in GRID:
        p, n2 = t.field.p, t.card * t.card
        e, eps, k = _fourier_ranking(t, j)
        scale = Fraction(2) ** -k
        exact = (Fraction(p * c - n2**j) * scale for c in full_counts(t, j))
        observed = max(abs(Fraction(float(x)) - y) for x, y in zip(e, exact))
        assert 10 * observed <= eps, (t, j, float(observed), eps)


def test_coset_ties_below_the_cap_report_the_smallest_residue():
    # Index 16 mod 1009: cosets of 63 residues, below the cap of 64.
    t = subgroup(1009, 16)
    counts = full_counts(t, 13)
    least = min(counts)
    assert counts.count(least) == 63
    e, eps, _ = _fourier_ranking(t, 13)
    tied = [r for r, c in enumerate(counts) if c == least]
    assert int(np.argmin(e)) != tied[0]  # float rounding alone would not pick it
    assert _half_power_minimum(t, 13) == (least, tied[0])


def test_coset_ties_above_the_cap_fall_back_to_the_full_power():
    above = 0
    for index in (2, 3, 4, 6, 7, 8, 9, 12, 14):
        t = subgroup(1009, index)
        for j in (2, 3, 4, 5, 9, 13):
            counts = full_counts(t, j)
            if counts.count(min(counts)) > expsums._CANDIDATE_CAP:
                assert _half_power_minimum(t, j) is None
                above += 1
    assert above >= 20


def test_cap_is_enforced(monkeypatch):
    t = grown(1009)
    assert _half_power_minimum(t, 12) is not None
    monkeypatch.setattr(expsums, "_CANDIDATE_CAP", 0)
    assert _half_power_minimum(t, 12) is None
    report = check_covering_positivity(t, 12)
    assert (report.min_count, report.min_residue) == oracle(t, 12)


def test_candidate_rule_keeps_the_boundary():
    e = np.array([3.0, 1.0, 2.0, 1.0, 2.5])
    assert _candidates(e, 0.5).tolist() == [1, 2, 3]
    assert _candidates(e, 0.0).tolist() == [1, 3]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unusable_bound_falls_back(monkeypatch):
    t = grown(1009)
    monkeypatch.setattr(expsums, "_dft_error", lambda n: float("inf"))
    assert _fourier_ranking(t, 12) is None
    assert _half_power_minimum(t, 12) is None
    report = check_covering_positivity(t, 12)
    assert (report.min_count, report.min_residue) == oracle(t, 12)


def test_positivity_does_not_build_the_full_table(monkeypatch):
    t = grown(1009)
    expected = oracle(t, 13)

    def refuse(*args):
        raise AssertionError("full covering table built")

    monkeypatch.setattr(expsums, "covering_counts", refuse)
    report = check_covering_positivity(t, 13)
    assert (report.min_count, report.min_residue) == expected


def test_positivity_takes_the_half_powers_where_the_fourier_check_applies(monkeypatch):
    # Small enough that covering_counts would cross-check by Fourier inversion.
    t = ResidueSet.from_members(PrimeField(101), [1, 2, 3, 5, 8, 13])
    assert expsums._fourier_check_applicable(t.card, 3, 101)

    def refuse(*args):
        raise AssertionError("full covering table built")

    monkeypatch.setattr(expsums, "covering_counts", refuse)
    report = check_covering_positivity(t, 3)
    assert (report.min_count, report.min_residue) == (96, 0) == oracle(t, 3)


def _corrupted(kernel):
    def wrapped(*args):
        out = kernel(*args).copy()
        out[1] += 1
        return out

    return wrapped


def test_half_power_mass_is_checked(monkeypatch):
    t = grown(1009)
    with monkeypatch.context() as m:
        m.setattr(expsums, "cyclic_power_exact", _corrupted(cyclic_power_exact))
        with pytest.raises(RuntimeError, match="mass"):
            _half_power_minimum(t, 12)
    # Odd J: the upper half is the lower one times w, checked on its own.
    monkeypatch.setattr(expsums, "cyclic_convolve_exact", _corrupted(cyclic_convolve_exact))
    with pytest.raises(RuntimeError, match="mass"):
        _half_power_minimum(t, 13)


def _swapped(kernel):
    """Swaps two entries of a half power, so every mass still checks out."""

    def wrapped(*args):
        out = kernel(*args).copy()
        out[[1, 2]] = out[[2, 1]]
        return out

    return wrapped


def test_each_exact_count_is_checked_against_the_ranking(monkeypatch, capsys):
    t = grown(1009)
    assert _half_power_minimum(t, 12) == oracle(t, 12)
    monkeypatch.setattr(expsums, "cyclic_power_exact", _swapped(cyclic_power_exact))
    with pytest.raises(RuntimeError, match="off the Fourier ranking"):
        _half_power_minimum(t, 12)
    code = main(["expsum", "--p", "1009", "--grow", "--k", "1", "--beta", "1/4", "--J", "12"])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 1
    assert error["type"] == "RuntimeError"
    assert "off the Fourier ranking" in error["message"]
