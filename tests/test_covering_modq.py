"""The covering minimum of grown sets past p = 10007, against covering counts
taken mod a small prime q by float FFT convolution.

The half-power route (check_covering_positivity) counts c_J at its minimum
residue exactly, from big-integer half powers. The oracle here shares none
of that: it reduces the pair-product counts w mod q to balanced residues,
so every linear convolution entry stays below p * (q/2)^2 < 2^41 and a
float64 FFT gets it to well within 1/2 of an integer.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from recipsums import PrimeField, check_covering_positivity, compute_J
from recipsums import expsums
from recipsums.basesets import BaseSetSpec, build_prime_reciprocal_set
from recipsums.expsums import pair_product_multiplicity
from recipsums.growth import GrowthConfig, grow_until

Q = 8191  # 2^13 - 1


@lru_cache(maxsize=None)
def grown(p: int):
    spec = BaseSetSpec(PrimeField(p), 1, Fraction(1, 4))
    base, _ = build_prime_reciprocal_set(spec)
    return grow_until(base, GrowthConfig(), spec.tuple_length, spec.beta)[0]


def balanced(c: np.ndarray) -> np.ndarray:
    """c mod Q as int64 in [-(Q - 1)/2, (Q - 1)/2]."""
    c = np.remainder(c, Q)
    c[c > Q // 2] -= Q
    return c


def cyclic_product_mod_q(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """(a * b mod Q, largest distance of a float entry to its integer) for
    balanced a and b of length p: a zero-padded linear convolution, folded."""
    p = a.size
    n = 1 << (2 * p - 2).bit_length()  # at least 2p - 1
    linear = np.fft.irfft(np.fft.rfft(a, n) * np.fft.rfft(b, n), n)[: 2 * p - 1]
    folded = linear[:p].copy()
    folded[: p - 1] += linear[p:]
    rounded = np.rint(folded)
    return balanced(rounded.astype(np.int64)), float(np.abs(folded - rounded).max())


def covering_counts_mod_q(w: np.ndarray, j: int) -> tuple[np.ndarray, float]:
    """(c_J mod Q in [0, Q), the largest rounding distance) by square-and-multiply."""
    result, base, worst = None, balanced(w.astype(np.int64)), 0.0
    while j:
        if j & 1:
            if result is None:
                result = base
            else:
                result, err = cyclic_product_mod_q(result, base)
                worst = max(worst, err)
        j >>= 1
        if j:
            base, err = cyclic_product_mod_q(base, base)
            worst = max(worst, err)
    return np.remainder(result, Q), worst


@pytest.mark.parametrize("p", [30011, 100003])
def test_covering_minimum_matches_counts_mod_q(p):
    t = grown(p)
    j = compute_J(math.log(t.card) / math.log(p) - 0.5)
    assert j == 9
    positivity = check_covering_positivity(t, j)
    counts, worst = covering_counts_mod_q(pair_product_multiplicity(t), j)
    assert worst < 0.1
    assert int(counts.sum()) % Q == pow(t.card * t.card, j, Q)
    assert positivity.min_count % Q == counts[positivity.min_residue]
    # The half-power route is the one under test: the full table's Fourier
    # cross-check does not apply at these sizes.
    assert not expsums._fourier_check_applicable(t.card, j, p)
