"""Exponential sums over a set T and exact covering counts of products.

For T a subset of Z/pZ, h(a) = sum_{t in T} e(at/p) and
f(a) = sum_{t1,t2 in T} e(a*t1*t2/p), with e(x) = exp(2*pi*i*x). The
nontrivial bound |f(a)| <= sqrt(p)*|T| for a != 0 (Cauchy-Schwarz plus
Parseval) makes J-fold sums of pair products t1*t2 cover every residue
class once J is large enough; covering counts are computed exactly by
big-integer cyclic convolution, with the floating-point Fourier inversion
used only as a cross-check where its rounding error is provably < 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .convolve import cyclic_convolve_exact, cyclic_power_exact
from .errors import BoundViolated, NonPositiveBeta
from .growth import product_counts
from .sets import ResidueSet


def h_profile(t: ResidueSet) -> np.ndarray:
    """h(a) = sum_{t in T} e(at/p) for all a, via a length-p DFT."""
    if t.card == 0:
        raise ValueError("profile requires a nonempty set")
    chi = t.bits.astype(np.float64)
    # numpy's forward FFT uses e(-at/p); conjugate to match e(+at/p).
    return np.conj(np.fft.fft(chi))


def h_profile_direct(t: ResidueSet) -> np.ndarray:
    """Literal double-sum evaluation of h, for cross-checking the DFT."""
    p = t.field.p
    a = np.arange(p)[:, None]
    tm = t.members()[None, :]
    return np.exp(2j * np.pi * (a * tm) / p).sum(axis=1)


def f_profile(t: ResidueSet) -> np.ndarray:
    """f(a) = sum_m w[m] e(am/p): the DFT of the pair-product counts w, which
    are exact integers <= 2|T| <= 2p, so the float input carries no error."""
    return np.conj(np.fft.fft(pair_product_multiplicity(t)))


def f_profile_direct(t: ResidueSet) -> np.ndarray:
    """Literal double sum over T x T, for cross-checking f_profile."""
    p = t.field.p
    tm = t.members()
    prods = ((tm[:, None] * tm[None, :]) % p).ravel()
    f = np.zeros(p, dtype=np.complex128)
    for a in range(p):
        f[a] = np.exp(2j * np.pi * a * prods / p).sum()
    return f


@dataclass(frozen=True)
class ExpSumProfile:
    """|h(a)| and |f(a)| for one set, plus the exact mass f(0) = |T|^2."""

    p: int
    set_size: int
    h_abs: np.ndarray
    f_abs: np.ndarray
    f0: int

    @property
    def parseval_relative_error(self) -> float:
        """Relative deviation of sum |h(a)|^2 from p*|T|."""
        total = float(np.sum(self.h_abs**2))
        expected = self.p * self.set_size
        return abs(total - expected) / expected


def exp_sum_profile(t: ResidueSet) -> ExpSumProfile:
    h = h_profile(t)
    f = f_profile(t)
    return ExpSumProfile(
        p=t.field.p,
        set_size=t.card,
        h_abs=np.abs(h),
        f_abs=np.abs(f),
        f0=t.card * t.card,
    )


@dataclass(frozen=True)
class BilinearReport:
    max_ratio: float  # max over a != 0 of |f(a)| / (sqrt(p) * |T|)
    worst_a: int
    holds: bool
    tolerance: float


def verify_bilinear_bound(profile: ExpSumProfile, tolerance: float = 1e-9) -> BilinearReport:
    """Check |f(a)| <= sqrt(p)*|T| for all a != 0.

    The bound always holds mathematically, so a violation beyond the
    tolerance is raised as BoundViolated: it detects implementation bugs.
    |f(a)| = |f(p - a)| as w is real, so worst_a is the smaller mirror of the argmax.
    """
    scale = math.sqrt(profile.p) * profile.set_size
    ratios = profile.f_abs[1:] / scale
    worst = int(np.argmax(ratios)) + 1
    max_ratio = float(ratios[worst - 1]) if ratios.size else 0.0
    holds = max_ratio <= 1.0 + tolerance
    if not holds:
        raise BoundViolated(
            f"|f({worst})| = {profile.f_abs[worst]:.6g} exceeds sqrt(p)*|T| = {scale:.6g}"
        )
    worst_a = min(worst, profile.p - worst)
    return BilinearReport(max_ratio=max_ratio, worst_a=worst_a, holds=holds, tolerance=tolerance)


def compute_J(beta: Fraction | float) -> int:
    """floor(2*(1+2*beta)/beta) + 1, evaluated in exact rational arithmetic.

    Float inputs (e.g. an empirical exponent excess) are converted to the
    exact rational they denote before the floor.
    """
    b = Fraction(beta)
    if b <= 0:
        raise NonPositiveBeta("beta must be > 0")
    return math.floor(2 * (1 + 2 * b) / b) + 1


@lru_cache(maxsize=1)
def pair_product_multiplicity(t: ResidueSet) -> np.ndarray:
    """w[m] = number of ordered pairs (t1, t2) in T x T with t1*t2 = m mod p.

    The profile, the covering counts and the minimal-J search all start from
    this vector, so the last one is kept; it is returned write-locked.
    """
    w = product_counts(t, t)
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class CoveringTable:
    """Exact counts of ordered J-tuples of pair products summing to each r."""

    p: int
    set_size: int
    j: int
    counts: tuple[int, ...]

    @property
    def min_count(self) -> int:
        return min(self.counts)

    @property
    def min_residue(self) -> int:
        return self.counts.index(self.min_count)

    @property
    def all_covered(self) -> bool:
        return self.min_count > 0


def _fourier_check_applicable(set_size: int, j: int, p: int) -> bool:
    # f = conj(fft(w)) is one DFT of the exact integer vector w; after the
    # J-th power and the inverse DFT each count is off by about
    # J * log2(p) * |T|^(2J) * 2^-53, and four times that must stay below 1/8.
    return 4 * j * p.bit_length() * (set_size * set_size) ** j < 2**50


def covering_counts(t: ResidueSet, j: int) -> CoveringTable:
    """Exact covering counts by J-fold cyclic self-convolution of w.

    Where floating point provably cannot misround, the Fourier inversion
    (1/p) * sum_a f(a)^J * e(-ar/p) is evaluated as well and must agree
    entrywise after rounding.
    """
    if j < 1:
        raise ValueError("J must be >= 1")
    p = t.field.p
    counts = cyclic_power_exact(pair_product_multiplicity(t), j, p).tolist()
    mass = sum(counts)
    expected = (t.card * t.card) ** j
    if mass != expected:
        raise RuntimeError(f"covering mass {mass} != (|T|^2)^J = {expected}; kernel bug")
    if _fourier_check_applicable(t.card, j, p):
        rounded = covering_counts_fourier(t, j)
        if rounded != list(counts):
            raise RuntimeError("Fourier covering counts disagree with exact convolution")
    return CoveringTable(p=p, set_size=t.card, j=j, counts=tuple(counts))


def covering_counts_fourier(t: ResidueSet, j: int) -> list[int]:
    """Floating-point Fourier evaluation of the covering counts, rounded."""
    counts = np.fft.fft(f_profile(t) ** j).real / t.field.p
    return [int(round(c)) for c in counts]


@dataclass(frozen=True)
class CoveringPositivity:
    j: int
    min_count: int
    min_residue: int
    all_covered: bool
    # Set when |T| > sqrt(p): the exponent excess log_p|T| - 1/2 and
    # whether J meets the sufficient value computed from it.
    beta_excess: float | None
    j_required: int | None
    j_sufficient: bool | None


def check_covering_positivity(t: ResidueSet, j: int) -> CoveringPositivity:
    """Exact positivity check: is every residue a sum of J pair products?"""
    table = covering_counts(t, j)
    beta_excess = None
    j_required = None
    j_sufficient = None
    if t.card * t.card > t.field.p:
        beta_excess = math.log(t.card) / math.log(t.field.p) - 0.5
        j_required = compute_J(beta_excess)
        j_sufficient = j >= j_required
    return CoveringPositivity(
        j=j,
        min_count=table.min_count,
        min_residue=table.min_residue,
        all_covered=table.all_covered,
        beta_excess=beta_excess,
        j_required=j_required,
        j_sufficient=j_sufficient,
    )


def minimal_covering_J(t: ResidueSet, j_cap: int = 64) -> int | None:
    """Smallest J whose covering counts are all positive, or None below j_cap."""
    # Counts are nonnegative, so the support of c * w is supp(c) + supp(w):
    # iterating on 0/1 supports finds the same J with bucket bound <= p.
    p = t.field.p
    covered = support = pair_product_multiplicity(t) > 0
    for j in range(1, j_cap + 1):
        if covered.all():
            return j
        covered = cyclic_convolve_exact(covered, support, p) > 0
    return None
