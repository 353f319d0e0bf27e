"""Exponential sums over a set T and exact covering counts of products.

For T a subset of Z/pZ, f(a) = sum_{t1,t2 in T} e(a*t1*t2/p), with
e(x) = exp(2*pi*i*x), is the DFT of the pair-product counts w; T keeps one
real-input transform of w for the profile, the bound and the ranking. The
nontrivial bound |f(a)| <= sqrt(p)*|T| for a != 0 (Cauchy-Schwarz plus
Parseval) makes J-fold sums of pair products t1*t2 cover every residue
class once J is large enough. Covering counts are computed exactly by
big-integer cyclic convolution. The covering minimum needs no full J-th
power: a float Fourier ranking under a proven error bound names the few
candidate residues, and each is counted exactly from the two half powers
c_floor(J/2) and c_ceil(J/2), then checked against the ranking. The full
table is the fallback, and where an error estimate says its Fourier
inversion rounds to the exact counts, the two are compared entrywise.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .convolve import cyclic_convolve_exact, cyclic_power_exact
from .errors import BoundViolated, NonPositiveBeta
from .growth import product_counts, sumset
from .sets import ResidueSet


def f_profile(t: ResidueSet) -> np.ndarray:
    """f(a) = sum_m w[m] e(am/p) for a = 0..p//2 (f(p - a) is its conjugate,
    as w is real), with f(0) = |T|^2 exact. T keeps it beside w, write-locked:
    the profile, the bound and the covering ranking all read this one
    transform, taken of w - |T|^2/p so the ranking can bound its error (below)."""
    f = t._f_profile
    if f is None:
        f = np.conj(np.fft.rfft(pair_product_multiplicity(t) - t.card * t.card / t.field.p))
        f[0] = t.card * t.card
        f.setflags(write=False)
        object.__setattr__(t, "_f_profile", f)
    return f


def _hermitian_weights(p: int) -> np.ndarray:
    """How many of a and p - a each entry a = 0..p//2 of a half spectrum stands for."""
    weights = np.full(p // 2 + 1, 2.0)
    weights[0] = 1.0
    if p % 2 == 0:
        weights[-1] = 1.0
    return weights


@dataclass(frozen=True)
class ExpSumProfile:
    """|f(a)| for a = 0..p//2, f(0) = |T|^2, and the relative deviation of
    sum_a |f(a)|^2 from Parseval's p * sum_m w[m]^2."""

    p: int
    set_size: int
    f_abs: np.ndarray
    f0: int
    parseval_relative_error: float


def exp_sum_profile(t: ResidueSet) -> ExpSumProfile:
    if t.card == 0:
        raise ValueError("profile requires a nonempty set")
    p, f_abs = t.field.p, np.abs(f_profile(t))
    total = float(np.sum(_hermitian_weights(p) * f_abs**2))
    # p * sum_m w[m]^2 exactly, from how many m share each value of w.
    expected = p * sum(v * v * n for v, n in enumerate(np.bincount(pair_product_multiplicity(t)).tolist()))
    return ExpSumProfile(
        p=p,
        set_size=t.card,
        f_abs=f_abs,
        f0=t.card * t.card,
        parseval_relative_error=abs(total - expected) / expected,
    )


# Slack on the bilinear bound for the rounding of |f(a)| / (sqrt(p) * |T|).
_BILINEAR_TOLERANCE = 1e-9


@dataclass(frozen=True)
class BilinearReport:
    max_ratio: float  # max over a != 0 of |f(a)| / (sqrt(p) * |T|)
    worst_a: int
    holds: bool


def verify_bilinear_bound(profile: ExpSumProfile) -> BilinearReport:
    """Check |f(a)| <= sqrt(p)*|T| for all a != 0.

    The bound always holds mathematically, so a violation beyond
    _BILINEAR_TOLERANCE is raised as BoundViolated: it detects implementation bugs.
    a = 1..p//2 cover p - a too, as |f(p - a)| = |f(a)|. worst_a is the least a
    whose ratio is within _BILINEAR_TOLERANCE of the maximum: where T*lambda = T,
    |f| is constant on the cosets a*<lambda>, and rounding must not pick.
    """
    scale = math.sqrt(profile.p) * profile.set_size
    ratios = profile.f_abs[1:] / scale
    max_ratio = float(ratios.max())
    worst_a = int(np.argmax(ratios >= max_ratio - _BILINEAR_TOLERANCE)) + 1
    holds = max_ratio <= 1.0 + _BILINEAR_TOLERANCE
    if not holds:
        raise BoundViolated(
            f"|f({worst_a})| = {profile.f_abs[worst_a]:.6g} exceeds sqrt(p)*|T| = {scale:.6g}"
        )
    return BilinearReport(max_ratio=max_ratio, worst_a=worst_a, holds=holds)


def compute_J(beta: Fraction | float) -> int:
    """floor(2*(1+2*beta)/beta) + 1, evaluated in exact rational arithmetic.

    Float inputs (e.g. an empirical exponent excess) are converted to the
    exact rational they denote before the floor.
    """
    b = Fraction(beta)
    if b <= 0:
        raise NonPositiveBeta("beta must be > 0")
    return math.floor(2 * (1 + 2 * b) / b) + 1


def exponent_excess(t: ResidueSet) -> float | None:
    """The exponent excess log_p|T| - 1/2 once |T| > sqrt(p), which is tested
    exactly as |T|^2 > p; None for smaller T."""
    if t.card * t.card <= t.field.p:
        return None
    return math.log(t.card) / math.log(t.field.p) - 0.5


def pair_product_multiplicity(t: ResidueSet) -> np.ndarray:
    """w[m] = number of ordered pairs (t1, t2) in T x T with t1*t2 = m mod p.

    The profile, the covering counts and the minimal-J search all start from
    this vector, so T keeps it, write-locked, and frees it with itself.
    """
    w = t._pair_products
    if w is None:
        w = product_counts(t, t)
        w.setflags(write=False)
        object.__setattr__(t, "_pair_products", w)
    return w


def _fourier_check_applicable(set_size: int, j: int, p: int) -> bool:
    # An estimate, not a bound: after the J-th power and the inverse real DFT
    # of w's half spectrum a count is off by about J * log2(p) * |T|^(2J) * 2^-53,
    # and 4x that must stay below 1/8. It gates a cross-check, never a count.
    return 4 * j * p.bit_length() * (set_size * set_size) ** j < 2**50


# The covering minimum from a float ranking (_fourier_ranking) plus exact
# candidates (_half_power_minimum). With F the DFT of w and n2 = |T|^2,
#     p * c_J(r) = n2^J + E(r),   E(r) = sum_{a != 0} F(a)^J e(ar/p),
# so the minimisers of c_J are those of E. If every computed value obeys
# |E~(r) - E(r)| <= eps, each exact minimiser r* satisfies
# E~(r*) <= E(r*) + eps <= min E + eps <= min E~ + 2 eps, and evaluating
# every r with E~(r) <= min E~ + 2 eps exactly finds the least count and
# the smallest residue that attains it. Each evaluated count must then
# itself lie within eps of E~(r), a cross-check at no extra transform.
#
# The bound eps, with u = 2^-53:
# 0. Error model. Every output of an unnormalised length-n DFT computed by
#    numpy (pocketfft: a direct radix-q pass for small prime factors,
#    Bluestein's algorithm through a smooth length m < 4n for large prime
#    n, and the real-input variants of both) is within
#    4 n log2(2n) u sum|x| of the exact value. Direct summation of n
#    terms with rounded twiddles is within about (n + 3) u sum|x|.
#    Bluestein's chirp convolution is two length-m Cooley-Tukey transforms,
#    normwise within c log2(m) u of exact (Higham, Accuracy and Stability
#    of Numerical Algorithms, 2nd ed., section 24.1, c about 5), amplified
#    at most by the chirp spectrum, |DFT(chirp)| <= 2n; so each output is
#    within about 2 c n log2(4n) u ||x||_2 <= 4 c n log2(2n) u sum|x|.
#    The code takes tau_n = 16 times the model (the safety factor, which
#    covers that worst case up to c = 16); it also absorbs the relative
#    rounding of order n u in evaluating eps itself and in forming
#    min E~ + 2 eps.
# 1. Input. F(a) for a != 0 does not change when a constant is subtracted
#    from w, so f_profile transforms v = fl(w - n2/p): |v_m - (w_m - mu)|
#    <= u |v_m| for the float mu used, and the error is measured against
#    sum|v| <= sqrt(sum_{a != 0} |F(a)|^2) rather than n2 = F(0), which
#    exceeds every other |F(a)| <= sqrt(p) |T| by |T| / sqrt(p) or more.
#    So |F~(a) - F(a)| <= delta = (tau_p + u) sum|v| for every a != 0.
# 2. Scaling. F~ is multiplied by s = 2^-k, the power of two with
#    s max_{a != 0} |F~(a)| in [1/2, 1): exact, and no power overflows.
#    Below, x_a = s F~(a) and delta_s = s delta.
# 3. Power. x_a^J is taken by squaring and multiplying; each complex
#    product has relative error at most sqrt(5) u (Brent, Percival and
#    Zimmermann, Math. Comp. 76 (2007); 2u with a fused multiply-add),
#    and the J - 1 factors compound to at most 3 (J - 1) u |x_a|^J.
#    Against the exact (s F(a))^J the mean value theorem adds
#    J delta_s (|x_a| + delta_s)^(J - 1). Products that fall below
#    2^-1022 lose relative accuracy; their absolute error, under
#    2^-1070 per operation, is covered by a term 2^-1000 p J.
# 4. Inverse. irfft(G) * p is the unnormalised inverse DFT over the
#    Hermitian extension of G, so its error is tau_p sum_{a != 0} |G(a)|
#    plus 3u sum|G| for the normalisation and the product with p, plus
#    the step-3 errors summed over a != 0 (|e(ar/p)| = 1).
# eps is the sum of these terms, in the units of s^J E. The transforms
# cost O(p log p); the exact work is two half powers and |C| dot products.

# More candidates than this are not evaluated one by one: the full power
# is cheaper by then, and the bound is too weak to rank (ties on whole
# cosets of a multiplicative subgroup land here).
_CANDIDATE_CAP = 64
_U = 2.0**-53


def _dft_error(n: int) -> float:
    """tau_n: the error model of step 0, safety factor 16 included."""
    return 16 * 4 * n * math.log2(2 * n) * _U


def _fourier_ranking(t: ResidueSet, j: int) -> tuple[np.ndarray, float, int] | None:
    """(E~, eps, k): E~(r) approximates 2^-k E(r) for every r to within
    eps, with s^J = 2^-k (see above); None when a value is not finite."""
    p = t.field.p
    f = f_profile(t)
    # F(0) is set to 0 below, so it carries no weight.
    weights = _hermitian_weights(p)
    weights[0] = 0.0
    top = float(np.abs(f[1:]).max())
    if not (math.isfinite(top) and top > 0):
        return None
    shift = math.frexp(top)[1]
    x = np.conj(f) * 2.0**-shift  # 2^-shift F, with F the DFT of w
    x[0] = 0
    v_sum = float(np.abs(pair_product_multiplicity(t) - t.card * t.card / p).sum())
    delta = (_dft_error(p) + _U) * v_sum * 2.0**-shift
    g, base, k = None, x, j
    while k:
        if k & 1:
            g = base if g is None else g * base
        k >>= 1
        if k:
            base = base * base
    x_abs = np.abs(x)
    power_err = j * delta * (x_abs + delta) ** (j - 1) + 3 * (j - 1) * _U * x_abs**j
    eps = (
        (_dft_error(p) + 3 * _U) * float(np.sum(weights * np.abs(g)))
        + float(np.sum(weights * power_err))
        + 2.0**-1000 * p * j
    )
    e = np.fft.irfft(g, n=p) * p
    if not (math.isfinite(eps) and np.isfinite(e).all()):
        return None
    return e, eps, shift * j


def _candidates(e: np.ndarray, eps: float) -> np.ndarray:
    """Every r with E~(r) <= min E~ + 2 eps, ascending: it holds each exact minimiser."""
    return np.flatnonzero(e <= e.min() + 2 * eps)


def _half_power_minimum(t: ResidueSet, j: int) -> tuple[int, int] | None:
    """(least covering count, smallest residue with it) without the full
    J-th power, or None where the full power must decide (J < 2, a bound
    that cannot be evaluated, or more than _CANDIDATE_CAP candidates)."""
    if j < 2:
        return None
    ranking = _fourier_ranking(t, j)
    if ranking is None:
        return None
    e, eps, k = ranking
    candidates = _candidates(e, eps)
    if candidates.size > _CANDIDATE_CAP:
        return None
    p, n2 = t.field.p, t.card * t.card
    w = pair_product_multiplicity(t)
    low = cyclic_power_exact(w, j // 2, p)
    high = low if j % 2 == 0 else cyclic_convolve_exact(low, w, p)
    low, high = low.tolist(), high.tolist()
    for h, counts in ((j // 2, low), (j - j // 2, high)):
        if sum(counts) != n2**h:
            raise RuntimeError(f"half-power mass {sum(counts)} != (|T|^2)^{h}; kernel bug")
    mass = n2**j
    best = None
    for r in candidates.tolist():
        # c_J(r) = sum_s low[s] * high[r - s]; the slices list high[r - s] for s = 0..p-1.
        count = sum(map(operator.mul, low, high[r::-1] + high[:r:-1]))
        # 2^-k E(r), rounded once by int true division (if k < 0, |E(r)| < p).
        if not abs((p * count - mass) / 2**k - e[r]) <= eps:
            raise RuntimeError(f"covering count {count} at r = {r} is off the Fourier ranking; kernel bug")
        if best is None or count < best[0]:
            best = (count, r)
    return best


def covering_counts(t: ResidueSet, j: int) -> tuple[int, ...]:
    """Exact counts of ordered J-tuples of pair products summing to each r,
    by J-fold cyclic self-convolution of w.

    Where an error estimate (not a proof) puts the rounding of the Fourier
    inversion (1/p) * sum_a f(a)^J * e(-ar/p) below 1/8, that is evaluated too
    as a cross-check, which must agree entrywise; it never decides a count.
    """
    if j < 1:
        raise ValueError("J must be >= 1")
    p = t.field.p
    counts = tuple(cyclic_power_exact(pair_product_multiplicity(t), j, p).tolist())
    mass = sum(counts)
    expected = (t.card * t.card) ** j
    if mass != expected:
        raise RuntimeError(f"covering mass {mass} != (|T|^2)^J = {expected}; kernel bug")
    if _fourier_check_applicable(t.card, j, p):
        rounded = covering_counts_fourier(t, j)
        if rounded != list(counts):
            raise RuntimeError("Fourier covering counts disagree with exact convolution")
    return counts


def covering_counts_fourier(t: ResidueSet, j: int) -> list[int]:
    """The covering counts as the rounded inverse real DFT of conj(f)^J."""
    counts = np.fft.irfft(np.conj(f_profile(t)) ** j, n=t.field.p)
    return [int(round(c)) for c in counts]


@dataclass(frozen=True)
class CoveringPositivity:
    J: int
    min_count: int
    min_residue: int
    all_covered: bool
    # Set when |T| > sqrt(p): exponent_excess(T) and whether J meets the
    # sufficient value computed from it.
    beta_excess: float | None
    j_required: int | None
    j_sufficient: bool | None


def check_covering_positivity(t: ResidueSet, j: int) -> CoveringPositivity:
    """Exact positivity check: is every residue a sum of J pair products?

    The minimum comes from the half powers and exact candidates; the full
    table is built only where those cannot decide it.
    """
    minimum = _half_power_minimum(t, j)
    if minimum is None:  # the least (count, residue) pair of the full table
        minimum = min(zip(covering_counts(t, j), range(t.field.p)))
    min_count, min_residue = minimum
    beta_excess = exponent_excess(t)
    j_required = j_sufficient = None
    if beta_excess is not None:
        j_required = compute_J(beta_excess)
        j_sufficient = j >= j_required
    return CoveringPositivity(
        J=j,
        min_count=min_count,
        min_residue=min_residue,
        all_covered=min_count > 0,
        beta_excess=beta_excess,
        j_required=j_required,
        j_sufficient=j_sufficient,
    )


def minimal_covering_J(t: ResidueSet, j_cap: int = 64) -> int | None:
    """Smallest J whose covering counts are all positive, or None below j_cap."""
    # Counts are nonnegative, so the support of c * w is supp(c) + supp(w):
    # iterating sumsets of the supports finds the same J, and growth.sumset
    # enumerates pairs or convolves, whichever its size rule says pays.
    covered = support = ResidueSet(t.field, pair_product_multiplicity(t) > 0)
    for j in range(1, j_cap + 1):
        if covered.card == t.field.p:
            return j
        covered = sumset(covered, support)
    return None
