"""Sumset/productset kernels and the greedy sum-product growth iteration.

Starting from a seed set, each step computes both S+S and S*S and keeps
the larger (ties go to the productset). Iteration stops once the
cardinality exceeds p raised to a configured exponent, compared in exact
integer arithmetic. The trace records the per-step empirical growth
exponent together with the term-count and height bookkeeping implied by
doubling the number of summed terms at every step. Dense productsets take
their discrete logs from the field's own tables (PrimeField.dlog_tables),
so a run builds them at most once and drops them with the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .convolve import cyclic_convolve_exact
from .errors import IterationCap, NonPositiveTheta, Stalled
from .intmath import exceeds_power
from .sets import ResidueSet, require_same_field

# Direct enumeration of the |A|*|B| pairs costs about the same as one
# length-p convolution at |A|*|B| = 40p to 60p (measured at p = 20149, 99929
# and 1000003, for sums and products alike); below this many pairs per
# residue it is at least 1.3 times faster.
_NAIVE_PAIRS_PER_RESIDUE = 32

SUM = "sum"
PRODUCT = "product"


# ---------------------------------------------------------------------------
# sumset kernels


def _naive_pays(a: ResidueSet, b: ResidueSet) -> bool:
    return a.card * b.card <= _NAIVE_PAIRS_PER_RESIDUE * require_same_field(a, b).p


def _enumerate_pairs(a: ResidueSet, b: ResidueSet, op: np.ufunc) -> ResidueSet:
    """{op(x, y) mod p} over all member pairs, in blocks of rows of about p
    pairs each, so every temporary stays O(p)."""
    p = require_same_field(a, b).p
    am, bm = a.members(), b.members()
    bits = np.zeros(p, dtype=bool)
    rows = max(1, p // max(bm.size, 1))
    for start in range(0, am.size, rows):
        block = op(am[start : start + rows, None], bm[None, :])
        block %= p
        bits[block.ravel()] = True
    return ResidueSet._adopt(a.field, bits)


def sumset_naive(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """{x + y mod p} by direct enumeration of all member pairs."""
    return _enumerate_pairs(a, b, np.add)


def sumset_conv(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """{x + y mod p} via exact cyclic convolution of characteristic vectors."""
    p = require_same_field(a, b).p
    return ResidueSet._adopt(a.field, cyclic_convolve_exact(a.bits, b.bits, p) > 0)


def sumset(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """Sumset A+B; kernel chosen by size, results identical either way."""
    if _naive_pays(a, b):
        return sumset_naive(a, b)
    return sumset_conv(a, b)


# ---------------------------------------------------------------------------
# productset kernels


def productset_naive(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """{x * y mod p} by direct enumeration of all member pairs."""
    return _enumerate_pairs(a, b, np.multiply)


def product_counts(a: ResidueSet, b: ResidueSet) -> np.ndarray:
    """c[m] = number of pairs (x, y) in A x B with x * y = m mod p. Discrete
    logs make the nonzero products an additive cyclic convolution on
    Z/(p-1)Z; every pair with a zero factor lands on 0. The tables come
    from the field, which builds them once."""
    field = require_same_field(a, b)
    p = field.p
    powers, dlog = field.dlog_tables

    def exponents(s: ResidueSet) -> tuple[int, np.ndarray]:
        nonzero = s.members()[1:] if 0 in s else s.members()
        bits = np.zeros(p - 1, dtype=bool)
        bits[dlog[nonzero]] = True
        return nonzero.size, bits

    na, ae = exponents(a)
    nb, be = (na, ae) if b is a else exponents(b)  # one bitmap: packed once
    counts = np.zeros(p, dtype=np.uint64)
    counts[powers] = cyclic_convolve_exact(ae, be, p - 1)
    counts[0] = a.card * b.card - na * nb
    return counts


def productset_dlog(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """{x * y mod p} from the discrete-log product counts."""
    return ResidueSet._adopt(a.field, product_counts(a, b) > 0)


def productset(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """Productset A*B; kernel chosen by size, results identical either way."""
    if _naive_pays(a, b):
        return productset_naive(a, b)
    return productset_dlog(a, b)


# ---------------------------------------------------------------------------
# growth iteration


@dataclass(frozen=True)
class GrowthConfig:
    """Stopping rule for the growth iteration.

    threshold_exponent r means: stop once card > p**r, evaluated exactly
    by intmath.exceeds_power as card**denominator > p**numerator.
    """

    threshold_exponent: Fraction = Fraction(2, 3)
    max_iters: int = 64

    def __post_init__(self) -> None:
        if not (0 < self.threshold_exponent < 1):
            raise ValueError("threshold_exponent must be in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class GrowthStep:
    op: str  # SUM or PRODUCT
    size_before: int
    size_after: int
    theta_hat: float  # log(size_after)/log(size_before) - 1


# Refuse to materialize term bounds beyond this many bits; the trace
# carries an explicit capped flag instead of an astronomically large int.
_TERM_BOUND_BIT_CAP = 1 << 22


def _tower(u: int, d: int) -> int | None:
    """u**(2**d) exactly, or None when d > 60 or it would have more than
    _TERM_BOUND_BIT_CAP bits. u <= 1 is its own tower."""
    if u <= 1:
        return u
    if d > 60 or (2**d) * u.bit_length() > _TERM_BOUND_BIT_CAP:
        return None
    return u ** (2**d)


@dataclass(frozen=True)
class GrowthTrace:
    """Record of one growth run, with term-complexity bookkeeping.

    After n steps every element is a sum of at most u**(2**n) terms, each
    term a reciprocal k-th power of a product of at most 2**n integers
    whose product is at most p**(2**n * beta).
    """

    steps: tuple[GrowthStep, ...]
    u: int
    beta: Fraction

    @property
    def n(self) -> int:
        return len(self.steps)

    @property
    def height_exponent(self) -> Fraction:
        return (2**self.n) * self.beta

    @cached_property
    def term_bound(self) -> int | None:
        """u**(2**n) exactly, or None when flagged as capped."""
        return _tower(self.u, self.n)

    @property
    def term_bound_capped(self) -> bool:
        return self.term_bound is None


def grow_step(s: ResidueSet) -> tuple[ResidueSet, str]:
    """One step: the larger of S+S and S*S, productset on ties."""
    if s.card == 0:
        raise ValueError("growth step requires a nonempty set")
    plus = sumset(s, s)
    times = productset(s, s)
    if plus.card > times.card:
        return plus, SUM
    return times, PRODUCT


def grow_until(
    s0: ResidueSet,
    cfg: GrowthConfig,
    u: int,
    beta: Fraction,
) -> tuple[ResidueSet, GrowthTrace]:
    """Iterate grow_step until card > p**threshold_exponent.

    Raises Stalled when a step leaves the set unchanged below the
    threshold, IterationCap when max_iters steps did not reach it.
    """
    if s0.card == 0:
        raise ValueError("growth requires a nonempty seed set")
    steps: list[GrowthStep] = []
    current = s0
    while not exceeds_power(current.card, s0.field.p, cfg.threshold_exponent):
        if len(steps) >= cfg.max_iters:
            raise IterationCap(
                f"no set larger than p^{cfg.threshold_exponent} within {cfg.max_iters} steps"
            )
        nxt, op = grow_step(current)
        if nxt == current:
            raise Stalled(f"step {len(steps)} left the set unchanged at size {current.card}")
        if nxt.card < current.card:
            raise RuntimeError("sumset/productset shrank; kernel bug")
        if current.card > 1:
            theta_hat = math.log(nxt.card) / math.log(current.card) - 1.0
        else:
            theta_hat = float("nan")
        steps.append(GrowthStep(op, current.card, nxt.card, theta_hat))
        current = nxt
    return current, GrowthTrace(tuple(steps), u, beta)


# ---------------------------------------------------------------------------
# growth-exponent bookkeeping


def n_bound(k: int, theta: float) -> float:
    """Step-count bound log(3k)/log(1+theta) + 1 for growth exponent theta."""
    if theta <= 0:
        raise NonPositiveTheta("growth exponent must be > 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    return math.log(3 * k) / math.log(1 + theta) + 1.0


def term_budget(u: int, k: int, theta: float) -> int:
    """Exact u**(2**ceil(log(3k)/log(1+theta))) term budget."""
    if theta <= 0:
        raise NonPositiveTheta("growth exponent must be > 0")
    if u < 1 or k < 1:
        raise ValueError("u and k must be >= 1")
    if u == 1:
        return 1
    doublings = math.ceil(math.log(3 * k) / math.log(1 + theta))
    budget = _tower(u, doublings)
    if budget is None:
        raise OverflowError(
            f"term budget u^(2^{doublings}) exceeds {_TERM_BOUND_BIT_CAP} bits; "
            "theta is too small for an explicit value"
        )
    return budget
