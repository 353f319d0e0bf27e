"""Sumset/productset kernels and the greedy sum-product growth iteration.

Starting from a seed set, each step computes both S+S and S*S and keeps
the larger (ties go to the productset). Iteration stops once the
cardinality exceeds p raised to a configured exponent, compared in exact
integer arithmetic. The trace records the per-step empirical growth
exponent together with the term-count and height bookkeeping implied by
doubling the number of summed terms at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .convolve import cyclic_convolve_exact
from .errors import IterationCap, NonPositiveTheta, Stalled
from .sets import ResidueSet, require_same_field

# Above this many element pairs the convolution kernels beat direct
# enumeration; below it the dense vectors cost more than they save.
_NAIVE_PAIR_LIMIT = 1 << 12

SUM = "sum"
PRODUCT = "product"


# ---------------------------------------------------------------------------
# sumset kernels


def sumset_naive(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """{x + y mod p} by direct enumeration of all member pairs."""
    p = require_same_field(a, b).p
    am, bm = a.members(), b.members()
    bits = np.zeros(p, dtype=bool)
    if am.size and bm.size:
        sums = (am[:, None] + bm[None, :]) % p
        bits[sums.ravel()] = True
    return ResidueSet(a.field, bits)


def sumset_conv(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """{x + y mod p} via exact cyclic convolution of characteristic vectors."""
    p = require_same_field(a, b).p
    return ResidueSet(a.field, cyclic_convolve_exact(a.bits, b.bits, p) > 0)


def sumset(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """Sumset A+B; kernel chosen by size, results identical either way."""
    require_same_field(a, b)
    if a.card * b.card <= _NAIVE_PAIR_LIMIT:
        return sumset_naive(a, b)
    return sumset_conv(a, b)


# ---------------------------------------------------------------------------
# productset kernels


@lru_cache(maxsize=256)
def primitive_root(p: int) -> int:
    """Smallest primitive root of Z/pZ, found by deterministic search."""
    if p == 2:
        return 1
    factors = _prime_factors(p - 1)
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
        g += 1


def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


@lru_cache(maxsize=64)
def _dlog_tables(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(powers, dlog): powers[i] = g^i mod p, dlog[powers[i]] = i.

    Blocked powers: g^(i+B) = g^B * g^i with the block B doubling each round,
    so O(log p) numpy passes; the int64 products are exact as (p - 1)^2 < 2^63
    for every p <= DENSE_P_MAX.
    """
    g = primitive_root(p)
    powers = np.ones(1, dtype=np.int64)
    while powers.size < p - 1:
        block = powers[: p - 1 - powers.size]
        powers = np.concatenate((powers, block * pow(g, powers.size, p) % p))
    dlog = np.zeros(p, dtype=np.int64)
    dlog[powers] = np.arange(p - 1, dtype=np.int64)
    powers.setflags(write=False)
    dlog.setflags(write=False)
    return powers, dlog


def productset_naive(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """{x * y mod p} by direct enumeration of all member pairs."""
    p = require_same_field(a, b).p
    am, bm = a.members(), b.members()
    bits = np.zeros(p, dtype=bool)
    if am.size and bm.size:
        prods = (am[:, None] * bm[None, :]) % p
        bits[prods.ravel()] = True
    return ResidueSet(a.field, bits)


def product_counts(a: ResidueSet, b: ResidueSet) -> np.ndarray:
    """c[m] = number of pairs (x, y) in A x B with x * y = m mod p. Discrete
    logs make the nonzero products an additive cyclic convolution on
    Z/(p-1)Z; every pair with a zero factor lands on 0."""
    p = require_same_field(a, b).p
    powers, dlog = _dlog_tables(p)

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
    return ResidueSet(a.field, product_counts(a, b) > 0)


def productset(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """Productset A*B; kernel chosen by size, results identical either way."""
    require_same_field(a, b)
    if a.card * b.card <= _NAIVE_PAIR_LIMIT:
        return productset_naive(a, b)
    return productset_dlog(a, b)


# ---------------------------------------------------------------------------
# growth iteration


@dataclass(frozen=True)
class GrowthConfig:
    """Stopping rule for the growth iteration.

    threshold_exponent r means: stop once card > p**r, evaluated exactly
    as card**denominator > p**numerator. delta is informational context
    for the regime the iteration is expected to operate in.
    """

    threshold_exponent: Fraction = Fraction(2, 3)
    max_iters: int = 64
    delta: Fraction | None = None

    def __post_init__(self) -> None:
        if not (0 < self.threshold_exponent < 1):
            raise ValueError("threshold_exponent must be in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class GrowthStep:
    op_chosen: str  # SUM or PRODUCT
    size_before: int
    size_after: int
    theta_hat: float  # log(size_after)/log(size_before) - 1


# Refuse to materialize term bounds beyond this many bits; the trace
# carries an explicit capped flag instead of an astronomically large int.
_TERM_BOUND_BIT_CAP = 1 << 22


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

    @property
    def term_bound_capped(self) -> bool:
        if self.u <= 1:
            return False
        return (2**self.n) * (self.u.bit_length()) > _TERM_BOUND_BIT_CAP

    @property
    def term_bound(self) -> int | None:
        """u**(2**n) exactly, or None when flagged as capped."""
        if self.u <= 1:
            return self.u
        if self.term_bound_capped:
            return None
        return self.u ** (2**self.n)


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
    p = s0.field.p
    num, den = cfg.threshold_exponent.numerator, cfg.threshold_exponent.denominator
    target = p**num

    steps: list[GrowthStep] = []
    current = s0
    while current.card**den <= target:
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
    if doublings > 60 or (2**doublings) * u.bit_length() > _TERM_BOUND_BIT_CAP:
        raise OverflowError(
            f"term budget u^(2^{doublings}) exceeds {_TERM_BOUND_BIT_CAP} bits; "
            "theta is too small for an explicit value"
        )
    return u ** (2**doublings)
