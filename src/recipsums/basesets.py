"""Base-set constructions: prime reciprocal-power sums and smooth sets.

The main construction takes all increasing u-tuples of primes up to
floor(p^beta) and records the residues of 1/q_1^k + ... + 1/q_u^k mod p.
When the exact integer condition u * p^((2u-1)*k*beta) < p holds, clearing
denominators shows two equal-sum tuples must be identical, so the residues
of distinct tuples are distinct and |S| equals the tuple count. That
regime test and the (asymptotic, informational) size lower bound
p^(1/(2k)-beta) / (u! * log^u p) are reported with every build.

Smooth sets -- integers in [1, p-1] with no prime factor above a bound --
are the standing example of a multiplicatively closed set; the checker
verifies closure exhaustively and counts elements up to a height p^epsilon
against the density target p^(epsilon*theta).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import EmptyBase, NonPositiveU
from .field import PrimeField, require_dense
from .intmath import pow_floor
from .sets import ResidueSet


def compute_u(beta: Fraction, k: int) -> int:
    """Largest integer strictly below 1/(2*k*beta)."""
    if beta <= 0:
        raise ValueError("beta must be > 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    limit = 1 / (Fraction(beta) * 2 * k)
    u = math.ceil(limit) - 1
    if u < 1:
        raise NonPositiveU(f"no positive tuple length below {limit} (beta={beta}, k={k})")
    return u


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound in ascending order, by sieve of Eratosthenes."""
    if bound < 2:
        return []
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    return [int(q) for q in np.flatnonzero(sieve)]


@dataclass(frozen=True)
class BaseSetSpec:
    """Parameters for a prime reciprocal-power base set.

    beta is the height exponent (primes run up to floor(p^beta)); u
    defaults to compute_u(beta, k) but may be overridden. small_beta_regime
    records whether beta < 1/(5k); construction is permitted outside that
    regime, the flag just keeps the hypothesis visible.
    """

    field: PrimeField
    k: int
    beta: Fraction
    u: int | None = None

    def __post_init__(self) -> None:
        if not (0 < self.beta < 1):
            raise ValueError("beta must lie in (0, 1)")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.u is not None and self.u < 1:
            raise ValueError("u override must be >= 1")
        require_dense(self.field.p)

    @property
    def tuple_length(self) -> int:
        return self.u if self.u is not None else compute_u(self.beta, self.k)

    @property
    def small_beta_regime(self) -> bool:
        return self.beta < Fraction(1, 5 * self.k)

    @property
    def prime_height(self) -> int:
        """floor(p^beta), evaluated exactly."""
        return pow_floor(self.field.p, self.beta)


@dataclass(frozen=True)
class DistinctnessReport:
    tuple_count: int
    set_size: int
    regime_holds: bool  # u * p^((2u-1)*k*beta) < p, exact integer check
    size_bound_holds: bool  # |S| > p^(1/(2k)-beta) / (u! log^u p), informational
    prime_height: int
    prime_count: int
    small_beta_regime: bool


def build_prime_reciprocal_set(spec: BaseSetSpec) -> tuple[ResidueSet, DistinctnessReport]:
    """All residues of sums of u distinct prime reciprocal k-th powers.

    Raises EmptyBase when fewer than u primes lie below floor(p^beta).
    """
    p = spec.field.p
    u = spec.tuple_length
    height = spec.prime_height
    primes = primes_up_to(height)
    if len(primes) < u:
        raise EmptyBase(
            f"only {len(primes)} primes <= {height} = floor({p}^{spec.beta}), need {u}"
        )

    recips = spec.field.recip_powers(np.array(primes, dtype=np.int64), spec.k).tolist()
    bits = np.zeros(p, dtype=bool)
    for combo in combinations(recips, u):
        bits[sum(combo) % p] = True
    members = ResidueSet._adopt(spec.field, bits)

    tuple_count = math.comb(len(primes), u)
    # u^den * p^((2u-1)*k*num) < p^den  <=>  p^((2u-1)*k*beta) < p/u.
    num, den = spec.beta.numerator, spec.beta.denominator
    regime = u**den * p ** ((2 * u - 1) * spec.k * num) < p**den

    bound_exp = Fraction(1, 2 * spec.k) - spec.beta
    size_bound = float(p) ** float(bound_exp) / (math.factorial(u) * math.log(p) ** u)
    report = DistinctnessReport(
        tuple_count=tuple_count,
        set_size=members.card,
        regime_holds=regime,
        size_bound_holds=members.card > size_bound,
        prime_height=height,
        prime_count=len(primes),
        small_beta_regime=spec.small_beta_regime,
    )
    return members, report


@dataclass(frozen=True)
class SmoothSet:
    """Integers in [1, p-1] whose prime factors all lie below a bound."""

    field: PrimeField
    bound: int
    integers: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.integers)


def build_smooth_set(field: PrimeField, smoothness_bound: int) -> SmoothSet:
    """Multiplicative closure of the primes <= smoothness_bound inside [1, p-1]."""
    if smoothness_bound < 2:
        raise ValueError("smoothness bound must be >= 2")
    limit = field.p - 1
    primes = [q for q in primes_up_to(smoothness_bound) if q <= limit]
    found = {1}
    stack = [1]
    while stack:
        s = stack.pop()
        for q in primes:
            t = s * q
            if t <= limit and t not in found:
                found.add(t)
                stack.append(t)
    return SmoothSet(field, smoothness_bound, tuple(sorted(found)))


@dataclass(frozen=True)
class MultiplicativityReport:
    contains_one: bool
    closed_under_product: bool  # s*t in S whenever s,t in S and s*t <= p-1
    closure_holds: bool  # both of the above
    closure_counterexample: tuple[int, int] | None
    count_up_to_height: int  # elements <= floor(p^epsilon)
    density_holds: bool  # count >= p^(epsilon*theta), exact comparison
    height: int


def check_multiplicative_conditions(
    elements,
    field: PrimeField,
    epsilon: Fraction,
    theta: Fraction,
) -> MultiplicativityReport:
    """Check multiplicative closure and low-height density of an integer set.

    Closure is exhaustive over pairs with product <= p-1; density compares
    the exact count of elements <= floor(p^epsilon) against p^(epsilon*theta)
    in integer arithmetic.
    """
    if isinstance(elements, SmoothSet):
        elements = elements.integers
    values = sorted(set(int(v) for v in elements))
    if values and not (1 <= values[0] and values[-1] <= field.p - 1):
        raise ValueError("elements must be integers in [1, p-1]")
    if not (0 < epsilon <= 1) or theta <= 0:
        raise ValueError("need 0 < epsilon <= 1 and theta > 0")

    limit = field.p - 1
    member = set(values)
    counterexample = None
    for i, s in enumerate(values):
        hi = bisect_right(values, limit // s)
        for t in values[i:hi]:
            if s * t not in member:
                counterexample = (s, t)
                break
        if counterexample:
            break
    contains_one = 1 in member
    closed = counterexample is None

    height = pow_floor(field.p, epsilon)
    count = bisect_right(values, height)
    # count >= p^(epsilon*theta)  <=>  count^den >= p^num
    target = Fraction(epsilon) * Fraction(theta)
    density = count**target.denominator >= field.p**target.numerator

    return MultiplicativityReport(
        contains_one=contains_one,
        closed_under_product=closed,
        closure_holds=contains_one and closed,
        closure_counterexample=counterexample,
        count_up_to_height=count,
        density_holds=density,
        height=height,
    )
