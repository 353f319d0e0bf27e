"""Sumset/productset kernels and the greedy sum-product growth iteration.

Starting from a seed set, each step computes both S+S and S*S and keeps
the larger (ties go to the productset). Iteration stops once the
cardinality exceeds p raised to a configured exponent, compared in exact
integer arithmetic. The trace records the per-step empirical growth
exponent together with the term-count and height bookkeeping implied by
doubling the number of summed terms at every step. Each sumset and
productset runs the kernel priced cheapest: in plain Python, shifted ORs of
bitmaps or a loop over pairs; in numpy, which a kernel pays to import, an
enumeration of the pairs or a convolution (for products, of the discrete
logs in the field's own tables, PrimeField.dlog_tables).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import IterationCap, NonPositiveTheta, Stalled
from .field import _ONE_TO_ONE, _Value
from .intmath import exceeds_power
from .sets import ResidueSet, require_same_field

if TYPE_CHECKING:
    import numpy as np

# Direct enumeration of the |A|*|B| pairs costs about the same as one
# length-p convolution at |A|*|B| = 40p to 60p (measured at p = 20149, 99929
# and 1000003, for sums and products alike); below this many pairs per
# residue it is at least 1.3 times faster.
_NAIVE_PAIRS_PER_RESIDUE = 32
# Prices in nanoseconds, fitted at p = 10^4 to 10^6 (2 shared vCPUs, Python
# 3.11, numpy 2.4): numpy's import, paid while it is not loaded; a Python sum,
# per member of the smaller set; a Python product; a numpy kernel.
_IMPORT_NS = 60e6
_SHIFT_NS = (200, 0.035)  # fixed; per residue of Z/pZ
_PRODUCT_NS = (65, 3)  # per pair; per residue of Z/pZ
_NUMPY_NS = (6, 340)  # per pair enumerated; per residue of Z/pZ convolved

SUM = "sum"
PRODUCT = "product"


def _kernel(a: ResidueSet, b: ResidueSet, python_ns: float, python, naive, dense) -> ResidueSet:
    """The Python kernel, or the numpy one the size rule picks if that is cheaper."""
    pairs, p = a.card * b.card, require_same_field(a, b).p
    enumerate_pays = pairs <= _NAIVE_PAIRS_PER_RESIDUE * p
    numpy_ns = _NUMPY_NS[0] * pairs if enumerate_pays else _NUMPY_NS[1] * p
    if python_ns <= numpy_ns + ("numpy" not in sys.modules) * _IMPORT_NS:
        return python(a, b)
    return naive(a, b) if enumerate_pays else dense(a, b)


def _enumerate_pairs(a: ResidueSet, b: ResidueSet, op: str) -> ResidueSet:
    """{op(x, y) mod p} over all member pairs, in blocks of rows of about p
    pairs each, computed into one reused buffer so the peak stays O(p)."""
    import numpy as np

    p = require_same_field(a, b).p
    am, bm = a.members(), b.members()
    bits = np.zeros(p, dtype=bool)
    rows = max(1, p // max(bm.size, 1))
    buffer = np.empty((min(rows, am.size), bm.size), dtype=np.int64)
    for start in range(0, am.size, rows):
        block = buffer[: am.size - start]
        getattr(np, op)(am[start : start + rows, None], bm[None, :], out=block)
        block %= p
        bits[block.ravel()] = True
    return ResidueSet(a.field, bits)


# ---------------------------------------------------------------------------
# sumset kernels


def _shifted_sum(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """{x + y mod p}: the OR of one bitmap shifted by each member of the
    smaller set, with the bits at p and above folded back."""
    p = require_same_field(a, b).p
    small, large = (a, b) if a.card <= b.card else (b, a)
    total = 0
    for x in small.to_list():
        total |= large.bits << x
    return ResidueSet(a.field, total & (1 << p) - 1 | total >> p)


def sumset_naive(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """{x + y mod p} by direct enumeration of all member pairs."""
    return _enumerate_pairs(a, b, "add")


def sumset_conv(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """{x + y mod p} via exact cyclic convolution of characteristic vectors."""
    from .convolve import cyclic_convolve_exact

    p = require_same_field(a, b).p
    x = a._vector()  # one vector for A+A: packed once
    return ResidueSet(a.field, cyclic_convolve_exact(x, x if b is a else b._vector(), p) > 0)


def sumset(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """Sumset A+B; kernel chosen by price, results identical either way."""
    shifts = min(a.card, b.card) * (_SHIFT_NS[0] + _SHIFT_NS[1] * a.field.p)
    return _kernel(a, b, shifts, _shifted_sum, sumset_naive, sumset_conv)


# ---------------------------------------------------------------------------
# productset kernels


def _paired_products(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """{x * y mod p} by a loop over member pairs, each unordered one once for A*A."""
    p = require_same_field(a, b).p
    flags, am = bytearray(p), a.to_list()
    bm = am if b is a else b.to_list()
    for i, x in enumerate(am):
        for y in bm[i:] if b is a else bm:
            flags[x * y % p] = 1
    return ResidueSet(a.field, int(flags.translate(_ONE_TO_ONE)[::-1], 2))


def productset_naive(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """{x * y mod p} by direct enumeration of all member pairs."""
    return _enumerate_pairs(a, b, "multiply")


def product_counts(a: ResidueSet, b: ResidueSet) -> np.ndarray:
    """c[m] = number of pairs (x, y) in A x B with x * y = m mod p. Discrete
    logs make the nonzero products an additive cyclic convolution on
    Z/(p-1)Z; every pair with a zero factor lands on 0. The tables come
    from the field, which builds them once."""
    import numpy as np

    from .convolve import cyclic_convolve_exact

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
    return ResidueSet(a.field, product_counts(a, b) > 0)


def productset(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """Productset A*B; kernel chosen by price, results identical either way."""
    pairs = (a.card * (a.card + 1) // 2) if b is a else a.card * b.card
    loop = _PRODUCT_NS[0] * pairs + _PRODUCT_NS[1] * a.field.p
    return _kernel(a, b, loop, _paired_products, productset_naive, productset_dlog)


# ---------------------------------------------------------------------------
# growth iteration


class GrowthConfig(_Value):
    """Stopping rule for the growth iteration.

    threshold_exponent r means: stop once card > p**r, evaluated exactly
    by intmath.exceeds_power as card**denominator > p**numerator.
    """

    threshold_exponent: Fraction = Fraction(2, 3)
    max_iters: int = 64

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not (0 < self.threshold_exponent < 1):
            raise ValueError("threshold_exponent must be in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


class GrowthStep(_Value):
    op: str  # SUM or PRODUCT
    size_before: int
    size_after: int
    theta_hat: float  # log(size_after)/log(size_before) - 1


# Refuse to materialize term bounds beyond this many bits; the trace
# carries an explicit capped flag instead of an astronomically large int.
_TERM_BOUND_BIT_CAP = 1 << 22


def _tower(u: int, d: int) -> int | None:
    """u**(2**d) exactly, or None when d > 60 or it would have more than
    _TERM_BOUND_BIT_CAP bits."""
    if d > 60 or (2**d) * u.bit_length() > _TERM_BOUND_BIT_CAP:
        return None
    return u ** (2**d)


class GrowthTrace(_Value):
    """Record of one growth run, with term-complexity bookkeeping.

    After n steps every element is a sum of at most max(u, 2)**(2**n) terms
    (a sum step doubles the terms, also when u = 1), each term a reciprocal
    k-th power of a product of at most 2**n integers whose product is at
    most p**(2**n * beta).
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
        """max(u, 2)**(2**n) exactly, or None when flagged as capped."""
        return _tower(max(self.u, 2), self.n)

    @property
    def term_bound_capped(self) -> bool:
        return self.term_bound is None


def grow_step(s: ResidueSet) -> tuple[ResidueSet, str]:
    """One step: the larger of S+S and S*S, productset on ties."""
    if s.card == 0:
        raise ValueError("growth step requires a nonempty set")
    times = productset(s, s)  # first: where it loads numpy, the sumset need not pay for that
    plus = sumset(s, s)
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
    """Exact max(u, 2)**(2**ceil(log(3k)/log(1+theta))) term budget."""
    if theta <= 0:
        raise NonPositiveTheta("growth exponent must be > 0")
    if u < 1 or k < 1:
        raise ValueError("u and k must be >= 1")
    doublings = math.ceil(math.log(3 * k) / math.log1p(theta))
    budget = _tower(max(u, 2), doublings)
    if budget is None:
        raise OverflowError(
            f"term budget max(u, 2)^(2^{doublings}) exceeds {_TERM_BOUND_BIT_CAP} bits; "
            "theta is too small for an explicit value"
        )
    return budget
