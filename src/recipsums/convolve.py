"""Exact cyclic convolution via Kronecker substitution in base 10^d.

Each vector of nonnegative integer counts is packed into one big decimal
number, entry i in digits [i*d, (i+1)*d); a single multiplication then
yields every linear convolution coefficient, with no rounding anywhere.

Bucket bound: a cyclic coefficient c[k] = sum_i a[i]*b[k-i mod n] is at
most sum(a)*max(b) and at most sum(b)*max(a), so at most
B = min(sum(a)*max(b), sum(b)*max(a)). Every linear coefficient is one of
the two parts of a single cyclic coefficient (c[k] = lin[k] + lin[k+n]),
so it is at most B too. With d the number of decimal digits of B no
bucket reaches 10^d, and none can carry into its neighbour. B is computed
exactly: a fixed-width numpy sum is used only where it cannot wrap.

The product is taken by the standard library's ``decimal`` (libmpdec),
which multiplies large operands by an exact number-theoretic transform;
its context has maximal precision and traps Inexact and Rounded, so a
dropped digit raises instead of returning a wrong count. Decimal digits
make packing and unpacking plain string work: vectorised with numpy
while a bucket fits in uint64 (d <= 19), and through ``Decimal(int)`` /
``int(Decimal)``, which convert in binary and so have no digit limit,
above that.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
from typing import Sequence

import numpy as np

_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])

# 10**19 - 1 < 2**64 <= 10**20 - 1: the widest bucket a uint64 holds, and
# the most decimal digits a uint64 entry can have.
_U64_DIGITS = 19
_ZERO = ord("0")


def _entries(x: np.ndarray | Sequence[int], n: int) -> tuple[np.ndarray, int, int]:
    """x as a uint64 array (object array if an entry needs more than 64
    bits), with its sum and maximum as exact Python ints."""
    if isinstance(x, np.ndarray) and (x.dtype == bool or x.dtype.kind in "iu"):
        if len(x) != n:
            raise ValueError("vectors must have length n")
        if x.dtype.kind == "i" and x.min(initial=0) < 0:
            raise ValueError("entries must be nonnegative")
        values = x.astype(np.uint64)
        top = int(values.max(initial=0))
        total = int(values.sum()) if n * top < 1 << 64 else sum(values.tolist())
        return values, total, top
    values = x.tolist() if isinstance(x, np.ndarray) else [int(v) for v in x]
    if len(values) != n:
        raise ValueError("vectors must have length n")
    if min(values, default=0) < 0:
        raise ValueError("entries must be nonnegative")
    top = max(values, default=0)
    return np.array(values, dtype=np.uint64 if top < 1 << 64 else object), sum(values), top


def _pack(values: np.ndarray, digits: int) -> Decimal:
    """sum_i values[i] * 10^(digits*i), most significant bucket first in the text."""
    if values.dtype == object:
        return Decimal("".join(str(Decimal(v)).zfill(digits) for v in reversed(values.tolist())))
    columns = np.full((len(values), digits), _ZERO, dtype=np.uint8)
    rest = values[::-1].copy()
    for k in range(1, min(digits, _U64_DIGITS + 1) + 1):
        columns[:, -k] += (rest % 10).astype(np.uint8)
        rest //= 10
    return Decimal(str(columns.data, "ascii"))


def cyclic_convolve_exact(
    a: np.ndarray | Sequence[int], b: np.ndarray | Sequence[int], n: int
) -> np.ndarray:
    """Exact cyclic convolution of two length-n vectors of nonnegative ints.

    Accepts bool or integer arrays and int sequences; entries may be
    arbitrarily large. Returns a uint64 array when every coefficient fits
    in 64 bits, otherwise an object array of Python ints. A square (b is a)
    packs once and hands libmpdec the same operand twice, which it then
    transforms once.
    """
    square = b is a
    a, sum_a, max_a = _entries(a, n)
    b, sum_b, max_b = (a, sum_a, max_a) if square else _entries(b, n)
    bound = min(sum_a * max_b, sum_b * max_a)
    if bound == 0:
        return np.zeros(n, dtype=np.uint64)
    digits = len(str(Decimal(bound)))
    packed = _pack(a, digits)
    product = _EXACT.multiply(packed, packed if square else _pack(b, digits))
    if digits <= _U64_DIGITS:
        text = str(product).encode("ascii")
        columns = np.zeros(2 * n * digits, dtype=np.uint8)
        np.subtract(np.frombuffer(text, dtype=np.uint8), _ZERO, out=columns[columns.size - len(text) :])
        columns = columns.reshape(2 * n, digits)
        linear = np.zeros(2 * n, dtype=np.uint64)
        for k in range(digits):
            linear *= 10
            linear += columns[:, k]
        linear = linear[::-1]
        return linear[:n] + linear[n:]
    text = str(product).zfill(2 * n * digits)
    linear = [int(Decimal(text[i : i + digits])) for i in range(0, len(text), digits)][::-1]
    return _entries([lo + hi for lo, hi in zip(linear[:n], linear[n:])], n)[0]


def cyclic_power_exact(a: np.ndarray | Sequence[int], j: int, n: int) -> np.ndarray:
    """J-fold cyclic self-convolution by binary exponentiation, exact."""
    if j < 1:
        raise ValueError("exponent must be >= 1")
    base = _entries(a, n)[0]
    result: np.ndarray | None = None
    while j:
        if j & 1:
            result = base if result is None else cyclic_convolve_exact(result, base, n)
        j >>= 1
        if j:
            base = cyclic_convolve_exact(base, base, n)
    assert result is not None
    return result
