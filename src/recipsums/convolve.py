"""Exact cyclic convolution via Kronecker substitution in base 10^d.

Entry i of a count vector fills digits [i*d, (i+1)*d) of one decimal number,
so one multiplication gives every linear coefficient. As c[k] = lin[k] +
lin[k+n] <= min(sum(a)*max(b), sum(b)*max(a)) < 10^d, no bucket carries.
libmpdec multiplies by an exact transform in a context that traps Inexact
and Rounded. Between multiplies a vector is an (n, L) uint64 matrix of
base-10^18 limbs, most significant first, with its exact sum (a product's is
the product of the sums) and maximum (the greatest row as big-endian bytes).
Every bucket width takes one path: divmod passes over all limbs give digits,
a dot with the powers of ten gives limbs, and a limb add with carry folds
the product (two limbs sum below 2^63). Python ints meet limbs only at the
edges, in log2(L) rounds of object-array divmods or multiply-adds, never
through the quadratic ``int(Decimal)`` or ``str(int)``.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
from typing import Sequence

import numpy as np

_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])
_LIMB_DIGITS = 18
_LIMB = 10**_LIMB_DIGITS
_POWERS = 10 ** np.arange(_LIMB_DIGITS - 1, -1, -1, dtype=np.uint64)
_ZERO = ord("0")


def _digits(x: int) -> int:
    """Decimal digits of x >= 0; the estimate from the bit length never overshoots."""
    digits = max(x.bit_length() - 1, 0) * 30102999566 // 10**11 + 1
    while 10**digits <= x:
        digits += 1
    return digits


def _join(limbs: np.ndarray, wide: int) -> np.ndarray:
    """(n, L) limbs as uint64, or as Python ints if wide, merging pairs of limbs."""
    x, scale = limbs.astype(object if wide else np.uint64), _LIMB
    while x.shape[1] > 1:
        odd = x.shape[1] % 2  # an odd leading limb is a digit of the doubled base as it is
        x = np.concatenate([x[:, :odd], x[:, odd::2] * scale + x[:, odd + 1 :: 2]], axis=1)
        scale *= scale
    return x[:, 0]


def _counts(x: np.ndarray | Sequence[int], n: int) -> tuple[np.ndarray, int, int]:
    """x as (limbs, exact sum, exact maximum); the limbs come from halving divmods."""
    if not (isinstance(x, np.ndarray) and x.dtype.kind in "biuO"):
        x = np.array([int(v) for v in x], dtype=object)
    if len(x) != n or x.min(initial=0) < 0:
        raise ValueError("vectors must have length n and nonnegative entries")
    top = int(x.max(initial=0))
    x = x.astype(object if top >> 64 else np.uint64).reshape(n, 1)
    total = sum(x[:, 0].tolist()) if (n * top) >> 64 else int(x.sum())
    width = -(-_digits(top) // _LIMB_DIGITS)
    span = 1 << (width - 1).bit_length()
    while x.shape[1] < span:
        scale = _LIMB ** (span // x.shape[1] // 2)
        x = np.stack([x // scale, x % scale], axis=-1).reshape(n, -1)
    return x[:, span - width :].astype(np.uint64), total, top


def _pack(values: np.ndarray, digits: int) -> Decimal:
    """sum_i values[i] * 10^(digits*i) of (n, L) limbs, most significant bucket first in the text."""
    n, width = values.shape
    columns = np.full((n, max(width, -(-digits // _LIMB_DIGITS)), _LIMB_DIGITS), _ZERO, dtype=np.uint8)
    rest = values[::-1]
    for k in range(1, min(digits, _LIMB_DIGITS) + 1):
        rest, digit = np.divmod(rest, 10)
        columns[:, -width:, -k] += digit
    return Decimal(columns.reshape(n, -1)[:, -digits:].tobytes().decode("ascii"))


def _convolve(a: tuple, b: tuple) -> tuple[np.ndarray, int, int]:
    """Cyclic convolution of two limb vectors; a square (b is a) packs once."""
    (x, sum_a, max_a), (y, sum_b, max_b) = a, b
    n, digits = len(x), _digits(min(sum_a * max_b, sum_b * max_a))
    packed = _pack(x, digits)
    product = _EXACT.multiply(packed, packed if b is a else _pack(y, digits))
    # the 2n linear buckets, each padded to whole limbs, then least significant first
    text = np.frombuffer(str(product).zfill(2 * n * digits).encode("ascii"), dtype=np.uint8)
    columns = np.zeros((2 * n, -(-digits // _LIMB_DIGITS), _LIMB_DIGITS), dtype=np.uint8)
    np.subtract(text.reshape(2 * n, digits), _ZERO, out=columns.reshape(2 * n, -1)[:, -digits:])
    linear = np.einsum("rwk,k->rw", columns, _POWERS, dtype=np.uint64)[::-1]
    limbs = linear[:n] + linear[n:]
    while (carry := limbs >= _LIMB).any():  # never out of the top limb: each c[k] < 10^digits
        np.subtract(limbs, _LIMB, out=limbs, where=carry)
        limbs[:, :-1] += carry[:, 1:]
    row = limbs.astype(">u8").view(f"S{8 * limbs.shape[1]}").argmax()
    limbs = limbs[:, np.argmax(limbs[row] > 0) :]  # drop limbs that are zero in every row
    return limbs, sum_a * sum_b, int(_join(limbs[row : row + 1], True)[0])


def cyclic_convolve_exact(
    a: np.ndarray | Sequence[int], b: np.ndarray | Sequence[int], n: int
) -> np.ndarray:
    """Exact cyclic convolution of two length-n vectors of nonnegative ints.

    Accepts bool or integer arrays and int sequences of any size. Returns
    uint64 when every coefficient fits in 64 bits, else Python ints.
    """
    x = _counts(a, n)
    limbs, _, top = _convolve(x, x if b is a else _counts(b, n))
    return _join(limbs, top >> 64)


def cyclic_power_exact(a: np.ndarray | Sequence[int], j: int, n: int) -> np.ndarray:
    """J-fold cyclic self-convolution by binary exponentiation, exact; the
    limbs go from one multiply to the next and become ints once, at the end."""
    if j < 1:
        raise ValueError("exponent must be >= 1")
    base, result = _counts(a, n), None
    while j:
        if j & 1:
            result = base if result is None else _convolve(result, base)
        j >>= 1
        if j:
            base = _convolve(base, base)
    return _join(result[0], result[2] >> 64)
