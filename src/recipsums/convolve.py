"""Exact cyclic convolution via Kronecker substitution.

Each vector of nonnegative integer counts is packed into one big integer,
entry i in bytes [i*w, (i+1)*w); a single integer multiplication then
yields every linear convolution coefficient, with no rounding anywhere.

Bucket bound: a cyclic coefficient c[k] = sum_i a[i]*b[k-i mod n] is at
most sum(a)*max(b) and at most sum(b)*max(a), so at most
B = min(sum(a)*max(b), sum(b)*max(a)). Every linear coefficient is one of
the two parts of a single cyclic coefficient (c[k] = lin[k] + lin[k+n]),
so it is at most B too. With w the byte length of B no bucket reaches
2^(8w), and none can carry into its neighbour. B is computed with Python
ints: a fixed-width numpy sum could wrap and make the buckets too narrow.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

try:
    import gmpy2

    _HAS_GMPY2 = True
except ImportError:  # pragma: no cover
    _HAS_GMPY2 = False


def _bigmul(a: int, b: int) -> int:
    if _HAS_GMPY2 and (a.bit_length() > 8192 or b.bit_length() > 8192):
        return int(gmpy2.mpz(a) * gmpy2.mpz(b))
    return a * b


def _entries(x: np.ndarray | Sequence[int], n: int) -> tuple[np.ndarray, int, int]:
    """x as a uint64 array (object array if an entry needs more than 64
    bits), with its sum and maximum as exact Python ints."""
    values = x.tolist() if isinstance(x, np.ndarray) else [int(v) for v in x]
    if len(values) != n:
        raise ValueError("vectors must have length n")
    if min(values, default=0) < 0:
        raise ValueError("entries must be nonnegative")
    top = max(values, default=0)
    return np.array(values, dtype=np.uint64 if top < 1 << 64 else object), sum(values), top


def _pack(values: np.ndarray, width: int) -> int:
    if width <= 8:
        buckets = values.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :width]
        return int.from_bytes(buckets.tobytes(), "little")
    return int.from_bytes(b"".join(int(v).to_bytes(width, "little") for v in values), "little")


def cyclic_convolve_exact(
    a: np.ndarray | Sequence[int], b: np.ndarray | Sequence[int], n: int
) -> np.ndarray:
    """Exact cyclic convolution of two length-n vectors of nonnegative ints.

    Accepts bool or integer arrays and int sequences; entries may be
    arbitrarily large. Returns a uint64 array when every coefficient fits
    in 64 bits, otherwise an object array of Python ints.
    """
    a, sum_a, max_a = _entries(a, n)
    b, sum_b, max_b = _entries(b, n)
    bound = min(sum_a * max_b, sum_b * max_a)
    if bound == 0:
        return np.zeros(n, dtype=np.uint64)
    width = (bound.bit_length() + 7) // 8
    raw = _bigmul(_pack(a, width), _pack(b, width)).to_bytes(2 * n * width, "little")
    if width <= 8:
        buckets = np.zeros((2 * n, 8), dtype=np.uint8)
        buckets[:, :width] = np.frombuffer(raw, dtype=np.uint8).reshape(2 * n, width)
        linear = buckets.view("<u8").ravel()
        return linear[:n] + linear[n:]
    linear = [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]
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
