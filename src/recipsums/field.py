"""Exact arithmetic in Z/pZ: reciprocal k-th powers and discrete logs.

Residues are plain Python integers reduced to [0, p-1]; intermediate
products never touch floating point. Inversion is intmath.inv_mod, Python's
pow(a, -1, p); Fermat exponentiation is an independent cross-check. The
module owns DENSE_P_MAX, the dense-modulus ceiling up to which the
discrete-log tables are exact in int64.
A field builds its discrete-log tables on first use and keeps them for as
long as it lives: there is no table cache shared across fields.
numpy is imported by dlog_tables only, so the representation layer, which
does not use it, runs without it.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

from .errors import NotInvertible, NotPrime
from .intmath import inv_mod, is_prime

if TYPE_CHECKING:
    import numpy as np

# Products of residues are taken in int64 (the dlog tables, the dense kernels),
# exact only while (p - 1)**2 < 2**63, i.e. p <= isqrt(2**63 - 1) + 1.
DENSE_P_MAX = 3_037_000_500


def require_dense(n: int) -> None:
    """Refuse n > DENSE_P_MAX: after the primality verdict, before any length-n array."""
    if n > DENSE_P_MAX:
        raise ValueError(f"{n} exceeds the dense-modulus ceiling {DENSE_P_MAX}: (p - 1)**2 < 2**63")


class _Value:
    """Fields set once, through vars(self), then compared, hashed and printed
    by value and read-only: a frozen dataclass without importing dataclasses."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__


class PrimeField(_Value):
    """The field Z/pZ for a prime modulus p."""

    _fields = ("p",)

    def __init__(self, p: int) -> None:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        vars(self)["p"] = p

    def recip_power(self, x: int, k: int) -> int:
        """(x**k)^{-1} mod p as an integer, for p not dividing x, k >= 1."""
        if k < 1:
            raise ValueError("power k must be >= 1")
        if x % self.p == 0:
            raise NotInvertible(f"{x} is divisible by {self.p}")
        return inv_mod(pow(x, k, self.p), self.p)

    @cached_property
    def dlog_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(powers, dlog), write-locked: powers[i] = g^i mod p and
        dlog[powers[i]] = i for the primitive root g = primitive_root(p).

        Blocked powers: g^(i+B) = g^B * g^i with the block B doubling each
        round, so O(log p) numpy passes; the int64 products are exact as
        (p - 1)^2 < 2^63 for every p <= DENSE_P_MAX.
        """
        import numpy as np

        p = self.p
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


def primitive_root(p: int) -> int:
    """Smallest primitive root of Z/pZ for a prime p, by deterministic search."""
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
