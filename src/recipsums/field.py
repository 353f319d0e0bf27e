"""Exact arithmetic in Z/pZ: reciprocal k-th powers and discrete logs.

Residues are plain Python integers reduced to [0, p-1]; intermediate
products never touch floating point. Inversion is intmath.inv_mod, Python's
pow(a, -1, p); Fermat exponentiation is an independent cross-check. The
module owns DENSE_P_MAX, the dense-modulus ceiling up to which the
discrete-log tables are exact in int64.
A field builds its discrete-log tables on first use and keeps them for as
long as it lives: there is no table cache shared across fields.
The module also holds the read-only value class of the package and the
forms of a set of residues that the pure-Python kernels share: a bitmap
(bit r stands for residue r), its ascending members and its byte flags.
Nothing here imports numpy but dlog_tables, which the numpy kernels call.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
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
    by value and read-only: a frozen dataclass without importing dataclasses.
    The fields are _fields, or else those annotated in the class body; the
    default constructor takes them as a dataclass does, with class attributes
    as defaults."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = vars(cls).get("_fields") or tuple(vars(cls).get("__annotations__", ()))

    def __init__(self, *args, **kwargs) -> None:
        names, cls = self._fields, type(self)
        given = {**{n: getattr(cls, n) for n in names if hasattr(cls, n)}, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or given.keys() != set(names) or kwargs.keys() & set(names[: len(args)]):
            raise TypeError(f"{cls.__name__} takes each of the fields {', '.join(names)} once")
        vars(self).update({n: given[n] for n in names})

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


# A 0/1 flag as the binary digit it stands for, or as the digit of its
# complement, and back; a byte as whether it is nonzero.
_ONE_TO_ONE = bytes.maketrans(b"\x00\x01", b"01")
_ZERO_TO_ONE = bytes.maketrans(b"\x00\x01", b"10")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_NONZERO = bytes([0] + [1] * 255)


def _bits(residues, p: int) -> int:
    """The bitmap of some residues: bit r stands for residue r."""
    packed = bytearray((p + 7) >> 3)
    for r in residues:
        packed[r >> 3] |= 1 << (r & 7)
    return int.from_bytes(packed, "little")


def _members(bits: int, p: int) -> list[int]:
    """The residues of a bitmap, ascending. C code lists the flags of a dense
    bitmap, or finds the nonzero bytes of a sparse one."""
    if bits.bit_count() > p >> 5:
        return list(compress(range(p), _flags(bits, p)))
    packed = bits.to_bytes((p + 7) >> 3, "little")
    nonzero = packed.translate(_NONZERO)
    out: list[int] = []
    i = nonzero.find(1)
    while i >= 0:
        byte, r = packed[i], i << 3
        while byte:
            low = byte & -byte
            out.append(r + low.bit_length() - 1)
            byte ^= low
        i = nonzero.find(1, i + 1)
    return out


def _flags(bits: int, p: int) -> bytearray:
    """The flags of a bitmap, one byte per residue, from its binary digits."""
    return bytearray(bin(bits)[:1:-1], "ascii").ljust(p, b"0").translate(_FROM_DIGITS)


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
