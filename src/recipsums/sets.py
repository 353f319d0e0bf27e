"""Dense subsets of Z/pZ backed by a boolean characteristic vector."""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .errors import FieldMismatch
from .field import PrimeField


# Dense kernels multiply two residues in int64 (growth.productset_naive),
# which is exact only while (p - 1)**2 < 2**63, i.e. p <= isqrt(2**63 - 1) + 1.
DENSE_P_MAX = 3_037_000_500


def require_dense(n: int) -> None:
    """Refuse n > DENSE_P_MAX: after the primality verdict, before any length-n array."""
    if n > DENSE_P_MAX:
        raise ValueError(f"{n} exceeds the dense-modulus ceiling {DENSE_P_MAX}: (p - 1)**2 < 2**63")


class ResidueSet:
    """An immutable subset of Z/pZ with cached cardinality.

    The characteristic vector has length exactly p and is write-locked
    after construction; all set operations allocate fresh results.
    """

    __slots__ = ("field", "bits", "card")

    def __init__(self, field: PrimeField, bits: np.ndarray):
        # np.array always copies, so the caller keeps no handle on the bitmap.
        self._lock(field, np.array(bits, dtype=bool))

    @classmethod
    def _adopt(cls, field: PrimeField, bits: np.ndarray) -> "ResidueSet":
        """Wrap a fresh bool bitmap that no one else holds, without a copy."""
        self = cls.__new__(cls)
        self._lock(field, bits)
        return self

    def _lock(self, field: PrimeField, bits: np.ndarray) -> None:
        if bits.dtype != bool or bits.shape != (field.p,):
            raise ValueError(f"characteristic vector must be bool of length {field.p}")
        bits.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "card", int(bits.sum()))

    def __setattr__(self, name, value):
        raise AttributeError("ResidueSet is immutable")

    @classmethod
    def from_members(cls, field: PrimeField, members: Iterable[int]) -> "ResidueSet":
        require_dense(field.p)
        bits = np.zeros(field.p, dtype=bool)
        if isinstance(members, np.ndarray) and members.dtype.kind in "iu":
            idx = members % field.p
        else:
            idx = np.fromiter((m % field.p for m in members), dtype=np.int64, count=-1)
        if idx.size:
            bits[idx] = True
        return cls._adopt(field, bits)

    @classmethod
    def empty(cls, field: PrimeField) -> "ResidueSet":
        return cls._adopt(field, np.zeros(field.p, dtype=bool))

    @classmethod
    def full(cls, field: PrimeField) -> "ResidueSet":
        return cls._adopt(field, np.ones(field.p, dtype=bool))

    def members(self) -> np.ndarray:
        """Member residues in ascending order, as an int64 array."""
        return np.flatnonzero(self.bits).astype(np.int64)

    def to_list(self) -> list[int]:
        return [int(m) for m in np.flatnonzero(self.bits)]

    def __contains__(self, value: int) -> bool:
        return bool(self.bits[value % self.field.p])

    def __len__(self) -> int:
        return self.card

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_list())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResidueSet):
            return NotImplemented
        return self.field == other.field and bool(np.array_equal(self.bits, other.bits))

    def __hash__(self):
        return hash((self.field.p, self.bits.tobytes()))

    def __repr__(self) -> str:
        if self.card <= 12:
            return f"ResidueSet(p={self.field.p}, {{{', '.join(map(str, self.to_list()))}}})"
        return f"ResidueSet(p={self.field.p}, card={self.card})"


def require_same_field(a: ResidueSet, b: ResidueSet) -> PrimeField:
    if a.field != b.field:
        raise FieldMismatch(f"sets over different fields: p={a.field.p} vs p={b.field.p}")
    return a.field
