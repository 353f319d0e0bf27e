"""Dense subsets of Z/pZ backed by a boolean characteristic vector, which
the one constructor copies and write-locks, so no caller can change a set."""

from __future__ import annotations

import dataclasses
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import FieldMismatch
from .field import PrimeField, require_dense


@dataclasses.dataclass(frozen=True)
class ResidueSet:
    """An immutable subset of Z/pZ with cached cardinality.

    The characteristic vector has length exactly p and is write-locked
    after construction; all set operations allocate fresh results.
    """

    field: PrimeField
    bits: np.ndarray
    # expsums.pair_product_multiplicity and expsums.f_profile of the set, once computed.
    _pair_products: np.ndarray | None = dataclasses.field(default=None, init=False, repr=False)
    _f_profile: np.ndarray | None = dataclasses.field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        # np.array always copies, so the caller keeps no handle on the bitmap.
        bits = np.array(self.bits, dtype=bool)
        if bits.shape != (self.field.p,):
            raise ValueError(f"characteristic vector must be bool of length {self.field.p}")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    @cached_property
    def card(self) -> int:
        return int(self.bits.sum())

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
        return cls(field, bits)

    @classmethod
    def empty(cls, field: PrimeField) -> "ResidueSet":
        return cls(field, np.zeros(field.p, dtype=bool))

    @classmethod
    def full(cls, field: PrimeField) -> "ResidueSet":
        return cls(field, np.ones(field.p, dtype=bool))

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
