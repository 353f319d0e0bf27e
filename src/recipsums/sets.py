"""Subsets of Z/pZ as read-only values over a Python-int bitmap: bit r stands
for residue r. The constructor also packs a 0/1 vector of length p, as the
numpy kernels give, and only that and the vector forms import numpy."""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import FieldMismatch
from .field import PrimeField, _bits, _members, _Value, require_dense

if TYPE_CHECKING:
    import numpy as np


class ResidueSet(_Value):
    """An immutable subset of Z/pZ with cached cardinality."""

    _fields = ("field", "bits")

    def __init__(self, field: PrimeField, bits: int | np.ndarray) -> None:
        if not isinstance(bits, int):  # a 0/1 vector: its nonzero entries are the members
            import numpy as np

            if np.shape(bits) != (field.p,):
                raise ValueError(f"characteristic vector must have length {field.p}")
            bits = int.from_bytes(np.packbits(np.asarray(bits, dtype=bool), bitorder="little").tobytes(), "little")
        elif bits < 0 or bits.bit_length() > field.p:
            raise ValueError(f"bitmap must hold residues below {field.p} only")
        vars(self).update(field=field, bits=bits)

    @cached_property
    def card(self) -> int:
        return self.bits.bit_count()

    @classmethod
    def from_members(cls, field: PrimeField, members: Iterable[int]) -> "ResidueSet":
        require_dense(field.p)
        return cls(field, _bits((int(m) % field.p for m in members), field.p))

    @classmethod
    def empty(cls, field: PrimeField) -> "ResidueSet":
        return cls(field, 0)

    @classmethod
    def full(cls, field: PrimeField) -> "ResidueSet":
        return cls(field, (1 << field.p) - 1)

    def _vector(self) -> np.ndarray:
        """The characteristic vector, as bool of length p."""
        import numpy as np

        packed = np.frombuffer(self.bits.to_bytes((self.field.p + 7) >> 3, "little"), dtype=np.uint8)
        return np.unpackbits(packed, count=self.field.p, bitorder="little").view(bool)

    def members(self) -> np.ndarray:
        """Member residues in ascending order, as an int64 array."""
        import numpy as np

        return np.flatnonzero(self._vector()).astype(np.int64)

    def to_list(self) -> list[int]:
        return _members(self.bits, self.field.p)

    def __contains__(self, value: int) -> bool:
        return bool(self.bits >> value % self.field.p & 1)

    def __len__(self) -> int:
        return self.card

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_list())

    def __repr__(self) -> str:
        if self.card <= 12:
            return f"ResidueSet(p={self.field.p}, {{{', '.join(map(str, self.to_list()))}}})"
        return f"ResidueSet(p={self.field.p}, card={self.card})"


def require_same_field(a: ResidueSet, b: ResidueSet) -> PrimeField:
    if a.field != b.field:
        raise FieldMismatch(f"sets over different fields: p={a.field.p} vs p={b.field.p}")
    return a.field
