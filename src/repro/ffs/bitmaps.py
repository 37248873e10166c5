"""Allocation bitmaps for cylinder groups."""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import CorruptionError, InvalidArgumentError


class Bitmap:
    """A fixed-size bitmap with nearest-fit allocation."""

    def __init__(self, nbits: int) -> None:
        if nbits <= 0:
            raise InvalidArgumentError(f"bitmap needs at least one bit: {nbits}")
        self.nbits = nbits
        self._bits = bytearray((nbits + 7) // 8)
        self._free = nbits

    @property
    def free_count(self) -> int:
        return self._free

    @property
    def used_count(self) -> int:
        return self.nbits - self._free

    def _check(self, index: int) -> None:
        if not 0 <= index < self.nbits:
            raise InvalidArgumentError(
                f"bit {index} out of range [0, {self.nbits})"
            )

    def is_set(self, index: int) -> bool:
        self._check(index)
        return bool(self._bits[index // 8] & (1 << (index % 8)))

    def set(self, index: int) -> None:
        self._check(index)
        if self.is_set(index):
            raise CorruptionError(f"double allocation of bit {index}")
        self._bits[index // 8] |= 1 << (index % 8)
        self._free -= 1

    def clear(self, index: int) -> None:
        self._check(index)
        if not self.is_set(index):
            raise CorruptionError(f"double free of bit {index}")
        self._bits[index // 8] &= ~(1 << (index % 8))
        self._free += 1

    def alloc_near(self, hint: int) -> Optional[int]:
        """Allocate the free bit at-or-after ``hint`` (wrapping), if any.

        Scanning forward from the hint is what gives FFS its sequential
        data-block layout for files written in order.
        """
        if self._free == 0:
            return None
        hint = max(0, min(hint, self.nbits - 1))
        for index in self._scan_from(hint):
            if not self.is_set(index):
                self.set(index)
                return index
        raise AssertionError("free count positive but no free bit found")

    def _scan_from(self, start: int) -> Iterator[int]:
        yield from range(start, self.nbits)
        yield from range(0, start)

    def to_bytes(self) -> bytes:
        return bytes(self._bits)

    @classmethod
    def from_bytes(cls, data: bytes, nbits: int) -> "Bitmap":
        bitmap = cls(nbits)
        expected = (nbits + 7) // 8
        if len(data) < expected:
            raise CorruptionError(
                f"bitmap needs {expected} bytes, got {len(data)}"
            )
        bitmap._bits = bytearray(data[:expected])
        # Mask padding bits beyond nbits so the free count is exact.
        extra = expected * 8 - nbits
        if extra:
            bitmap._bits[-1] &= (1 << (8 - extra)) - 1
        bitmap._free = nbits - sum(bin(byte).count("1") for byte in bitmap._bits)
        return bitmap

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self.nbits == other.nbits and self._bits == other._bits

    def __repr__(self) -> str:
        return f"Bitmap({self.used_count}/{self.nbits} used)"
