"""Binary packing helpers for on-disk structures.

The field primitives are precompiled :class:`struct.Struct` instances
(module-level ``U8`` … ``F64``): hot paths with fixed record layouts —
segment-usage entries, inode-map entries, summary headers — compose
these (or their own precompiled record Structs, as inodes and
directory entries do) instead of re-parsing a format string per field.
:class:`Packer`/:class:`Unpacker` stay the convenient field-at-a-time
interface for the rest (the FFS allocator's blocks, ``repro inspect``).

Batch engine
------------

The vectorized hot paths sit next to the scalar primitives:

* :class:`BatchPacker` serializes a whole record stream into one
  **preallocated** buffer with ``pack_into`` — no per-field ``bytes``
  objects, no final ``b"".join`` — and can backfill a CRC slot after
  the body is known; it packs the checkpoint region;
* :func:`checksum_chain` / :func:`segment_checksum` compute CRCs with
  chained ``zlib.crc32`` calls over whole-segment memoryviews instead
  of per-block slices (one C call per span, zero copies);
* :func:`pack_u64_array` / :func:`unpack_u64_array` convert address
  arrays in a single ``struct`` operation.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

from repro.errors import CorruptionError

# Precompiled little-endian field primitives shared by every record.
U8 = struct.Struct("<B")
U16 = struct.Struct("<H")
U32 = struct.Struct("<I")
U64 = struct.Struct("<Q")
F64 = struct.Struct("<d")

Buffer = Union[bytes, bytearray, memoryview]

# ----------------------------------------------------------------------
# Checksums
# ----------------------------------------------------------------------


def checksum(data: Buffer) -> int:
    """32-bit checksum used by summary blocks and checkpoint regions."""
    return zlib.crc32(data) & 0xFFFFFFFF


def checksum_chain(chunks: Iterable[Buffer], value: int = 0) -> int:
    """CRC32 chained across ``chunks`` without concatenating them.

    Equivalent to ``checksum(b"".join(chunks))`` but allocation-free:
    each chunk (bytes or memoryview) feeds one ``zlib.crc32`` call with
    the running value.  Hot callers hand this the header and body views
    of a structure that was never materialized contiguously.
    """
    for chunk in chunks:
        value = zlib.crc32(chunk, value)
    return value & 0xFFFFFFFF


def segment_checksum(data: Buffer, value: int = 0) -> int:
    """CRC over a whole segment (or device image) span in one call.

    The batch replacement for the per-block pattern
    ``for b in blocks: crc = checksum(bytes(seg[b*bs:(b+1)*bs]))`` —
    one chained ``zlib.crc32`` over the whole memoryview, no per-block
    slicing, no copies.  Accepts an initial ``value`` so multi-segment
    scans can chain segment CRCs into an image fingerprint.
    """
    return zlib.crc32(data, value) & 0xFFFFFFFF


# ----------------------------------------------------------------------
# Block padding
# ----------------------------------------------------------------------


def pad_block(data: bytes, block_size: int) -> bytes:
    """Zero-pad ``data`` up to ``block_size`` bytes.

    Already-aligned input is returned unchanged (no copy): callers on
    the write path routinely pass exactly block-sized payloads, and the
    old unconditional ``data + b""`` duplicated every one of them.
    """
    if len(data) > block_size:
        raise ValueError(
            f"data of {len(data)} bytes does not fit a {block_size}-byte block"
        )
    if len(data) == block_size:
        return data
    return data + b"\x00" * (block_size - len(data))


# ----------------------------------------------------------------------
# Scalar field-at-a-time interfaces
# ----------------------------------------------------------------------


class Packer:
    """Appends fixed-width fields and length-prefixed strings."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, value: int) -> "Packer":
        self._parts.append(U8.pack(value))
        return self

    def u16(self, value: int) -> "Packer":
        self._parts.append(U16.pack(value))
        return self

    def u32(self, value: int) -> "Packer":
        self._parts.append(U32.pack(value))
        return self

    def u64(self, value: int) -> "Packer":
        self._parts.append(U64.pack(value))
        return self

    def f64(self, value: float) -> "Packer":
        self._parts.append(F64.pack(value))
        return self

    def raw(self, data: bytes) -> "Packer":
        self._parts.append(data)
        return self

    def string(self, text: str) -> "Packer":
        encoded = text.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"string too long to serialize: {len(encoded)} bytes")
        self.u16(len(encoded))
        self._parts.append(encoded)
        return self

    def bytes(self) -> bytes:
        return b"".join(self._parts)

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts)


class Unpacker:
    """Reads fields written by :class:`Packer`, validating bounds."""

    def __init__(self, data: Buffer, offset: int = 0) -> None:
        self._data = data
        self._offset = offset

    def _take(self, size: int) -> Buffer:
        if self._offset + size > len(self._data):
            raise CorruptionError(
                f"truncated structure: wanted {size} bytes at offset "
                f"{self._offset}, have {len(self._data)}"
            )
        chunk = self._data[self._offset : self._offset + size]
        self._offset += size
        return chunk

    def u8(self) -> int:
        return U8.unpack(self._take(1))[0]

    def u16(self) -> int:
        return U16.unpack(self._take(2))[0]

    def u32(self) -> int:
        return U32.unpack(self._take(4))[0]

    def u64(self) -> int:
        return U64.unpack(self._take(8))[0]

    def f64(self) -> float:
        return F64.unpack(self._take(8))[0]

    def raw(self, size: int) -> Buffer:
        return self._take(size)

    def string(self) -> str:
        length = self.u16()
        # str(buf, "utf-8") accepts any buffer; .decode() would reject
        # the memoryviews the zero-copy read path hands us.
        return str(self._take(length), "utf-8")

    @property
    def offset(self) -> int:
        return self._offset

    def remaining(self) -> int:
        return len(self._data) - self._offset


# ----------------------------------------------------------------------
# Batch interfaces
# ----------------------------------------------------------------------


class BatchPacker:
    """Packs fields straight into a preallocated buffer.

    Where :class:`Packer` builds a list of tiny ``bytes`` objects and
    joins them, this writes every field in place with ``pack_into`` —
    the serialization path allocates nothing beyond the one buffer the
    caller (the checkpoint writer's region-sized bytearray) already
    owns.

    ``skip`` reserves a slot to be backfilled later — the checkpoint's
    CRC field is written *after* the body it covers via
    :meth:`patch_u32`.
    """

    __slots__ = ("_buffer", "_base", "_offset", "_limit")

    def __init__(
        self,
        buffer: Union[bytearray, memoryview],
        offset: int = 0,
        limit: Optional[int] = None,
    ) -> None:
        self._buffer = buffer
        self._base = offset
        self._offset = offset
        self._limit = len(buffer) if limit is None else limit

    def _reserve(self, size: int) -> int:
        offset = self._offset
        if offset + size > self._limit:
            raise ValueError(
                f"batch buffer overflow: wanted {size} bytes at offset "
                f"{offset}, limit {self._limit}"
            )
        self._offset = offset + size
        return offset

    def u8(self, value: int) -> "BatchPacker":
        U8.pack_into(self._buffer, self._reserve(1), value)
        return self

    def u16(self, value: int) -> "BatchPacker":
        U16.pack_into(self._buffer, self._reserve(2), value)
        return self

    def u32(self, value: int) -> "BatchPacker":
        U32.pack_into(self._buffer, self._reserve(4), value)
        return self

    def u64(self, value: int) -> "BatchPacker":
        U64.pack_into(self._buffer, self._reserve(8), value)
        return self

    def f64(self, value: float) -> "BatchPacker":
        F64.pack_into(self._buffer, self._reserve(8), value)
        return self

    def raw(self, data: Buffer) -> "BatchPacker":
        offset = self._reserve(len(data))
        self._buffer[offset : offset + len(data)] = data
        return self

    def string(self, text: str) -> "BatchPacker":
        encoded = text.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"string too long to serialize: {len(encoded)} bytes")
        self.u16(len(encoded))
        return self.raw(encoded)

    def u64_array(self, values: Sequence[int]) -> "BatchPacker":
        """Pack a whole address array in one operation."""
        if not values:
            return self
        offset = self._reserve(8 * len(values))
        self._buffer[offset : offset + 8 * len(values)] = pack_u64_array(values)
        return self

    def skip(self, size: int) -> int:
        """Reserve ``size`` bytes; returns their offset for backfill."""
        return self._reserve(size)

    def patch_u32(self, offset: int, value: int) -> "BatchPacker":
        """Backfill a u32 slot reserved earlier with :meth:`skip`."""
        U32.pack_into(self._buffer, offset, value)
        return self

    def zero_to(self, end: int) -> "BatchPacker":
        """Zero-fill from the current position up to offset ``end``."""
        if end < self._offset or end > self._limit:
            raise ValueError(
                f"cannot zero to {end}: position {self._offset}, "
                f"limit {self._limit}"
            )
        self._buffer[self._offset : end] = bytes(end - self._offset)
        self._offset = end
        return self

    @property
    def offset(self) -> int:
        return self._offset

    def written(self) -> int:
        return self._offset - self._base

    def view(self, start: int, end: int) -> memoryview:
        """Zero-copy window onto the packed bytes (absolute offsets)."""
        view = self._buffer
        if not isinstance(view, memoryview):
            view = memoryview(view)
        return view[start:end]


# ----------------------------------------------------------------------
# u64 array batch paths
# ----------------------------------------------------------------------


def iter_u64(data: Buffer) -> Iterator[int]:
    """Iterate a packed array of little-endian u64 values."""
    if len(data) % 8:
        raise CorruptionError(f"u64 array length {len(data)} not a multiple of 8")
    for (value,) in struct.iter_unpack("<Q", data):
        yield value


def pack_u64_array(values: Sequence[int]) -> bytes:
    """Pack ``values`` as a little-endian u64 array (one call)."""
    return struct.pack(f"<{len(values)}Q", *values)


def unpack_u64_array(data: Buffer) -> Tuple[int, ...]:
    """Unpack a whole little-endian u64 array in one operation."""
    if len(data) % 8:
        raise CorruptionError(f"u64 array length {len(data)} not a multiple of 8")
    count = len(data) // 8
    return struct.unpack(f"<{count}Q", data)
