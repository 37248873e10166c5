"""Directory block format.

A directory is an ordinary file whose data blocks hold packed entries:

    [u32 inum][u16 name_len][name bytes] ...

An entry never spans a block boundary.  ``inum`` is never zero for a live
entry (inode 0 does not exist), and a zero ``inum``/``name_len`` pair —
which is also what freshly zeroed space decodes to — terminates the
block.  The format matches what the paper assumes: directory *contents*
are regular file data, so in LFS a directory update is just another dirty
block headed for the log, while in FFS it is the block the create/delete
path forces synchronously to disk (Figure 1).
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import CorruptionError, InvalidArgumentError

_ENTRY_HEADER = struct.Struct("<IH")
_NAME_LEN = struct.Struct("<H")

ENTRY_HEADER_SIZE = _ENTRY_HEADER.size
"""On-disk bytes of an entry ahead of its name."""

MAX_NAME_LEN = 255
"""Longest permitted file name, in UTF-8 bytes."""


def entry_size(name: str) -> int:
    """On-disk bytes consumed by an entry for ``name``."""
    return ENTRY_HEADER_SIZE + len(name.encode("utf-8"))


def validate_name(name: str) -> bytes:
    """Reject names the directory format cannot hold.

    Returns the name's UTF-8 encoding, which the length check needs and
    which :meth:`DirectoryBlock.add` takes so a caller that validates
    before it mutates anything encodes the name once.
    """
    if not name:
        raise InvalidArgumentError("empty file name")
    if "/" in name:
        raise InvalidArgumentError(f"file name contains '/': {name!r}")
    if name in (".", ".."):
        raise InvalidArgumentError(f"reserved name: {name!r}")
    encoded = name.encode("utf-8")
    if len(encoded) > MAX_NAME_LEN:
        raise InvalidArgumentError(f"file name too long: {name!r}")
    return encoded


def _walk(data, end: int) -> Iterator[Tuple[str, int, int]]:
    """(name, inum, offset just past the entry) for each entry in ``data[:end]``."""
    offset = 0
    while offset + ENTRY_HEADER_SIZE <= end:
        inum, name_len = _ENTRY_HEADER.unpack_from(data, offset)
        if inum == 0 and name_len == 0:
            break
        if inum == 0 or name_len == 0 or name_len > MAX_NAME_LEN:
            raise CorruptionError(
                f"bad directory entry header at offset {offset}: "
                f"inum={inum}, name_len={name_len}"
            )
        offset += ENTRY_HEADER_SIZE
        if offset + name_len > end:
            raise CorruptionError("directory entry name runs off block")
        name = str(data[offset : offset + name_len], "utf-8")
        offset += name_len
        yield name, inum, offset


class DirectoryBlock:
    """One directory data block in its on-disk form, edited in place.

    ``data`` is the block as it goes to disk: ``used`` bytes of packed
    entries, then zeros.  A new entry is packed at ``used``; a removal
    moves what follows the entry down over the gap and zeroes the freed
    tail.  Packed order is therefore insertion order, and the bytes are
    always what packing the surviving entries into a zeroed block would
    give, at a cost proportional to the edit rather than to the block.

    The name index only mirrors the bytes (it is what makes lookup and
    the duplicate check O(1)); ``entries`` walks ``data``, so a checker
    handed a corrupt block still sees a name that occurs twice.
    """

    __slots__ = ("block_size", "data", "used", "_index")

    def __init__(
        self, block_size: int, entries: Iterable[Tuple[str, int]] = ()
    ) -> None:
        self.block_size = block_size
        self.data = bytearray(block_size)
        self.used = 0
        self._index: Dict[str, int] = {}
        for name, inum in entries:
            self.add(name, inum)

    @classmethod
    def decode(cls, data: bytes, block_size: int) -> "DirectoryBlock":
        if len(data) > block_size:
            raise CorruptionError(
                f"directory block of {len(data)} bytes exceeds block size "
                f"{block_size}"
            )
        block = cls(block_size)
        index = block._index
        used = 0
        for name, inum, used in _walk(data, len(data)):
            index[name] = inum
        # Only the entries: whatever follows the terminator is dropped,
        # as re-encoding a decoded entry list always dropped it.
        block.data[:used] = data[:used]
        block.used = used
        return block

    def encode(self) -> bytes:
        return bytes(self.data)

    @property
    def entries(self) -> List[Tuple[str, int]]:
        """(name, inum) in packed order, decoded from the bytes."""
        return [(name, inum) for name, inum, _ in _walk(self.data, self.used)]

    def free_bytes(self) -> int:
        return self.block_size - self.used

    def has_room_for(self, name: str) -> bool:
        return self.free_bytes() >= entry_size(name)

    def lookup(self, name: str) -> Optional[int]:
        return self._index.get(name)

    def add(self, name: str, inum: int, encoded: Optional[bytes] = None) -> None:
        """Append an entry; ``encoded`` is ``validate_name(name)`` if known."""
        if encoded is None:
            encoded = validate_name(name)
        if inum <= 0:
            raise InvalidArgumentError(f"bad inode number for {name!r}: {inum}")
        if name in self._index:
            raise InvalidArgumentError(f"entry {name!r} already in block")
        start = self.used
        end = start + ENTRY_HEADER_SIZE + len(encoded)
        if end > self.block_size:
            raise InvalidArgumentError(f"no room in block for entry {name!r}")
        _ENTRY_HEADER.pack_into(self.data, start, inum, len(encoded))
        self.data[start + ENTRY_HEADER_SIZE : end] = encoded
        self.used = end
        self._index[name] = inum

    def remove(self, name: str) -> int:
        """Remove the entry for ``name``; returns its inode number."""
        inum = self._index.pop(name, None)
        if inum is None:
            raise InvalidArgumentError(f"no entry named {name!r} in block")
        encoded = name.encode("utf-8")
        data, used = self.data, self.used
        # Find the entry by searching for its length-prefixed name (two
        # memchr-speed scans) instead of walking the entries before it.
        # A single occurrence can only be the entry itself.  Several
        # mean a corrupt block holding the name twice, or a name whose
        # bytes spell out another entry's: walk, and take the last, the
        # one the index named.
        needle = _NAME_LEN.pack(len(encoded)) + encoded
        found = data.find(needle, 0, used)
        unique = found == data.rfind(needle, 0, used)
        if unique:
            end = found + len(needle)
        else:
            end = max(
                past for entry, _, past in _walk(data, used) if entry == name
            )
        size = ENTRY_HEADER_SIZE + len(encoded)
        data[end - size : used - size] = data[end:used]
        data[used - size : used] = bytes(size)
        self.used = used - size
        if not unique:
            self._index = {
                entry: child for entry, child, _ in _walk(data, self.used)
            }
        return inum

    def as_dict(self) -> Dict[str, int]:
        return dict(self._index)
