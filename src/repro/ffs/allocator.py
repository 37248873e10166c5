"""Cylinder-group allocation (McKusick-style placement policy).

* New directories spread across cylinder groups (the group with the
  most free inodes), so unrelated directories land far apart — this is
  why the paper's Figure 1 shows the two creates seeking between groups.
* A file's inode goes in its parent directory's group.
* Data blocks go in the file's group, scanning forward from the
  previous block for sequential layout; every ``maxbpg`` logical blocks
  a large file is forced into the next group, FFS's policy to stop one
  file from filling a group.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.common.serialization import Packer, Unpacker, checksum
from repro.errors import CorruptionError, NoInodesError, NoSpaceError
from repro.ffs.bitmaps import Bitmap
from repro.ffs.config import FfsConfig, FfsLayout

CG_MAGIC = 0x46_46_4347  # "FFCG"


class CylinderGroup:
    """In-memory state of one cylinder group's bitmaps."""

    def __init__(self, config: FfsConfig, index: int) -> None:
        self.config = config
        self.index = index
        self.inodes = Bitmap(config.inodes_per_cg)
        self.blocks = Bitmap(config.data_blocks_per_cg)

    def pack(self) -> bytes:
        body = (
            Packer()
            .u32(self.index)
            .u32(self.inodes.nbits)
            .u32(self.blocks.nbits)
            .raw(self.inodes.to_bytes())
            .raw(self.blocks.to_bytes())
            .bytes()
        )
        header = Packer().u32(CG_MAGIC).u32(checksum(body))
        data = header.bytes() + body
        return data + b"\x00" * (self.config.block_size - len(data))

    @classmethod
    def unpack(cls, config: FfsConfig, data: bytes) -> "CylinderGroup":
        unpacker = Unpacker(data)
        magic = unpacker.u32()
        if magic != CG_MAGIC:
            raise CorruptionError(f"bad cylinder group magic 0x{magic:08x}")
        crc = unpacker.u32()
        start = unpacker.offset
        index = unpacker.u32()
        n_inodes = unpacker.u32()
        n_blocks = unpacker.u32()
        inode_bytes = unpacker.raw((n_inodes + 7) // 8)
        block_bytes = unpacker.raw((n_blocks + 7) // 8)
        if checksum(data[start : unpacker.offset]) != crc:
            raise CorruptionError(f"cylinder group {index} checksum mismatch")
        group = cls(config, index)
        if n_inodes != group.inodes.nbits or n_blocks != group.blocks.nbits:
            raise CorruptionError(
                f"cylinder group {index} bitmap sizes do not match config"
            )
        group.inodes = Bitmap.from_bytes(inode_bytes, n_inodes)
        group.blocks = Bitmap.from_bytes(block_bytes, n_blocks)
        return group


class Allocator:
    """Inode and data-block allocation over all cylinder groups."""

    def __init__(self, config: FfsConfig, layout: FfsLayout) -> None:
        self.config = config
        self.layout = layout
        self.groups: List[CylinderGroup] = [
            CylinderGroup(config, cg) for cg in range(layout.num_groups)
        ]
        self.dirty_groups: Set[int] = set()
        # Inode number 0 is reserved (never a valid directory entry).
        self.groups[0].inodes.set(0)
        self.dirty_groups.add(0)

    # ------------------------------------------------------------------
    # Inodes
    # ------------------------------------------------------------------

    def alloc_inode(self, is_dir: bool, parent_cg: int) -> int:
        if is_dir:
            order = sorted(
                range(len(self.groups)),
                key=lambda cg: (-self.groups[cg].inodes.free_count, cg),
            )
        else:
            order = [
                (parent_cg + i) % len(self.groups)
                for i in range(len(self.groups))
            ]
        for cg in order:
            group = self.groups[cg]
            if group.inodes.free_count == 0:
                continue
            idx = group.inodes.alloc_near(0)
            assert idx is not None
            self.dirty_groups.add(cg)
            return cg * self.config.inodes_per_cg + idx
        raise NoInodesError("no free inodes in any cylinder group")

    def free_inode(self, inum: int) -> None:
        cg = self.layout.cg_of_inum(inum)
        self.groups[cg].inodes.clear(inum % self.config.inodes_per_cg)
        self.dirty_groups.add(cg)

    # ------------------------------------------------------------------
    # Data blocks
    # ------------------------------------------------------------------

    def alloc_data_block(
        self, preferred_cg: int, hint_addr: Optional[int]
    ) -> int:
        """Allocate a data block, preferring to continue after the hint."""
        start_cg = preferred_cg % len(self.groups)
        hint_index = 0
        if hint_addr is not None:
            try:
                hint_cg, hint_within = self.layout.data_index(hint_addr)
            except Exception:
                hint_cg, hint_within = start_cg, -1
            # Continue after the previous block only while it lies in
            # the preferred group; once maxbpg moves the preference on,
            # the sequential hint must not drag the file back.
            if (
                hint_cg == start_cg
                and self.groups[hint_cg].blocks.free_count
            ):
                hint_index = hint_within + 1
        for step in range(len(self.groups)):
            cg = (start_cg + step) % len(self.groups)
            group = self.groups[cg]
            if group.blocks.free_count == 0:
                continue
            index = group.blocks.alloc_near(hint_index if step == 0 else 0)
            assert index is not None
            self.dirty_groups.add(cg)
            return self.layout.data_start(cg) + index
        raise NoSpaceError("no free data blocks in any cylinder group")

    def preferred_cg_for(self, inode_cg: int, lbn: int) -> int:
        """Large files change groups every ``maxbpg`` blocks."""
        return (inode_cg + lbn // self.config.maxbpg) % len(self.groups)

    def free_data_block(self, addr: int) -> None:
        cg, index = self.layout.data_index(addr)
        self.groups[cg].blocks.clear(index)
        self.dirty_groups.add(cg)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def free_blocks(self) -> int:
        return sum(group.blocks.free_count for group in self.groups)

    def free_inodes(self) -> int:
        return sum(group.inodes.free_count for group in self.groups)

    def take_dirty_groups(self) -> List[int]:
        dirty = sorted(self.dirty_groups)
        self.dirty_groups.clear()
        return dirty
