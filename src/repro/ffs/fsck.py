"""File system check for the FFS baseline.

This is the recovery path the paper holds against LFS (§4.4): "the UNIX
file system ... must scan the entire disk after a crash to repair
damage".  The scan reads every inode-table block and every indirect
block of every file, rebuilds both bitmaps, walks the directory tree,
removes directory entries that point at unallocated inodes, reattaches
orphaned inodes under ``/lost+found``, fixes link counts, and writes the
repaired metadata back.  Its running time therefore grows with the file
system size — the property the recovery benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.common.directory import DirectoryBlock
from repro.common.inode import (
    FileType,
    Inode,
    INODE_SIZE,
    N_DIRECT,
    NIL,
    pointers_per_block,
)
from repro.common.serialization import iter_u64, pack_u64_array
from repro.disk.sim_disk import SimDisk
from repro.errors import CorruptionError, FsckError
from repro.ffs.allocator import CylinderGroup
from repro.ffs.bitmaps import Bitmap
from repro.ffs.config import FfsConfig, FfsLayout
from repro.ffs.filesystem import FfsSuperBlock
from repro.vfs.base import ROOT_INUM


@dataclass
class FsckReport:
    """What the scan examined and repaired."""

    duration_seconds: float = 0.0
    bytes_read: int = 0
    inodes_scanned: int = 0
    allocated_inodes: int = 0
    blocks_referenced: int = 0
    dangling_entries_removed: int = 0
    orphans_reattached: int = 0
    orphans_cleared: int = 0
    duplicate_blocks_cleared: int = 0
    nlink_repairs: int = 0
    bitmap_repairs: int = 0
    clean: bool = True

    def repairs(self) -> int:
        return (
            self.dangling_entries_removed
            + self.orphans_reattached
            + self.orphans_cleared
            + self.duplicate_blocks_cleared
            + self.nlink_repairs
            + self.bitmap_repairs
        )


class _Fsck:
    """One fsck run over a raw device image."""

    def __init__(self, disk: SimDisk, config: Optional[FfsConfig]) -> None:
        self.disk = disk
        raw = disk.read(0, 16, label="fsck superblock")
        superblock = FfsSuperBlock.unpack(raw)
        base = config or FfsConfig()
        self.config = FfsConfig(
            block_size=superblock.block_size,
            cg_bytes=superblock.cg_bytes,
            inodes_per_cg=superblock.inodes_per_cg,
            maxbpg=superblock.maxbpg,
            cache_bytes=base.cache_bytes,
            writeback=base.writeback,
        )
        self.layout = FfsLayout.for_device(
            self.config, disk.device.total_bytes
        )
        self.report = FsckReport()
        self.inodes: Dict[int, Inode] = {}
        self.block_owner: Dict[int, int] = {}
        self.inode_bitmap = Bitmap(self.layout.max_inodes)
        self.block_bitmaps: List[Bitmap] = [
            Bitmap(self.config.data_blocks_per_cg)
            for _ in range(self.layout.num_groups)
        ]
        self._dirty_inodes: Set[int] = set()

    # -- raw block I/O --------------------------------------------------

    def _read_block(self, addr: int, label: str) -> bytes:
        spb = self.config.sectors_per_block
        data = self.disk.read(addr * spb, spb, label=label)
        self.report.bytes_read += len(data)
        return data

    def _write_block(self, addr: int, data: bytes, label: str) -> None:
        spb = self.config.sectors_per_block
        if len(data) < self.config.block_size:
            data = b"".join(
                (data, bytes(self.config.block_size - len(data)))
            )
        self.disk.write(addr * spb, data, sync=True, label=label)

    # -- phase 1: scan every inode ----------------------------------------

    def scan_inodes(self) -> None:
        for cg in range(self.layout.num_groups):
            for within in range(self.config.inode_table_blocks):
                table_index = cg * self.config.inode_table_blocks + within
                addr = self.layout.inode_table_block_addr(table_index)
                raw = self._read_block(addr, f"fsck inode table {table_index}")
                for inum in self.layout.inums_of_table_block(table_index):
                    self.report.inodes_scanned += 1
                    _addr, slot = self.layout.inode_location(inum)
                    chunk = raw[slot * INODE_SIZE : (slot + 1) * INODE_SIZE]
                    if not any(chunk):  # all-zero slot; works on memoryviews
                        continue
                    try:
                        inode = Inode.unpack(chunk)
                    except CorruptionError:
                        continue
                    if inode.inum != inum or not inode.is_allocated:
                        continue
                    self.inodes[inum] = inode
                    self.report.allocated_inodes += 1

    # -- phase 2: claim every referenced block ------------------------------

    def _claim(self, addr: int, inum: int) -> bool:
        """Record that ``inum`` uses ``addr``; False on double allocation."""
        if addr in self.block_owner:
            self.report.duplicate_blocks_cleared += 1
            return False
        try:
            cg, index = self.layout.data_index(addr)
        except Exception:
            self.report.duplicate_blocks_cleared += 1
            return False
        self.block_owner[addr] = inum
        self.block_bitmaps[cg].set(index)
        self.report.blocks_referenced += 1
        return True

    def check_blocks(self) -> None:
        for inum, inode in sorted(self.inodes.items()):
            self.inode_bitmap.set(inum)
            for slot in range(N_DIRECT):
                if inode.direct[slot] != NIL and not self._claim(
                    inode.direct[slot], inum
                ):
                    inode.direct[slot] = NIL
                    self._dirty_inodes.add(inum)
            if inode.indirect != NIL:
                self._check_indirect(inode, "indirect")
            if inode.dindirect != NIL:
                self._check_dindirect(inode)

    def _read_pointers(self, addr: int) -> List[int]:
        raw = self._read_block(addr, "fsck indirect block")
        return list(iter_u64(raw))

    def _check_indirect(self, inode: Inode, which: str) -> None:
        addr = inode.indirect
        if not self._claim(addr, inode.inum):
            inode.indirect = NIL
            self._dirty_inodes.add(inode.inum)
            return
        pointers = self._read_pointers(addr)
        changed = False
        for i, ptr in enumerate(pointers):
            if ptr != NIL and not self._claim(ptr, inode.inum):
                pointers[i] = NIL
                changed = True
        if changed:
            self._write_block(
                addr, pack_u64_array(pointers), "fsck repaired indirect"
            )

    def _check_dindirect(self, inode: Inode) -> None:
        addr = inode.dindirect
        if not self._claim(addr, inode.inum):
            inode.dindirect = NIL
            self._dirty_inodes.add(inode.inum)
            return
        roots = self._read_pointers(addr)
        root_changed = False
        for i, leaf_addr in enumerate(roots):
            if leaf_addr == NIL:
                continue
            if not self._claim(leaf_addr, inode.inum):
                roots[i] = NIL
                root_changed = True
                continue
            leaves = self._read_pointers(leaf_addr)
            changed = False
            for j, ptr in enumerate(leaves):
                if ptr != NIL and not self._claim(ptr, inode.inum):
                    leaves[j] = NIL
                    changed = True
            if changed:
                self._write_block(
                    leaf_addr, pack_u64_array(leaves), "fsck repaired indirect"
                )
        if root_changed:
            self._write_block(
                addr, pack_u64_array(roots), "fsck repaired dindirect"
            )

    # -- phase 3: directory walk ------------------------------------------

    def _read_dir_entries(
        self, inode: Inode
    ) -> List[Tuple[int, DirectoryBlock]]:
        """(lbn, decoded block) for each directory data block."""
        bs = self.config.block_size
        result = []
        for lbn in range(inode.nblocks(bs)):
            addr = self._block_of(inode, lbn)
            if addr == NIL:
                continue
            raw = self._read_block(addr, f"fsck dir {inode.inum} block {lbn}")
            try:
                result.append((lbn, DirectoryBlock.decode(raw, bs)))
            except CorruptionError:
                self.report.clean = False
        return result

    def _block_of(self, inode: Inode, lbn: int) -> int:
        """Pointer lookup against the (already repaired) inode."""
        ppb = pointers_per_block(self.config.block_size)
        if lbn < N_DIRECT:
            return inode.direct[lbn]
        lbn -= N_DIRECT
        if lbn < ppb:
            if inode.indirect == NIL:
                return NIL
            return self._read_pointers(inode.indirect)[lbn]
        lbn -= ppb
        if inode.dindirect == NIL:
            return NIL
        roots = self._read_pointers(inode.dindirect)
        leaf_addr = roots[lbn // ppb]
        if leaf_addr == NIL:
            return NIL
        return self._read_pointers(leaf_addr)[lbn % ppb]

    def walk_tree(self) -> Tuple[Set[int], Dict[int, int]]:
        """Breadth-first walk from the root; repairs dangling entries.

        Returns (reachable inums, observed link counts).
        """
        if ROOT_INUM not in self.inodes:
            raise FsckError("root inode missing: file system unrecoverable")
        reachable: Set[int] = {ROOT_INUM}
        links: Dict[int, int] = {ROOT_INUM: 2}
        queue = [ROOT_INUM]
        while queue:
            dir_inum = queue.pop(0)
            dir_inode = self.inodes[dir_inum]
            for lbn, block in self._read_dir_entries(dir_inode):
                changed = False
                for name, child in block.entries:
                    child_inode = self.inodes.get(child)
                    if child_inode is None:
                        block.remove(name)
                        self.report.dangling_entries_removed += 1
                        changed = True
                        continue
                    links[child] = links.get(child, 0) + 1
                    if child not in reachable:
                        reachable.add(child)
                        if child_inode.is_dir:
                            links[child] = links.get(child, 0) + 1
                            links[dir_inum] = links.get(dir_inum, 0) + 1
                            queue.append(child)
                if changed:
                    addr = self._block_of(dir_inode, lbn)
                    self._write_block(
                        addr, block.encode(), f"fsck repaired dir {dir_inum}"
                    )
        return reachable, links

    # -- phase 4: orphans ----------------------------------------------

    def handle_orphans(self, reachable: Set[int], links: Dict[int, int]) -> None:
        orphans = sorted(set(self.inodes) - reachable)
        if not orphans:
            return
        lost_found = self._ensure_lost_found(links)
        if lost_found is None:
            for inum in orphans:
                self.inodes.pop(inum)
                self.inode_bitmap.clear(inum)
                self.report.orphans_cleared += 1
            return
        dir_inode = self.inodes[lost_found]
        entries = [(f"#{inum}", inum) for inum in orphans]
        self._append_dir_entries(dir_inode, entries, links)
        for inum in orphans:
            links[inum] = links.get(inum, 0) + 1
            if self.inodes[inum].is_dir:
                links[inum] += 1  # its implicit ".."
                links[lost_found] = links.get(lost_found, 0) + 1
            self.report.orphans_reattached += 1

    def _ensure_lost_found(self, links: Dict[int, int]) -> Optional[int]:
        root = self.inodes[ROOT_INUM]
        for _lbn, block in self._read_dir_entries(root):
            child = block.lookup("lost+found")
            if child is not None and child in self.inodes:
                return child
        # Create it: a fresh inode plus a root directory entry.
        free = next(
            (
                inum
                for inum in range(ROOT_INUM + 1, self.layout.max_inodes)
                if not self.inode_bitmap.is_set(inum)
            ),
            None,
        )
        if free is None:
            return None
        inode = Inode(inum=free, ftype=FileType.DIRECTORY, nlink=2)
        self.inodes[free] = inode
        self.inode_bitmap.set(free)
        self._dirty_inodes.add(free)
        links[free] = 2
        if not self._append_dir_entries(root, [("lost+found", free)], links):
            self.inodes.pop(free)
            self.inode_bitmap.clear(free)
            self._dirty_inodes.discard(free)
            return None
        links[ROOT_INUM] = links.get(ROOT_INUM, 0) + 1
        return free

    def _append_dir_entries(
        self,
        dir_inode: Inode,
        entries: List[Tuple[str, int]],
        links: Dict[int, int],
    ) -> bool:
        """Append entries to a directory, growing it if needed."""
        bs = self.config.block_size
        pending = list(entries)
        for lbn, block in self._read_dir_entries(dir_inode):
            changed = False
            while pending and block.has_room_for(pending[0][0]):
                name, inum = pending.pop(0)
                block.add(name, inum)
                changed = True
            if changed:
                self._write_block(
                    self._block_of(dir_inode, lbn),
                    block.encode(),
                    f"fsck extended dir {dir_inode.inum}",
                )
            if not pending:
                return True
        while pending:
            # Grow the directory by one block.
            lbn = dir_inode.nblocks(bs)
            if lbn >= N_DIRECT:
                return False  # keep fsck's repair surface simple
            addr = self._alloc_block(dir_inode.inum)
            if addr is None:
                return False
            block = DirectoryBlock(bs)
            while pending and block.has_room_for(pending[0][0]):
                name, inum = pending.pop(0)
                block.add(name, inum)
            dir_inode.direct[lbn] = addr
            dir_inode.size = (lbn + 1) * bs
            self._dirty_inodes.add(dir_inode.inum)
            self._write_block(
                addr, block.encode(), f"fsck grew dir {dir_inode.inum}"
            )
        return True

    def _alloc_block(self, inum: int) -> Optional[int]:
        for cg, bitmap in enumerate(self.block_bitmaps):
            if bitmap.free_count:
                index = bitmap.alloc_near(0)
                assert index is not None
                addr = self.layout.data_start(cg) + index
                self.block_owner[addr] = inum
                return addr
        return None

    # -- phase 5: link counts and write-back ------------------------------

    def fix_links(self, links: Dict[int, int]) -> None:
        for inum, inode in self.inodes.items():
            expected = links.get(inum, 0)
            if inode.nlink != expected:
                inode.nlink = expected
                self._dirty_inodes.add(inum)
                self.report.nlink_repairs += 1

    def write_back(self) -> None:
        # Repaired inodes, grouped per table block.
        by_table: Dict[int, List[int]] = {}
        for inum in self._dirty_inodes:
            by_table.setdefault(
                self.layout.inode_table_block_index(inum), []
            ).append(inum)
        for table_index, inums in sorted(by_table.items()):
            addr = self.layout.inode_table_block_addr(table_index)
            raw = bytearray(self._read_block(addr, "fsck inode writeback"))
            for inum in inums:
                _addr, slot = self.layout.inode_location(inum)
                inode = self.inodes.get(inum)
                packed = (
                    inode.pack()
                    if inode is not None
                    else Inode(inum=inum, ftype=FileType.FREE).pack()
                )
                raw[slot * INODE_SIZE : (slot + 1) * INODE_SIZE] = packed
            self._write_block(addr, bytes(raw), "fsck inode writeback")
        # Rebuilt cylinder-group bitmaps.
        for cg in range(self.layout.num_groups):
            group = CylinderGroup(self.config, cg)
            first = cg * self.config.inodes_per_cg
            for within in range(self.config.inodes_per_cg):
                if self.inode_bitmap.is_set(first + within):
                    group.inodes.set(within)
            if cg == 0 and not group.inodes.is_set(0):
                group.inodes.set(0)  # reserved inode 0
            group.blocks = self.block_bitmaps[cg]
            on_disk = self._read_block(
                self.layout.cg_header_addr(cg), f"fsck cg header {cg}"
            )
            try:
                existing = CylinderGroup.unpack(self.config, on_disk)
                matches = (
                    existing.inodes == group.inodes
                    and existing.blocks == group.blocks
                )
            except CorruptionError:
                matches = False
            if not matches:
                self.report.bitmap_repairs += 1
                self._write_block(
                    self.layout.cg_header_addr(cg),
                    group.pack(),
                    f"fsck cg header {cg}",
                )

    def run(self) -> FsckReport:
        start = self.disk.clock.now()
        self.scan_inodes()
        self.check_blocks()
        reachable, links = self.walk_tree()
        self.handle_orphans(reachable, links)
        self.fix_links(links)
        self.write_back()
        self.disk.drain()
        self.report.duration_seconds = self.disk.clock.now() - start
        self.report.clean = self.report.clean and self.report.repairs() == 0
        return self.report


def fsck(disk: SimDisk, config: Optional[FfsConfig] = None) -> FsckReport:
    """Check and repair an FFS image in place; returns a report.

    The device must be revived (readable) but unmounted.
    """
    return _Fsck(disk, config).run()
