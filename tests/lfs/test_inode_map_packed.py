"""The packed inode-map block against the eager map it replaced.

``InodeMap`` keeps a block as the bytes it was handed until an entry is
touched, and ``pack_block_into`` repacks only the positions modified
since the previous pack.  The oracle here is what the map used to do:
decode every entry up front (the shadow) and pack all of them on every
flush (``full_pack``).  A hypothesis schedule drives both; three
deliberately broken maps prove the schedule would notice.
"""

import random
import struct

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    rule,
    run_state_machine_as_test,
)

from repro.common.inode import NIL
from repro.errors import CorruptionError
from repro.lfs.filesystem import LogStructuredFS
from repro.lfs.inode_map import IMAP_ENTRY_SIZE, InodeMap
from repro.lfs.recovery import roll_forward
from tests.conftest import small_lfs_config

ENTRY = struct.Struct("<QBBId2x")
FREE = (NIL, 0, 0, 0, 0.0)  # inode_addr, slot, allocated, version, atime


def full_pack(entries, block_size):
    """The old ``pack_block``: every entry, every time, zero tail."""
    out = bytearray(block_size)
    for position, (addr, slot, allocated, version, atime) in enumerate(entries):
        ENTRY.pack_into(
            out, position * IMAP_ENTRY_SIZE,
            addr, slot, 1 if allocated else 0, version, atime,
        )
    return bytes(out)


def eager_decode(data, count):
    """The old ``load_block``: every entry decoded on arrival."""
    return [
        (addr, slot, int(allocated != 0), version, atime)
        for addr, slot, allocated, version, atime in ENTRY.iter_unpack(
            bytes(data[: count * IMAP_ENTRY_SIZE])
        )
    ]


class SkipsTouch(InodeMap):
    """A mutator that forgets to record the position it changed."""

    def set_atime(self, inum, atime):
        self.get(inum).atime = atime
        self._dirty_blocks.add(inum // self.entries_per_block)


class ImageSurvivesLoad(InodeMap):
    """``load_block`` keeps the image packed from the entries it replaces."""

    def load_block(self, index, data):
        old = self._blocks[index]
        super().load_block(index, data)
        if old is not None:
            self._blocks[index].image = old.image


class AdoptsDiskBytes(InodeMap):
    """``load_block`` takes the logged bytes as the packer's image."""

    def load_block(self, index, data):
        super().load_block(index, data)
        self._blocks[index].image = bytearray(self._blocks[index].packed)


class PackedMapMachine(RuleBasedStateMachine):
    map_class = InodeMap

    @initialize(
        block_size=st.sampled_from([64, 100, 256, 1024, 4096]),
        blocks=st.integers(1, 3),
        short_by=st.integers(0, 1),
    )
    def setup(self, block_size, blocks, short_by):
        per_block = block_size // IMAP_ENTRY_SIZE
        # A last block one entry short of full, when there is room.
        self.max_inodes = max(2, per_block * blocks - short_by)
        self.block_size = block_size
        self.imap = self.map_class(self.max_inodes, block_size)
        self.per_block = per_block
        self.shadow = [FREE] * self.max_inodes
        self.dirty = set()
        self.disk = {}  # log address -> block bytes, as roll-forward reads them
        self.next_addr = 100

    # -- helpers -----------------------------------------------------

    def span(self, index):
        first = index * self.per_block
        return first, min(first + self.per_block, self.max_inodes)

    def pick_inum(self, data):
        return data.draw(st.integers(1, self.max_inodes - 1), label="inum")

    def pick_block(self, data):
        return data.draw(st.integers(0, self.imap.num_blocks - 1), label="block")

    def mutate(self, inum, allowed, call, change):
        """Run ``call``; the shadow changes only when the map accepts."""
        if not allowed:
            with pytest.raises(CorruptionError):
                call()
        else:
            call()
            self.shadow[inum] = change(*self.shadow[inum])
            self.dirty.add(inum // self.per_block)
        self.agree(inum)

    def agree(self, inum):
        entry = self.imap.get(inum)
        assert (
            entry.inode_addr, entry.slot, int(entry.allocated),
            entry.version, entry.atime,
        ) == self.shadow[inum]
        assert self.imap.dirty_block_indexes() == sorted(self.dirty)

    def check_pack(self, index):
        first, last = self.span(index)
        assert self.imap.pack_block(index) == full_pack(
            self.shadow[first:last], self.block_size
        )

    def logged_bytes(self, data, index):
        """A block as the log could hold it: padding need not be zero."""
        first, last = self.span(index)
        rng = random.Random(data.draw(st.integers(0, 2**16), label="seed"))
        entries = [
            (
                rng.randrange(2**40), rng.randrange(25), rng.randrange(2),
                rng.randrange(2**31), rng.uniform(0, 1e9),
            )
            for _ in range(first, last)
        ]
        raw = bytearray(full_pack(entries, self.block_size))
        for offset in data.draw(
            st.lists(st.integers(0, self.block_size - 1), max_size=4),
            label="damaged offsets",
        ):
            position, within = divmod(offset, IMAP_ENTRY_SIZE)
            if position >= last - first or within >= 22:
                raw[offset] = 0xA5  # entry pad bytes and the block's tail
            elif within == 9 and raw[offset]:
                raw[offset] = 0x80  # "allocated" is any non-zero byte
        return bytes(raw)

    # -- the schedule ------------------------------------------------

    @rule(now=st.floats(0, 1e6))
    def allocate(self, now):
        if all(entry[2] for entry in self.shadow[1:]):
            return
        inum = self.imap.allocate(now)
        assert not self.shadow[inum][2]
        self.shadow[inum] = (NIL, 0, 1, self.shadow[inum][3], now)
        self.dirty.add(inum // self.per_block)
        self.agree(inum)

    @rule(data=st.data(), now=st.floats(0, 1e6))
    def force_allocate(self, data, now):
        inum = self.pick_inum(data)
        self.mutate(
            inum, not self.shadow[inum][2],
            lambda: self.imap.force_allocate(inum, now),
            lambda addr, slot, allocated, version, atime: (NIL, 0, 1, version, now),
        )

    @rule(data=st.data())
    def free(self, data):
        inum = self.pick_inum(data)
        self.mutate(
            inum, self.shadow[inum][2],
            lambda: self.imap.free(inum),
            lambda addr, slot, allocated, version, atime: (
                NIL, 0, 0, version + 1, atime
            ),
        )

    @rule(data=st.data(), new_addr=st.integers(0, 2**40), new_slot=st.integers(0, 24))
    def set_location(self, data, new_addr, new_slot):
        inum = self.pick_inum(data)
        self.mutate(
            inum, self.shadow[inum][2],
            lambda: self.imap.set_location(inum, new_addr, new_slot),
            lambda addr, slot, allocated, version, atime: (
                new_addr, new_slot, allocated, version, atime
            ),
        )

    @rule(data=st.data(), now=st.floats(0, 1e6))
    def set_atime(self, data, now):
        inum = self.pick_inum(data)
        self.mutate(
            inum, True,
            lambda: self.imap.set_atime(inum, now),
            lambda addr, slot, allocated, version, atime: (
                addr, slot, allocated, version, now
            ),
        )

    @rule(data=st.data())
    def bump_version(self, data):
        inum = self.pick_inum(data)
        self.mutate(
            inum, True,
            lambda: self.imap.bump_version(inum),
            lambda addr, slot, allocated, version, atime: (
                addr, slot, allocated, version + 1, atime
            ),
        )

    @rule(data=st.data())
    def pack(self, data):
        self.check_pack(self.pick_block(data))

    @rule(data=st.data())
    def flush(self, data):
        """What the segment writer does with a dirty block."""
        index = self.pick_block(data)
        self.check_pack(index)
        self.disk[self.next_addr] = self.imap.pack_block(index)
        self.imap.block_addrs[index] = self.next_addr
        self.next_addr += 1
        self.imap.mark_block_clean(index)
        self.dirty.discard(index)

    @rule(data=st.data())
    def load_block(self, data):
        """What roll-forward does with a logged block."""
        index = self.pick_block(data)
        raw = self.logged_bytes(data, index)
        first, last = self.span(index)
        self.imap.load_block(index, raw)
        self.shadow[first:last] = eager_decode(raw, last - first)
        self.dirty.discard(index)
        self.imap.mark_block_dirty(index)
        self.dirty.add(index)

    @rule(data=st.data())
    def short_block_is_refused(self, data):
        index = self.pick_block(data)
        first, last = self.span(index)
        with pytest.raises(CorruptionError):
            self.imap.load_block(index, bytes((last - first) * IMAP_ENTRY_SIZE - 1))
        with pytest.raises(CorruptionError):
            self.imap.load_block(self.imap.num_blocks, bytes(self.block_size))

    @rule(data=st.data())
    def attach(self, data):
        """Remount from the block addresses: everything loads on demand."""
        addrs = list(self.imap.block_addrs)
        for index, addr in enumerate(addrs):
            if addr != NIL and data.draw(st.booleans(), label="rewritten"):
                self.disk[addr] = self.logged_bytes(data, index)
        fetched = []
        self.imap.attach(
            addrs, lambda addr: fetched.append(addr) or self.disk[addr]
        )
        loads = self.imap.demand_loads
        for index, addr in enumerate(addrs):
            first, last = self.span(index)
            self.shadow[first:last] = (
                [FREE] * (last - first)
                if addr == NIL
                else eager_decode(self.disk[addr], last - first)
            )
        self.dirty.clear()
        assert fetched == []  # nothing is read until an entry is touched
        probe = self.pick_inum(data)
        self.agree(probe)
        expected = [] if addrs[probe // self.per_block] == NIL else [
            addrs[probe // self.per_block]
        ]
        assert fetched == expected
        assert self.imap.demand_loads == loads + len(expected)

    def teardown(self):
        if hasattr(self, "imap"):
            for inum in range(1, self.max_inodes):
                self.agree(inum)
            for index in range(self.imap.num_blocks):
                self.check_pack(index)
                self.check_pack(index)  # and again, from the image alone


TestPackedMapAgainstEagerMap = PackedMapMachine.TestCase
TestPackedMapAgainstEagerMap.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


@pytest.mark.parametrize(
    "mutant", [SkipsTouch, ImageSurvivesLoad, AdoptsDiskBytes]
)
def test_the_schedule_catches_a_broken_map(mutant):
    machine = type("Mutant", (PackedMapMachine,), {"map_class": mutant})
    with pytest.raises(AssertionError):
        run_state_machine_as_test(
            machine,
            settings=settings(
                max_examples=400, stateful_step_count=30, deadline=None,
                derandomize=True, database=None, phases=[Phase.generate],
            ),
        )


def test_pack_into_a_dirty_pooled_buffer_zeroes_the_tail():
    imap = InodeMap(max_inodes=300, block_size=4096)
    inum = imap.allocate(1.0)
    for _ in range(2):  # the full pack, then the image alone
        out = bytearray(b"\xff" * 4096)
        imap.pack_block_into(imap.block_of(inum), out)
        assert bytes(out) == imap.pack_block(imap.block_of(inum))
        assert not any(out[170 * IMAP_ENTRY_SIZE :])
    short = bytearray(b"\xff" * 4096)
    imap.pack_block_into(1, short)  # 130 entries, the rest is tail
    assert not any(short)


# ----------------------------------------------------------------------
# A block handed over is copied: the log may reuse its storage
# ----------------------------------------------------------------------


def test_load_block_copies_the_bytes_it_is_handed():
    source = InodeMap(max_inodes=300, block_size=4096)
    inum = source.allocate(2.0)
    source.set_location(inum, 77, 3)
    storage = bytearray(source.pack_block(0))
    imap = InodeMap(max_inodes=300, block_size=4096)
    imap.load_block(0, memoryview(storage).toreadonly())
    storage[:] = bytes(len(storage))
    entry = imap.get(inum)
    assert (entry.allocated, entry.inode_addr, entry.slot) == (True, 77, 3)
    assert imap.entries_decoded == 170


def test_replayed_block_survives_its_log_blocks_being_overwritten(disk, cpu):
    fs = LogStructuredFS.mkfs(disk, cpu, small_lfs_config())
    fs.checkpoint()
    for index in range(8):
        fs.write_file(f"/f{index}", bytes([index]) * 2000)
    fs.sync()
    expected = {
        inum: (entry.inode_addr, entry.slot, entry.version)
        for inum in fs.imap.allocated_inums()
        for entry in [fs.imap.get(inum)]
    }
    assert len(expected) == 9
    fs.crash()
    disk.revive()

    # Mount at the checkpoint, then replay the tail by hand: mount's own
    # closing checkpoint would pack (and so decode) the replayed blocks.
    again = LogStructuredFS.mount(
        disk, cpu, small_lfs_config(roll_forward=False)
    )
    report = roll_forward(again, again.checkpoints.load_latest()[0])
    assert report.imap_blocks_applied >= 1
    assert again.imap.entries_decoded == 0  # replay decoded nothing
    spb = again.config.sectors_per_block
    for addr in set(again.imap.block_addrs) - {NIL}:
        disk.device.write(addr * spb, b"\xee" * again.config.block_size)
    assert {
        inum: (entry.inode_addr, entry.slot, entry.version)
        for inum in expected
        for entry in [again.imap.get(inum)]
    } == expected  # as at replay time, not as the device reads now
    assert again.imap.allocated_inums() == sorted(expected)
