"""The cleaner's run-at-a-time copy loop against the entry-at-a-time one,
and what it reads against a whole-segment scan.

The cleaner relocates a victim's data by run: consecutive DATA entries of
one file version under one pointer container take one version check,
one inode fetch and one walk of the container, with the lookups the
other entries' walks would have made handed to ``BlockCache.rehit``.
The write-back accounts a run's dead and written bytes, and marks its
blocks clean, with one call per segment or per run, and an inode block's
moves with one call per segment.  None of it may show.  The oracle rig
keeps the loops that came before: every summary entry's liveness is
decided on its own (``BlockMap.get`` per entry) and every live block is
copied on its own (one CPU charge each), and the write-back notes every
block and every inode by itself.  Both rigs run the same schedule of
sparse writes, overwrites, truncates, unlinks, syncs, ``flush_caches``
and cleaning passes over files that reach the double-indirect region,
and after every step their images, usage tables, cache statistics,
resident blocks, dirty order, cleaner statistics and clocks must be
equal.

The cleaner reads only a victim's summaries and the blocks whose bytes
it copies and does not already hold in memory.  The reference reads the
whole segment, decides liveness entry by entry without touching the
cache, and lists every block a relocator consumes.  Each must reach the
copy step, and the cleaner must relocate exactly the reference's live
set.  A consumed block either lies inside an extent the cleaner read and
reaches the copy step byte for byte, or was in memory when the cleaner
planned the partial segment: a data block cached (a clean copy holding
the reference's bytes), an inode block whose live inodes were all loaded
(an unmodified one equal to the reference's).  No data block the
cleaner read into the cache is still cached once its pass has ended.
After a crash and remount every file must read back as a model of the
schedule says.
"""

from __future__ import annotations

import dataclasses

from hypothesis import example, given, settings, strategies as st

from repro.common.inode import (
    INODE_SIZE,
    N_DIRECT,
    NIL,
    BlockKey,
    BlockKind,
    Inode,
    pointer_block,
)
from repro.errors import CorruptionError
from repro.lfs.config import LfsConfig
from repro.lfs.filesystem import LogStructuredFS
from repro.lfs.segment_usage import SegmentState
from repro.lfs.summary import SegmentSummary
from repro.lfs.verify import verify_lfs
from repro.rig import new_rig
from repro.units import KIB, MIB

BS = 4 * KIB
PPB = BS // 8
FILES = ("/a", "/b")
_DATA = BlockKind.DATA
_INODE = BlockKind.INODE


def entry_at_a_time(fs):
    """Make ``fs`` the oracle: relocation and write-back entry by entry."""
    cleaner = fs.cleaner
    cache, usage, block_map = fs.cache, fs.usage, fs.block_map
    seg_of = fs.layout.segment_of_block
    build_plan = fs._build_plan

    def live_data(run, addr):
        inode, live = None, []
        for position, entry in enumerate(run):
            if not cleaner._file_is_current(entry):
                continue
            inode = fs._get_inode(entry.inum)
            if block_map.get(inode, entry.index) == addr + position:
                live.append(position)
        return (inode, live) if live else None

    def copy_data(run, found, image):
        inode, live = found
        for position in live:
            entry = run[position]
            key = BlockKey(entry.inum, _DATA, entry.index)
            fs.cpu.cleaner_blocks(1)
            if cache.peek(key) is None:
                payload = bytearray(image[position * BS : (position + 1) * BS])
                cache.insert(key, payload, dirty=True, now=fs.clock.now())
            fs._mark_inode_dirty(inode)

    def finalize_data(inode, blocks):
        def finalize(start, count, first_addr):
            piece = blocks[start : start + count]
            olds = block_map.set_run(
                inode, [block.key.index for block in piece], first_addr
            )
            for old in olds:
                if old != NIL:
                    usage.note_dead(seg_of(old), BS)
            usage.note_write(seg_of(first_addr), count * BS, fs.clock.now())
            for block in piece:
                cache.mark_clean(block.key)
            fs._mark_inode_dirty(inode)

        return finalize

    def place_inodes(group):
        def finalize(_start, _count, addr):
            cache.discard(BlockKey(0, _INODE, addr))
            for slot, inum in enumerate(group):
                old = fs.imap.set_location(inum, addr, slot)
                if old != NIL:
                    usage.note_dead(seg_of(old), INODE_SIZE)
                usage.note_write(seg_of(addr), INODE_SIZE, fs.clock.now())
                if old != NIL:
                    cache.discard(BlockKey(0, _INODE, old))

        return finalize

    def block_by_block_plan(checkpoint):
        plan = build_plan(checkpoint)
        for run in plan:
            head = run.entries[0]
            if head.kind is _DATA:
                blocks = run.finalize.args[1]
                run.finalize = finalize_data(fs._get_inode(head.inum), blocks)
            elif head.kind is _INODE:
                run.finalize = place_inodes(head.inums)
        return plan

    cleaner._live_data = live_data
    cleaner._copy_data = copy_data
    fs._build_plan = block_by_block_plan
    return fs


def state(fs):
    cache, usage, device = fs.cache, fs.usage, fs.disk.device
    return {
        "clock": fs.clock.now(),
        "cpu": fs.cpu.total_cpu_seconds,
        "stats": dataclasses.astuple(cache.stats),
        "dirty": [(b.key, b.stamp, b.dirty_since) for b in cache.dirty_blocks()],
        "resident": sorted(cache._blocks),
        "usage": [
            dataclasses.astuple(usage.info(seg))
            for seg in range(usage.num_segments)
        ],
        "clamps": usage.underflow_clamps,
        "cleaner": dataclasses.astuple(fs.cleaner.stats),
        "log": fs.segments.position,
        "image": device.read(0, device.num_sectors),
    }


def rig(cache_blocks):
    config = LfsConfig(
        segment_size=64 * KIB,
        cache_bytes=cache_blocks * BS,
        max_inodes=64,
    )
    fs = new_rig("lfs", total_bytes=12 * MIB, lfs_config=config).fs
    for path in FILES:
        fs.write_file(path, b"")
    return fs


def apply(fs, number, op, args):
    if op == "write":
        path, first, count, cut = args
        handle = fs.open(path) if fs.exists(path) else fs.create(path)
        with handle:
            handle.pwrite(first * BS, bytes([number % 251 + 1]) * (count * BS - cut))
    elif op == "truncate":
        path, nblocks, cut = args
        if fs.exists(path):
            with fs.open(path) as handle:
                handle.truncate(max(0, nblocks * BS - cut))
    elif op == "unlink":
        (path,) = args
        if fs.exists(path):
            fs.unlink(path)
    elif op == "clean":
        (segments,) = args
        fs.clean_now(fs.usage.clean_count() + segments)
    else:
        getattr(fs, op)()


# Blocks in all three regions, and next to each container boundary so
# that a write or a cut spans two containers.
blocks = st.one_of(
    st.integers(0, N_DIRECT - 1),
    st.integers(N_DIRECT, N_DIRECT + PPB - 1),
    st.integers(N_DIRECT + PPB, N_DIRECT + 3 * PPB - 1),
    st.sampled_from(
        [N_DIRECT - 3, N_DIRECT + PPB - 5, N_DIRECT + 2 * PPB - 5]
    ),
)
steps = st.one_of(
    st.tuples(
        st.just("write"),
        st.sampled_from(FILES),
        blocks,
        st.integers(1, 24),
        st.integers(0, BS - 1),  # bytes cut from the end: a partial block
    ),
    st.tuples(
        st.just("truncate"),
        st.sampled_from(FILES),
        st.one_of(st.just(0), blocks),
        st.integers(0, BS - 1),
    ),
    st.tuples(st.just("unlink"), st.sampled_from(FILES)),
    st.tuples(st.just("clean"), st.integers(1, 6)),
    st.tuples(st.sampled_from(["sync", "flush_caches"])),
)

# Each trap once, whatever the random schedules find.  Runs in every
# region are logged, then overwritten in their middle and at their first
# block, so that victims hold runs whose blocks differ in liveness; the
# cache is emptied, so relocation walks leaves it must read and inserts
# what it moves; and one file's version changes under its logged blocks.
RUNS = [
    ("write", "/a", 0, 10, 0),
    ("write", "/a", N_DIRECT + 3, 24, 0),
    ("write", "/a", N_DIRECT + PPB + 2, 24, 0),
    ("write", "/b", N_DIRECT + 2 * PPB - 5, 12, 0),
    ("sync",),
    ("write", "/a", N_DIRECT + 10, 3, 0),
    ("write", "/a", N_DIRECT + PPB + 2, 1, 0),
    ("write", "/a", 0, 1, 0),
    ("truncate", "/b", 0, 0),
    ("write", "/b", 2, 3, 0),
    ("flush_caches",),
    ("clean", 6),
    ("write", "/a", N_DIRECT + 4, 2, 100),
    ("unlink", "/b"),
    ("clean", 6),
    ("sync",),
]


@settings(max_examples=30, deadline=None)
@example(8, RUNS)
@example(24, RUNS)
@given(
    st.sampled_from([8, 24]),  # blocks: smaller than most runs
    st.lists(steps, min_size=4, max_size=16),
)
def test_runs_match_the_entry_at_a_time_cleaner(cache_blocks, schedule):
    fs, oracle = rig(cache_blocks), entry_at_a_time(rig(cache_blocks))
    assert state(fs) == state(oracle)
    for number, (op, *args) in enumerate(schedule):
        for each in (fs, oracle):
            apply(each, number, op, args)
        assert state(fs) == state(oracle), f"after step {number}: {op}"


# ----------------------------------------------------------------------
# What the cleaner reads, against a whole-segment scan
# ----------------------------------------------------------------------


def whole_segment(fs, seg):
    """The reference: the victim's image, its live blocks, the live
    blocks whose bytes a relocator consumes (DATA, and INODE blocks with
    a live slot), decided entry by entry without touching the cache, and
    the summary blocks (with the block where the log ends, if it ends
    inside the segment)."""
    device = fs.disk.device
    spb = fs.config.sectors_per_block
    bps = fs.config.blocks_per_segment
    first_block = fs.layout.segment_first_block(seg)
    raw = bytes(device.read(first_block * spb, bps * spb))

    def load(key, addr):
        cached = fs.cache.peek(key)
        if cached is not None:
            return cached.payload
        if addr == NIL:
            return None
        return pointer_block(bytes(device.read(addr * spb, spb)), BS)

    def inode_of(inum):
        if inum in fs._inodes:
            return fs._inodes[inum]
        entry = fs.imap.get(inum)
        block = bytes(device.read(entry.inode_addr * spb, spb))
        return Inode.unpack(block, entry.slot * INODE_SIZE)

    def pointer_block_addr(inode, entry):
        if entry.kind is BlockKind.DINDIRECT:
            return inode.dindirect
        if entry.index == 0:
            return inode.indirect
        root_key = BlockKey(inode.inum, BlockKind.DINDIRECT, 0)
        root = load(root_key, inode.dindirect)
        return NIL if root is None else root[entry.index - 1]

    def data_addr(inode, index):
        if index < N_DIRECT:
            return inode.direct[index]
        ordinal, base, _last = fs.block_map.container(index)
        leaf_key = BlockKey(inode.inum, BlockKind.INDIRECT, ordinal)
        leaf = load(leaf_key, pointer_block_addr(inode, leaf_key))
        return NIL if leaf is None else leaf[index - base]

    def is_live(entry, addr):
        imap = fs.imap
        if entry.kind is _INODE:
            return any(
                imap.get(inum).allocated and imap.get(inum).inode_addr == addr
                for inum in entry.inums
            )
        if entry.kind is BlockKind.IMAP:
            return (
                entry.index < imap.num_blocks
                and imap.block_addrs[entry.index] == addr
            )
        if entry.kind is BlockKind.SEGUSAGE:
            usage = fs.usage
            return (
                entry.index < usage.num_blocks
                and usage.block_addrs[entry.index] == addr
            )
        imap_entry = imap.get(entry.inum)
        if not imap_entry.allocated or imap_entry.version != entry.version:
            return False
        inode = inode_of(entry.inum)
        if entry.kind is _DATA:
            return data_addr(inode, entry.index) == addr
        return pointer_block_addr(inode, entry) == addr

    live, consumed, summaries = set(), set(), set()
    offset = 0
    while offset < bps:
        summaries.add(first_block + offset)  # the end of the log, maybe
        try:
            nsummary = SegmentSummary.peek_summary_blocks(
                raw[offset * BS : (offset + 1) * BS], BS
            )
            summary = SegmentSummary.unpack(raw[offset * BS :], BS)
        except CorruptionError:
            break
        start = first_block + offset
        summaries.update(range(start, start + nsummary))
        for position, entry in enumerate(summary.entries):
            addr = first_block + offset + nsummary + position
            if is_live(entry, addr):
                live.add(addr)
                if entry.kind in (_DATA, _INODE):
                    consumed.add(addr)
        offset += nsummary + summary.nblocks
    return raw, live, consumed, summaries


def spy_on_reads(fs):
    """Check every victim the cleaner relocates against the reference."""
    cleaner, disk, cache = fs.cleaner, fs.disk, fs.cache
    spb = fs.config.sectors_per_block
    clean_pass = cleaner._clean_pass
    relocate_segment = cleaner._relocate_live_blocks
    live_data, copy_data = cleaner._live_data, cleaner._copy_data
    live_slots, copy_inodes = cleaner._live_slots, cleaner._copy_inodes
    read, insert = disk.read, cache.insert
    current = {"inserted": None}

    def reference_block(addr):
        at = (addr - current["first_block"]) * BS
        return current["raw"][at : at + BS]

    def copied(addr, payload):
        if addr not in current["in_memory"]:
            assert bytes(payload) == reference_block(addr), (
                f"block {addr} staged wrong bytes"
            )
        current["copied"].add(addr)

    def spy_clean_pass(victims, clean_before):
        # Empty victims are freed before the flush, which may reuse them.
        occupied = [seg for seg in victims if fs.usage.info(seg).live_bytes]
        current["inserted"] = []
        cleaned = clean_pass(victims, clean_before)
        for key, block in current["inserted"]:
            assert cache.peek(key) is not block, (
                f"{key} the cleaner read in is still cached"
            )
        current["inserted"] = None
        for seg in occupied:
            if fs.usage.info(seg).state is SegmentState.CLEAN:
                assert not whole_segment(fs, seg)[1], (
                    f"cleaned segment {seg} still holds live blocks"
                )
        return cleaned

    def spy_insert(key, payload, dirty, now):
        block = insert(key, payload, dirty, now)
        if current["inserted"] is not None and key.kind is _DATA:
            current["inserted"].append((key, block))
        return block

    def spy_relocate_segment(seg):
        raw, live, consumed, summaries = whole_segment(fs, seg)
        current.update(
            first_block=fs.layout.segment_first_block(seg),
            raw=raw,
            extents=[],
            relocated=set(),
            copied=set(),
            in_memory=set(),
            pending={},
        )
        relocate_segment(seg)
        assert current["relocated"] == live, f"segment {seg}"
        assert current["copied"] == consumed, f"segment {seg}"
        read_blocks = [
            range(sector // spb, (sector + count) // spb)
            for sector, count in current["extents"]
        ]
        needed = summaries | (consumed - current["in_memory"])
        for addr in consumed - current["in_memory"]:
            assert any(addr in extent for extent in read_blocks), (
                f"block {addr} of segment {seg} was neither read nor in memory"
            )
        # Extents are merged across gaps only: each starts and ends at a
        # block the cleaner needed, so nothing in memory is read for its
        # own sake.
        for extent in read_blocks:
            assert extent[0] in needed and extent[-1] in needed, (
                f"segment {seg} read {extent}, which it did not need"
            )

    def spy_read(sector, count, label="", **kwargs):
        if label.startswith("cleaner segment"):
            current["extents"].append((sector, count))
        return read(sector, count, label, **kwargs)

    def spy_live_data(run, addr):
        found = live_data(run, addr)
        if found is not None:
            current["relocated"].update(addr + at for at in found[1])
            current["pending"][id(found)] = addr
            # Plan time: what the cleaner may take from the cache.
            for at in found[1]:
                entry = run[at]
                cached = cache.peek(BlockKey(entry.inum, _DATA, entry.index))
                if cached is None:
                    continue
                current["in_memory"].add(addr + at)
                if not cached.dirty:
                    assert cached.as_bytes(BS) == reference_block(addr + at), (
                        f"clean cached copy of block {addr + at} differs"
                    )
        return found

    def spy_copy_data(run, found, image):
        addr = current["pending"].pop(id(found))
        for at in found[1]:
            copied(addr + at, image[at * BS : (at + 1) * BS])
        return copy_data(run, found, image)

    def spy_live_slots(entry, addr):
        slots = live_slots(entry, addr)
        if slots:
            current["relocated"].add(addr)
            if all(inum in fs._inodes for _slot, inum in slots):
                current["in_memory"].add(addr)
                block = reference_block(addr)
                for slot, inum in slots:
                    if inum not in fs._dirty_inodes:
                        assert fs._inodes[inum] == Inode.unpack(
                            block, slot * INODE_SIZE
                        ), f"unmodified inode {inum} differs from block {addr}"
        return slots

    def spy_copy_inodes(slots, addr, payload):
        copied(addr, payload)
        return copy_inodes(slots, addr, payload)

    def spy_relocator(relocate):
        def spy(entry, addr):
            moved = relocate(entry, addr)
            if moved:
                current["relocated"].add(addr)
            return moved

        return spy

    for name in ("_relocate_pointer", "_relocate_imap", "_relocate_usage"):
        setattr(cleaner, name, spy_relocator(getattr(cleaner, name)))
    cleaner._clean_pass = spy_clean_pass
    cleaner._relocate_live_blocks = spy_relocate_segment
    cleaner._live_data = spy_live_data
    cleaner._copy_data = spy_copy_data
    cleaner._live_slots = spy_live_slots
    cleaner._copy_inodes = spy_copy_inodes
    disk.read = spy_read
    cache.insert = spy_insert


def model_apply(model, number, op, args):
    """What ``apply`` does to the files' contents."""
    if op == "write":
        path, first, count, cut = args
        data = model.setdefault(path, bytearray())
        start = first * BS
        payload = bytes([number % 251 + 1]) * (count * BS - cut)
        if len(data) < start:
            data.extend(bytes(start - len(data)))
        data[start : start + len(payload)] = payload
    elif op == "truncate":
        path, nblocks, cut = args
        if path in model:
            size = max(0, nblocks * BS - cut)
            data = model[path]
            del data[size:]
            data.extend(bytes(size - len(data)))
    elif op == "unlink":
        model.pop(args[0], None)


# Victims cleaned while their live blocks are still cached, some clean
# and one dirty, so relocation takes them from memory instead of reading.
CACHED = [
    ("write", "/a", 0, 10, 0),
    ("write", "/b", N_DIRECT + 1, 6, 0),
    ("sync",),
    ("write", "/a", 3, 2, 0),
    ("write", "/b", N_DIRECT + 2, 1, 0),
    ("sync",),
    ("write", "/a", 4, 1, 0),
    ("clean", 6),
    ("sync",),
]

# Cleaned after a flush, into a cache of 8 blocks the relocated blocks
# fill: an inode block the cleaner reads is evicted as soon as it is
# inserted, and its bytes are still what the read returns.
EVICTED_INODE_BLOCK = [
    ("write", "/a", 0, 1, 0),
    ("write", "/a", 0, 13, 0),
    ("write", "/b", 0, 4, 0),
    ("flush_caches",),
]


@settings(max_examples=25, deadline=None)
@example(8, RUNS)
@example(24, CACHED)
@example(8, EVICTED_INODE_BLOCK)
@given(
    st.sampled_from([8, 24]),
    st.lists(steps, min_size=4, max_size=16),
)
def test_the_cleaner_reads_what_it_relocates(cache_blocks, schedule):
    fs = rig(cache_blocks)
    model = {path: bytearray() for path in FILES}
    spy_on_reads(fs)
    for number, (op, *args) in enumerate(schedule):
        apply(fs, number, op, args)
        model_apply(model, number, op, args)
    fs.clean_now(fs.usage.clean_count() + 6)
    fs.sync()
    fs.crash()
    fs.disk.revive()
    config = dataclasses.replace(fs.config, cache_bytes=8 * BS)
    again = LogStructuredFS.mount(fs.disk, fs.cpu, config)
    assert verify_lfs(fs.disk.device).consistent
    assert sorted(again.listdir("/")) == sorted(
        path.lstrip("/") for path in model
    )
    for path, data in model.items():
        assert again.read_file(path) == bytes(data), path
