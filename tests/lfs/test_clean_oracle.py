"""The cleaner's run-at-a-time copy loop against the entry-at-a-time one.

The cleaner relocates a victim's data by run: consecutive DATA entries of
one file version under one pointer container take one version check,
one inode fetch and one walk of the container, with the lookups the
other entries' walks would have made handed to ``BlockCache.rehit``.
The write-back accounts a run's dead and written bytes, and marks its
blocks clean, with one call per segment or per run, and an inode block's
moves with one call per segment.  None of it may show.  The oracle rig
keeps the loops that came before: every summary entry is relocated on
its own (``BlockMap.get`` per entry, one CPU charge per live block), and
the write-back notes every block and every inode by itself.  Both rigs
run the same schedule of sparse writes, overwrites, truncates, unlinks,
syncs, ``flush_caches`` and cleaning passes over files that reach the
double-indirect region, and after every step their images, usage tables,
cache statistics, resident blocks, dirty order, cleaner statistics and
clocks must be equal.
"""

from __future__ import annotations

import dataclasses

from hypothesis import example, given, settings, strategies as st

from repro.common.inode import INODE_SIZE, N_DIRECT, NIL, BlockKey, BlockKind
from repro.errors import CorruptionError
from repro.lfs.config import LfsConfig
from repro.lfs.summary import SegmentSummary
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

    def relocate_data(entry, addr, payload):
        if not cleaner._file_is_current(entry):
            return False
        inode = fs._get_inode(entry.inum)
        if block_map.get(inode, entry.index) != addr:
            return False
        key = BlockKey(entry.inum, _DATA, entry.index)
        fs.cpu.cleaner_blocks(1)
        cached = cache.peek(key)
        if cached is None:
            cache.insert(key, bytearray(payload), dirty=True, now=fs.clock.now())
        elif not cached.dirty:
            cache.mark_dirty(key, fs.clock.now())
        fs._mark_inode_dirty(inode)
        return True

    def scan_segment(seg, first_block, raw, span):
        bps = fs.config.blocks_per_segment
        cleaner.stats.bytes_read += len(raw)
        live = dead = 0
        offset = 0
        while offset < bps:
            try:
                nsummary = SegmentSummary.peek_summary_blocks(
                    raw[offset * BS : (offset + 1) * BS], BS
                )
                summary = SegmentSummary.unpack(raw[offset * BS :], BS)
            except CorruptionError:
                break
            fs.cpu.cleaner_blocks(len(summary.entries))
            for position, entry in enumerate(summary.entries):
                block = offset + nsummary + position
                if entry.kind is _DATA:
                    relocate = relocate_data
                else:
                    relocate = getattr(cleaner, cleaner._RELOCATORS[entry.kind])
                if relocate(
                    entry, first_block + block, raw[block * BS : (block + 1) * BS]
                ):
                    live += 1
                else:
                    dead += 1
            offset += nsummary + summary.nblocks
        cleaner.stats.live_blocks_copied += live
        cleaner.stats.live_bytes_copied += live * BS
        cleaner.stats.dead_blocks_dropped += dead

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

    cleaner._scan_segment = scan_segment
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
        "dirty usage blocks": usage.dirty_block_indexes(),
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
