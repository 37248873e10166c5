"""The run-at-a-time data path against the block-at-a-time one it replaced.

The log writer finalizes and serializes a run of data blocks (one file,
one pointer container) with one walk of the pointer tree, and the read
path resolves the blocks it must fetch with one walk per container.
Neither may show.  The oracle rig swaps in the per-block loops, built on
public ``BlockMap.get``/``set``, ``SegmentUsage`` and ``BlockCache``
calls: every data run of the plan becomes runs of one, each walking the
tree for itself, and every missing block is looked up on its own.  Both
rigs run the same schedule, and after every step their images, usage
tables, cache statistics, resident blocks, dirty order and clocks must
be equal.
"""

from __future__ import annotations

import dataclasses

from hypothesis import example, given, settings, strategies as st

from repro.common.inode import N_DIRECT, NIL, BlockKey, BlockKind
from repro.lfs.config import LfsConfig
from repro.lfs.segments import PlannedRun
from repro.rig import new_rig
from repro.units import KIB, MIB

BS = 4 * KIB
PPB = BS // 8
FILES = ("/a", "/b")


def per_block(fs):
    """Make ``fs`` the oracle: data handled one block at a time."""
    build_plan = fs._build_plan
    block_map, cache, usage = fs.block_map, fs.cache, fs.usage
    seg_of = fs.layout.segment_of_block

    def single_block_runs(checkpoint):
        plan = []
        for run in build_plan(checkpoint):
            if run.entries[0].kind is not BlockKind.DATA:
                plan.append(run)
                continue
            for entry in run.entries:
                key = BlockKey(entry.inum, BlockKind.DATA, entry.index)
                plan.append(
                    PlannedRun(
                        [entry],
                        _finalize_one(
                            fs, key, block_map, cache, usage, seg_of
                        ),
                        _write_one(cache.peek(key)),
                    )
                )
        return plan

    def missing_one_at_a_time(inode, first, last):
        # get_container makes the lookups of get, and returns the
        # container that get_missing hands back with its last block.
        found, walked = [], None
        for lbn in range(first, last + 1):
            if not cache.contains(BlockKey(inode.inum, BlockKind.DATA, lbn)):
                container = block_map.get_container(inode, lbn)
                pointers, base, _keys = container
                if pointers is not None and pointers[lbn - base] != NIL:
                    found.append((lbn, pointers[lbn - base]))
                    walked = container
        return found, walked

    fs._build_plan = single_block_runs
    block_map.get_missing = missing_one_at_a_time
    return fs


def _finalize_one(fs, key, block_map, cache, usage, seg_of):
    inode = fs._get_inode(key.inum)

    def finalize(_start, _count, addr):
        old = block_map.set(inode, key.index, addr)
        if old != NIL:
            usage.note_dead(seg_of(old), BS)
        usage.note_write(seg_of(addr), BS, fs.clock.now())
        cache.mark_clean(key)
        fs._mark_inode_dirty(inode)

    return finalize


def _write_one(block):
    def write_into(out, _start, _count):
        block.write_into(out, BS)

    return write_into


def state(fs):
    cache, usage, device = fs.cache, fs.usage, fs.disk.device
    return {
        "clock": fs.clock.now(),
        "stats": dataclasses.astuple(cache.stats),
        "dirty": [(b.key, b.stamp) for b in cache.dirty_blocks()],
        "resident": sorted(cache._blocks),
        "usage": [
            dataclasses.astuple(usage.info(seg))
            for seg in range(usage.num_segments)
        ],
        "log": fs.segments.position,
        "image": device.read(0, device.num_sectors),
    }


def rig(cache_blocks):
    config = LfsConfig(
        segment_size=64 * KIB, cache_bytes=cache_blocks * BS, max_inodes=64
    )
    fs = new_rig("lfs", total_bytes=8 * MIB, lfs_config=config).fs
    for path in FILES:
        fs.write_file(path, b"")
    return fs


# Starting blocks in all three regions, and next to each container
# boundary so that a request spans two containers.
first_blocks = st.one_of(
    st.integers(0, N_DIRECT - 1),
    st.integers(N_DIRECT, N_DIRECT + PPB - 1),
    st.integers(N_DIRECT + PPB, N_DIRECT + 4 * PPB - 1),
    st.sampled_from(
        [N_DIRECT - 3, N_DIRECT + PPB - 5, N_DIRECT + 2 * PPB - 5]
    ),
)
steps = st.one_of(
    st.tuples(
        st.sampled_from(["write", "read"]),
        st.sampled_from(FILES),
        first_blocks,
        st.integers(1, 40),
        st.integers(0, BS - 1),  # bytes cut from the end: a partial block
    ),
    st.tuples(st.sampled_from(["sync", "flush_caches", "checkpoint"])),
)


# Each trap once, whatever the random schedules find: a run longer than
# the cache and than a segment, whose leaf (single- and double-indirect)
# was dropped by flush_caches and is read back by the run's first walk.
REWRITES = [
    ("write", "/a", N_DIRECT + 3, 30, 0),
    ("write", "/a", N_DIRECT + PPB + 2, 30, 0),
    ("sync",),
    ("flush_caches",),
    ("write", "/a", N_DIRECT + 3, 30, 0),
    ("write", "/a", N_DIRECT + PPB + 2, 30, 0),
    ("sync",),
    ("flush_caches",),
    ("read", "/a", N_DIRECT, 40, 0),
    ("read", "/a", N_DIRECT + PPB, 40, 100),
]

# A sequential stream, so that requests are extended past the demand
# and blocks are claimed from the window: within the direct blocks,
# then within the first leaf.
READ_AHEAD = [
    ("write", "/a", 0, 60, 0),
    ("sync",),
    ("flush_caches",),
    ("read", "/a", 0, 2, 0),
    ("read", "/a", 2, 2, 0),
    ("read", "/a", 4, 8, 0),
    ("read", "/a", N_DIRECT, 2, 0),
    ("read", "/a", N_DIRECT + 2, 2, 0),
]


@settings(max_examples=40, deadline=None)
@example(8, REWRITES)
@example(512, REWRITES)
@example(24, READ_AHEAD)
@example(512, READ_AHEAD)
@given(
    st.sampled_from([8, 24, 512]),  # blocks; 8 is smaller than most runs
    st.lists(steps, min_size=4, max_size=20),
)
def test_runs_match_the_block_at_a_time_path(cache_blocks, schedule):
    fs, oracle = rig(cache_blocks), per_block(rig(cache_blocks))
    assert state(fs) == state(oracle)
    for number, (op, *args) in enumerate(schedule):
        for each in (fs, oracle):
            if op == "write":
                path, first, count, cut = args
                with each.open(path) as handle:
                    handle.pwrite(
                        first * BS, bytes([number % 251 + 1]) * (count * BS - cut)
                    )
            elif op == "read":
                path, first, count, cut = args
                with each.open(path) as handle:
                    handle.pread(first * BS + cut, count * BS)
            else:
                getattr(each, op)()
        assert state(fs) == state(oracle), f"after step {number}: {op}"
