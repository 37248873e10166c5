"""Truncation by pointer container against the block-at-a-time loop.

``_truncate`` frees the blocks a shrinking file drops with one walk per
pointer container (``BlockMap.clear_run``) and hands the lookups that a
``get`` and a ``set`` per block would have repeated to
``BlockCache.rehit``.  The oracle rig runs the loop that came before,
kept here: ``get`` every dropped block, ``set`` it to NIL if it was
allocated, release its address and discard it from the cache.  Both
rigs run the same schedule of sparse writes, truncates, syncs and
``flush_caches`` over the direct, single- and double-indirect regions,
on LFS and on FFS, and after every step their images, cache statistics,
resident blocks, dirty order, space accounting and clocks must be equal.
"""

from __future__ import annotations

import dataclasses
from types import MethodType

from hypothesis import example, given, settings, strategies as st

from repro.common.inode import N_DIRECT, NIL, BlockKey, BlockKind
from repro.errors import InvalidArgumentError
from repro.ffs.config import FfsConfig
from repro.lfs.config import LfsConfig
from repro.rig import new_rig
from repro.units import KIB, MIB

BS = 4 * KIB
PPB = BS // 8
FILES = ("/a", "/b")


def per_block_truncate(fs, inode, new_size):
    """``_truncate`` with the block-at-a-time loop."""
    if new_size < 0:
        raise InvalidArgumentError(f"negative truncate size: {new_size}")
    bs = fs.block_size
    if new_size >= inode.size:
        inode.size = new_size
        inode.mtime = fs.clock.now()
        fs._mark_inode_dirty(inode)
        return
    old_keys = set(fs.block_map.indirect_block_keys(inode))
    keep_blocks = (new_size + bs - 1) // bs
    for lbn in range(keep_blocks, inode.nblocks(bs)):
        addr = fs.block_map.get(inode, lbn)
        if addr != NIL:
            fs.block_map.set(inode, lbn, NIL)
            fs._release_block_addr(addr)
        fs.cache.discard(BlockKey(inode.inum, BlockKind.DATA, lbn))
    inode.size = new_size
    new_keys = set(fs.block_map.indirect_block_keys(inode))
    doomed = sorted(
        old_keys - new_keys,
        key=lambda key: (key.kind is BlockKind.DINDIRECT, key.index),
    )
    for key in doomed:
        fs._clear_pointer_block(inode, key)
    if new_size % bs:
        key = BlockKey(inode.inum, BlockKind.DATA, new_size // bs)
        block = fs.cache.peek(key)
        if block is None:
            addr = fs.block_map.get(inode, new_size // bs)
            if addr != NIL:
                payload = bytearray(
                    fs._read_block_from_disk(addr, label="trunc-tail")
                )
                block = fs.cache.insert(
                    key, payload, dirty=True, now=fs.clock.now()
                )
        if block is not None and isinstance(block.payload, bytearray):
            block.payload[new_size % bs :] = bytes(bs - new_size % bs)
            fs.cache.mark_dirty(key, fs.clock.now())
    inode.mtime = fs.clock.now()
    fs._mark_inode_dirty(inode)
    if new_size == 0:
        fs._on_truncate_to_zero(inode)


def rig(kind, cache_blocks):
    if kind == "lfs":
        config = LfsConfig(
            segment_size=64 * KIB, cache_bytes=cache_blocks * BS, max_inodes=64
        )
        fs = new_rig("lfs", total_bytes=16 * MIB, lfs_config=config).fs
    else:
        config = FfsConfig(
            block_size=BS,
            cg_bytes=8 * MIB,
            inodes_per_cg=64,
            cache_bytes=cache_blocks * BS,
        )
        fs = new_rig("ffs", total_bytes=16 * MIB, ffs_config=config).fs
    for path in FILES:
        fs.write_file(path, b"")
    return fs


def state(fs):
    cache, device = fs.cache, fs.disk.device
    usage = getattr(fs, "usage", None)
    return {
        "clock": fs.clock.now(),
        "stats": dataclasses.astuple(cache.stats),
        "dirty": [(b.key, b.stamp) for b in cache.dirty_blocks()],
        "resident": sorted(cache._blocks),
        "space": fs.statvfs(),
        "usage": usage
        and [
            dataclasses.astuple(usage.info(seg))
            for seg in range(usage.num_segments)
        ],
        "image": device.read(0, device.num_sectors),
    }


# Block numbers in all three regions, and next to each container
# boundary so that a write or a cut spans two containers.
blocks = st.one_of(
    st.integers(0, N_DIRECT - 1),
    st.integers(N_DIRECT, N_DIRECT + PPB - 1),
    st.integers(N_DIRECT + PPB, N_DIRECT + 4 * PPB - 1),
    st.sampled_from(
        [N_DIRECT - 3, N_DIRECT + PPB - 5, N_DIRECT + 2 * PPB - 5]
    ),
)
steps = st.one_of(
    st.tuples(
        st.just("write"),
        st.sampled_from(FILES),
        blocks,
        st.integers(1, 40),
        st.integers(0, BS - 1),  # bytes cut from the end: a partial block
    ),
    st.tuples(
        st.just("truncate"),
        st.sampled_from(FILES),
        st.one_of(st.just(0), blocks),
        st.integers(0, BS - 1),
    ),
    st.tuples(st.sampled_from(["sync", "flush_caches"])),
)

# Each trap once, whatever the random schedules find: blocks in every
# region, logged and dropped from the cache, then cut back one region at
# a time, each cut leaving part of a leaf and freeing whole ones.
CUTS = [
    ("write", "/a", 3, 20, 0),
    ("write", "/a", N_DIRECT + PPB - 5, 20, 0),
    ("write", "/a", N_DIRECT + 3 * PPB + 7, 10, 100),
    ("sync",),
    ("flush_caches",),
    ("truncate", "/a", N_DIRECT + PPB + 2, 100),
    ("write", "/b", N_DIRECT + 2 * PPB, 8, 0),
    ("truncate", "/a", N_DIRECT + 5, 0),
    ("sync",),
    ("flush_caches",),
    ("truncate", "/a", 5, 10),
    ("truncate", "/b", 0, 0),
]


# Cache sizes in blocks: each file system gets one smaller than most
# writes and cuts.
RIGS = [("lfs", 8), ("lfs", 24), ("lfs", 512), ("ffs", 8), ("ffs", 512)]


@settings(max_examples=25, deadline=None)
@example(("lfs", 8), CUTS)
@example(("lfs", 512), CUTS)
@example(("ffs", 8), CUTS)
@example(("ffs", 512), CUTS)
@given(st.sampled_from(RIGS), st.lists(steps, min_size=4, max_size=16))
def test_containers_match_the_block_at_a_time_truncate(kind_cache, schedule):
    fs, oracle = rig(*kind_cache), rig(*kind_cache)
    oracle._truncate = MethodType(per_block_truncate, oracle)
    assert state(fs) == state(oracle)
    for number, (op, *args) in enumerate(schedule):
        for each in (fs, oracle):
            if op == "write":
                path, first, count, cut = args
                with each.open(path) as handle:
                    handle.pwrite(
                        first * BS, bytes([number % 251 + 1]) * (count * BS - cut)
                    )
            elif op == "truncate":
                path, nblocks, cut = args
                with each.open(path) as handle:
                    handle.truncate(max(0, nblocks * BS - cut))
            else:
                getattr(each, op)()
        assert state(fs) == state(oracle), f"after step {number}: {op}"
