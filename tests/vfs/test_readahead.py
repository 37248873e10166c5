"""Sequential readahead through the read path: what it saves, what a
reader waits for, and when a stream is dropped.

The policy's own bookkeeping is unit-tested in
``tests/cache/test_readahead.py``; these tests drive whole file systems.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.inode import N_DIRECT, BlockKey, BlockKind
from repro.disk.trace import TraceRecorder
from repro.rig import new_rig
from repro.units import KIB, MIB
from tests.conftest import small_ffs_config, small_lfs_config

FILE_BLOCKS = {"lfs": 128, "ffs": 64}


def _rig(kind: str, trace=None, speed_factor=1.0, **lfs_overrides):
    lfs_overrides.setdefault("segment_size", 1 * MIB)
    return new_rig(
        kind,
        total_bytes=32 * MIB,
        speed_factor=speed_factor,
        lfs_config=small_lfs_config(**lfs_overrides),
        ffs_config=small_ffs_config(),
        trace=trace,
    )


def _contiguous_file(fs, nblocks: int):
    """A file of ``nblocks`` stored back to back, read back cold."""
    fs.write_file("/f", bytes(range(256)) * (nblocks * fs.block_size // 256))
    fs.sync()
    inode = fs._get_inode(fs.stat("/f").inum)
    addrs = [fs.block_map.get(inode, lbn) for lbn in range(nblocks)]
    assert addrs == list(range(addrs[0], addrs[0] + nblocks))
    fs.flush_caches()
    return inode


def _count_data_reads(fs, inode):
    counts = {"data": 0}
    read = fs.disk.read

    def counting_read(sector, count, label="", **kwargs):
        if label == f"data:{inode.inum}":
            counts["data"] += 1
        return read(sector, count, label, **kwargs)

    fs.disk.read = counting_read
    return counts


def _data_key(inode, lbn: int) -> BlockKey:
    return BlockKey(inode.inum, BlockKind.DATA, lbn)


@pytest.mark.parametrize("kind", ["lfs", "ffs"])
def test_sequential_scan_issues_one_request_per_window(kind):
    fs = _rig(kind).fs
    nblocks = FILE_BLOCKS[kind]
    counts = _count_data_reads(fs, _contiguous_file(fs, nblocks))
    request = 8 * KIB
    with fs.open("/f") as handle:
        for offset in range(0, nblocks * fs.block_size, request):
            handle.pread(offset, request)
    window = fs.readahead.window_blocks
    assert window == 64 * KIB // fs.block_size
    assert counts["data"] <= -(-nblocks // window) + 2


@pytest.mark.parametrize("kind", ["lfs", "ffs"])
def test_a_read_waits_only_for_its_own_blocks(kind):
    fs = _rig(kind).fs
    nblocks = FILE_BLOCKS[kind]
    inode = _contiguous_file(fs, nblocks)
    fs.block_map.get(inode, N_DIRECT)  # the leaf: reads below are data only
    disk, bs, spb = fs.disk, fs.block_size, fs.sectors_per_block
    request = 8 * KIB
    with fs.open("/f") as handle:
        for offset in range(0, nblocks * bs, request):
            lbns = range(offset // bs, (offset + request) // bs)
            missing = [
                lbn for lbn in lbns
                if not fs.cache.contains(_data_key(inode, lbn))
            ]
            if missing:
                addr = fs.block_map.get(inode, missing[0])
                positioning_and_transfer, _tier = disk.service_time(
                    addr * spb, len(missing) * bs
                )
                bound = disk.queue_delay() + positioning_and_transfer
            else:
                # Blocks read ahead: at most their own transfer is left.
                bound = disk.geometry.transfer_time(len(lbns) * bs)
            stall = disk.sync_stall_seconds
            handle.pread(offset, request)
            assert disk.sync_stall_seconds - stall <= bound + 1e-12
    assert fs.readahead.stats.blocks_prefetched > 0


class TestStreamsAreDropped:
    """A hit is a prefetched block that a demand read found cached; a
    stream does not outlive the cache or the blocks it read ahead."""

    def _stream(self, fs):
        inode = _contiguous_file(fs, N_DIRECT)  # no pointer block to read
        handle = fs.open("/f")
        handle.pread(0, 2 * fs.block_size)
        handle.pread(2 * fs.block_size, 2 * fs.block_size)  # 4.. read ahead
        assert fs.readahead.stats.blocks_prefetched > 0
        return inode, handle

    def test_flush_caches(self):
        fs = _rig("lfs").fs
        _inode, handle = self._stream(fs)
        fs.flush_caches()
        misses = fs.cache.stats.misses
        handle.pread(4 * fs.block_size, 2 * fs.block_size)
        assert fs.cache.stats.misses > misses
        assert fs.readahead.stats.hits == 0

    def test_evicted_blocks_are_no_hits(self):
        fs = _rig("lfs").fs
        inode, handle = self._stream(fs)
        fs.cache.discard(_data_key(inode, 4))
        fs.cache.discard(_data_key(inode, 5))
        handle.pread(4 * fs.block_size, 2 * fs.block_size)
        assert fs.readahead.stats.hits == 0
        handle.pread(6 * fs.block_size, 2 * fs.block_size)
        assert fs.readahead.stats.hits == 2

    def test_shrinking_truncate(self):
        fs = _rig("lfs").fs
        _inode, handle = self._stream(fs)
        handle.truncate(8 * fs.block_size)
        # Blocks 4..7 stay cached: the truncate waited for them to arrive.
        assert fs.clock.now() >= fs.disk.busy_until
        handle.truncate(0)
        handle.pwrite(0, b"n" * (16 * fs.block_size))
        assert handle.pread(4 * fs.block_size, 2 * fs.block_size) == (
            b"n" * (2 * fs.block_size)
        )
        assert fs.readahead.stats.hits == 0

    def test_crash(self):
        fs = _rig("lfs").fs
        inode, _handle = self._stream(fs)
        fs.crash()
        # The next read of the file would be a first touch again.
        assert fs.readahead.advise(inode.inum, 4, 5, N_DIRECT - 1) == 0
        assert fs.readahead.settle(inode.inum, 4, 5, []) == 0.0


# ----------------------------------------------------------------------
# Reads equal a model, and never return a block before it has arrived
# ----------------------------------------------------------------------

_FILES = ("/a", "/b")
_BS = 4 * KIB

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("read"), st.sampled_from(_FILES),
            st.integers(0, 40), st.integers(1, 4),
        ),
        st.tuples(
            st.just("next"), st.sampled_from(_FILES), st.integers(1, 4)
        ),
        st.tuples(
            st.just("write"), st.sampled_from(_FILES),
            st.integers(0, 160 * KIB), st.integers(1, 24 * KIB),
            st.integers(0, 255),
        ),
        st.tuples(
            st.just("truncate"), st.sampled_from(_FILES),
            st.integers(0, 200 * KIB),
        ),
        st.tuples(st.just("unlink"), st.sampled_from(_FILES)),
        st.tuples(st.just("flush")),
    ),
    max_size=40,
)


class _ArrivalLog:
    """When each cached data block read from the disk arrived: the
    request's completion less the transfer of the sectors after it."""

    def __init__(self, fs, trace: TraceRecorder) -> None:
        self.arrival = {}
        self._pending = []
        disk, cache = fs.disk, fs.cache
        read, insert = disk.read, cache.insert
        sector_bytes = disk.geometry.sector_size
        spb = fs.sectors_per_block

        def logged_read(sector, count, label="", **kwargs):
            data = read(sector, count, label, **kwargs)
            done = trace.events[-1].complete_time
            self._pending = []
            if label.startswith("data:"):
                for end in range(spb, count + 1, spb):
                    after = (count - end) * sector_bytes
                    self._pending.append(
                        done - disk.geometry.transfer_time(after)
                    )
            return data

        def logged_insert(key, payload, dirty, now):
            if key.kind is BlockKind.DATA and not dirty and self._pending:
                self.arrival[key] = self._pending.pop(0)
            else:
                self.arrival.pop(key, None)
            return insert(key, payload, dirty, now)

        disk.read = logged_read
        cache.insert = logged_insert


# A stream whose reads catch up with blocks still in flight, once after
# a truncate that keeps them (the leaf it edits is cached by then).
STREAM = [
    ("read", "/a", N_DIRECT, 2),
    ("next", "/a", 2),
    ("truncate", "/a", (N_DIRECT + 8) * _BS),
    ("next", "/a", 2),
    ("next", "/a", 2),
]


@settings(max_examples=60, deadline=None)
@example(ops=STREAM)
@given(ops=_ops)
def test_reads_match_a_model_and_wait_for_arrivals(ops):
    trace = TraceRecorder()
    # A CPU fast enough to outrun the disk, so that reads do catch up
    # with blocks still in flight.
    fs = _rig(
        "lfs",
        trace=trace,
        speed_factor=100.0,
        segment_size=64 * KIB,
        cache_bytes=128 * KIB,
    ).fs
    assert fs.readahead.window_blocks == 8  # a quarter of the cache
    log = _ArrivalLog(fs, trace)
    model = {}
    cursor = {}
    for path in _FILES:
        model[path] = bytearray(bytes(range(256)) * (160 * KIB // 256))
        fs.write_file(path, bytes(model[path]))
    fs.sync()
    fs.flush_caches()

    def handle(path):
        if path not in model:
            model[path] = bytearray()
            fs.create(path).close()
        return fs.open(path)

    for op in ops:
        kind, args = op[0], op[1:]
        if kind in ("read", "next"):
            path = args[0]
            if kind == "read":
                first, count = args[1], args[2]
            else:
                first, count = cursor.get(path, 0), args[1]
            cursor[path] = first + count
            with handle(path) as h:
                data = h.pread(first * _BS, count * _BS)
                inum = h.inum
            expected = bytes(model[path][first * _BS : (first + count) * _BS])
            assert data == expected
            now = fs.clock.now()
            for lbn in range(first, first + count):
                key = BlockKey(inum, BlockKind.DATA, lbn)
                assert log.arrival.get(key, 0.0) <= now
        elif kind == "write":
            path, offset, length, value = args
            with handle(path) as h:
                h.pwrite(offset, bytes([value]) * length)
            data = model[path]
            if len(data) < offset:
                data.extend(bytes(offset - len(data)))
            data[offset : offset + length] = bytes([value]) * length
        elif kind == "truncate":
            path, size = args
            with handle(path) as h:
                h.truncate(size)
            data = model[path]
            del data[size:]
            data.extend(bytes(size - len(data)))
        elif kind == "unlink":
            if args[0] in model:
                fs.unlink(args[0])
                del model[args[0]]
        else:
            fs.flush_caches()
    for path, data in model.items():
        assert fs.read_file(path) == bytes(data)
