"""Readahead through the read path: what it saves, what a reader waits
for, and when the window is dropped.

The stream's own bookkeeping is unit-tested in
``tests/cache/test_readahead.py``; these tests drive whole file systems.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.inode import N_DIRECT, BlockKey, BlockKind
from repro.errors import MediaError
from repro.faults import FaultyDevice, ModelFS
from repro.obs import Telemetry
from repro.rig import new_rig
from repro.units import KIB, MIB
from tests.conftest import small_ffs_config, small_lfs_config

FILE_BLOCKS = {"lfs": 128, "ffs": 64}
VOLUME = 32 * MIB


def _rig(
    kind: str,
    telemetry=None,
    speed_factor=1.0,
    device=None,
    cache_bytes=2 * MIB,
    **lfs_overrides,
):
    lfs_overrides.setdefault("segment_size", 1 * MIB)
    return new_rig(
        kind,
        total_bytes=VOLUME,
        speed_factor=speed_factor,
        lfs_config=small_lfs_config(cache_bytes=cache_bytes, **lfs_overrides),
        ffs_config=small_ffs_config(cache_bytes=cache_bytes),
        telemetry=telemetry,
        device=device,
    )


def _pattern(nbytes: int) -> bytes:
    return bytes(range(256)) * (nbytes // 256)


def _contiguous_file(fs, nblocks: int):
    """A file of ``nblocks`` stored back to back, read back cold."""
    fs.write_file("/f", _pattern(nblocks * fs.block_size))
    fs.sync()
    inode = fs._get_inode(fs.stat("/f").inum)
    addrs = [fs.block_map.get(inode, lbn) for lbn in range(nblocks)]
    assert addrs == list(range(addrs[0], addrs[0] + nblocks))
    fs.flush_caches()
    return inode


def _count_data_reads(fs, inode=None):
    """Count the disk requests for data blocks: ``inode``'s, or any
    file's."""
    counts = {"data": 0}
    read = fs.disk.read
    wanted = "data:" if inode is None else f"data:{inode.inum}"

    def counting_read(sector, count, label="", **kwargs):
        if label == wanted or (inode is None and label.startswith(wanted)):
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
def test_small_files_read_in_log_order_issue_one_request_per_window(kind):
    """Files written together lie together: reading them back in the
    order they were written is one stream, whatever files it crosses."""
    fs = _rig(kind).fs
    nfiles = 64
    for index in range(nfiles):
        fs.write_file(f"/f{index}", bytes([index]) * fs.block_size)
    fs.sync()
    fs.flush_caches()
    counts = _count_data_reads(fs)
    for index in range(nfiles):
        assert fs.read_file(f"/f{index}") == bytes([index]) * fs.block_size
    window = fs.readahead.window_blocks
    assert counts["data"] <= -(-nfiles // window) + 2
    assert fs.readahead.stats.hits >= nfiles - counts["data"]


@pytest.mark.parametrize("kind", ["lfs", "ffs"])
def test_a_full_cluster_scan_is_no_slower_than_small_reads(kind):
    """Reads as large as the largest request still read ahead: the
    window is counted past the demand, not inside it.

    A scan is timed to when its last read has all its blocks, before
    that read's copy to the caller, which no read-ahead can overlap
    and which is eight times longer for a 64 KiB read."""
    ready = {}
    for request in (8 * KIB, 64 * KIB):
        fs = _rig(kind).fs
        size = 4 * MIB
        fs.write_file("/f", _pattern(size))
        fs.sync()
        fs.flush_caches()
        read_range = fs._read_range

        def timed_read_range(*args, request=request):
            data = read_range(*args)
            ready[request] = fs.clock.now() - start
            return data

        fs._read_range = timed_read_range
        start = fs.clock.now()
        with fs.open("/f") as handle:
            for offset in range(0, size, request):
                handle.pread(offset, request)
    assert ready[64 * KIB] <= ready[8 * KIB]


@pytest.mark.parametrize("kind", ["lfs", "ffs"])
def test_an_unreadable_block_read_ahead_fails_no_healthy_read(kind):
    """Read-ahead is best effort: a request that fails on a block read
    ahead is retried for the demanded blocks alone."""
    device = FaultyDevice(VOLUME // 512)
    fs = _rig(kind, device=device).fs
    nblocks = 64
    inode = _contiguous_file(fs, nblocks)
    bs, spb = fs.block_size, fs.sectors_per_block
    device.injector.mark_unreadable(fs.block_map.get(inode, 8) * spb)
    fs.flush_caches()
    data = _pattern(nblocks * bs)
    with fs.open("/f") as handle:
        for lbn in range(8):
            assert handle.pread(lbn * bs, bs) == data[lbn * bs : (lbn + 1) * bs]
        with pytest.raises(MediaError):
            handle.pread(8 * bs, bs)
        assert handle.pread(9 * bs, bs) == data[9 * bs : 10 * bs]


def test_a_run_before_blocks_the_window_served_is_not_extended():
    """A demand whose last block, under the next pointer container, is
    claimed from the window, while the block before it is read from the
    disk: that request reads nothing ahead, and sizing it looks nothing
    up."""
    fs = _rig("lfs").fs
    bs = fs.block_size
    fs.write_file("/x", b"")  # the lower inode number: logged first
    fs.write_file("/y", b"y" * (N_DIRECT * bs))
    fs.sync()
    fs.write_file("/x", b"x" * (4 * bs))
    with fs.open("/y") as handle:
        handle.pwrite(N_DIRECT * bs, b"z" * bs)  # logged right after /x
    fs.sync()
    fs.flush_caches()
    with fs.open("/x") as handle:
        handle.pread(0, 2 * bs)
        handle.pread(2 * bs, 2 * bs)  # continues: reads ahead into /y
    stats = fs.readahead.stats
    assert stats.blocks_prefetched > 0
    prefetched, claimed = stats.blocks_prefetched, stats.hits
    with fs.open("/y") as handle:
        hits = fs.cache.stats.hits
        assert handle.pread((N_DIRECT - 1) * bs, 2 * bs) == b"y" * bs + b"z" * bs
        # The two lookups that assemble the read; the walk to block
        # N_DIRECT read its leaf from the disk, a miss.
        assert fs.cache.stats.hits - hits == 2
    assert stats.hits == claimed + 1
    assert stats.blocks_prefetched == prefetched


@pytest.mark.parametrize("kind", ["lfs", "ffs"])
def test_a_read_waits_only_for_its_own_blocks(kind):
    telemetry = Telemetry(trace_io=True)
    fs = _rig(kind, telemetry=telemetry).fs
    nblocks = FILE_BLOCKS[kind]
    inode = _contiguous_file(fs, nblocks)
    fs.block_map.get(inode, N_DIRECT)  # the leaf: reads below are data only
    disk, bs, spb = fs.disk, fs.block_size, fs.sectors_per_block
    transfer = disk.geometry.transfer_time
    request = 8 * KIB
    claimed = 0
    with fs.open("/f") as handle:
        for offset in range(0, nblocks * bs, request):
            lbns = range(offset // bs, (offset + request) // bs)
            addrs = [
                fs.block_map.get(inode, lbn) for lbn in lbns
                if not fs.cache.contains(_data_key(inode, lbn))
            ]
            latest = next(
                (
                    span for span in reversed(telemetry.tracer.spans)
                    if span.kind in ("disk.read", "disk.write")
                ),
                None,
            )
            if latest is not None:
                first = latest.attrs["sector"]
                end = first + latest.attrs["bytes"] // 512
            if not addrs:
                bound = 0.0
            elif (
                latest is not None
                and latest.kind == "disk.read"
                and first <= addrs[0] * spb
                and (addrs[-1] + 1) * spb <= end
            ):
                # Read ahead by the latest request: waited for until its
                # last block has arrived, and no longer.
                claimed += 1
                after = end - (addrs[-1] + 1) * spb
                bound = max(
                    0.0,
                    disk.last_read_done - transfer(after * 512) - fs.clock.now(),
                )
            else:
                # Read from the disk: positioning and transfer of its
                # own blocks, once the disk is idle.
                positioning_and_transfer, _tier = disk.service_time(
                    addrs[0] * spb, len(addrs) * bs
                )
                bound = (
                    max(0.0, disk.busy_until - fs.clock.now())
                    + positioning_and_transfer
                )
            stall = disk.sync_stall_seconds
            handle.pread(offset, request)
            assert disk.sync_stall_seconds - stall <= bound + 1e-12
    assert fs.readahead.stats.blocks_prefetched > 0
    assert claimed >= nblocks * bs // request - 4


class TestStreamsAreDropped:
    """A hit is a block read ahead that a demand read took from the
    window; a window does not outlive the cache or the bytes it read."""

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
        reads = fs.disk.stats.reads
        handle.pread(4 * fs.block_size, 2 * fs.block_size)
        assert fs.disk.stats.reads > reads
        assert fs.readahead.stats.hits == 0

    def test_evicted_blocks_are_no_hits(self):
        fs = _rig("lfs").fs
        inode, handle = self._stream(fs)
        handle.pread(4 * fs.block_size, 2 * fs.block_size)
        assert fs.readahead.stats.hits == 2
        # Evicted and taken from the window again: no second hit.
        fs.cache.discard(_data_key(inode, 4))
        fs.cache.discard(_data_key(inode, 5))
        reads = fs.disk.stats.reads
        handle.pread(4 * fs.block_size, 2 * fs.block_size)
        assert fs.disk.stats.reads == reads
        assert fs.readahead.stats.hits == 2
        handle.pread(6 * fs.block_size, 2 * fs.block_size)
        assert fs.readahead.stats.hits == 4

    def test_shrinking_truncate(self):
        fs = _rig("lfs").fs
        _inode, handle = self._stream(fs)
        bs = fs.block_size
        handle.truncate(8 * bs)
        # The blocks the file keeps are still taken from the window.
        assert handle.pread(4 * bs, 2 * bs) == _pattern(N_DIRECT * bs)[
            4 * bs : 6 * bs
        ]
        assert fs.readahead.stats.hits == 2
        handle.truncate(0)
        handle.pwrite(0, b"n" * (16 * bs))
        assert handle.pread(4 * bs, 2 * bs) == b"n" * (2 * bs)
        assert fs.readahead.stats.hits == 2

    def test_crash(self):
        fs = _rig("lfs").fs
        inode, _handle = self._stream(fs)
        addr = fs.block_map.get(inode, 4)
        fs.crash()
        assert fs.readahead.claim(addr) is None
        assert not fs.readahead.continues(_data_key(inode, 4), addr)


# ----------------------------------------------------------------------
# Reads equal a model, and never return a block before it has arrived
# ----------------------------------------------------------------------

_FILES = ("/a", "/b", "/c", "/d")
_BS = 4 * KIB
_SIZES = {"/a": 12 * _BS, "/b": 3 * _BS, "/c": 20 * _BS, "/d": 1 * _BS}

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("read"), st.sampled_from(_FILES),
            st.integers(0, 24), st.integers(1, 4),
        ),
        st.tuples(
            st.just("next"), st.sampled_from(_FILES), st.integers(1, 4)
        ),
        st.tuples(st.just("scan")),
        st.tuples(
            st.just("write"), st.sampled_from(_FILES),
            st.integers(0, 100 * KIB), st.integers(1, 24 * KIB),
            st.integers(0, 255),
        ),
        st.tuples(
            st.just("overwrite"), st.sampled_from(_FILES),
            st.integers(0, 19), st.integers(0, 255),
        ),
        st.tuples(
            st.just("truncate"), st.sampled_from(_FILES),
            st.integers(0, 100 * KIB),
        ),
        st.tuples(st.just("unlink"), st.sampled_from(_FILES)),
        st.tuples(st.just("flush")),
        st.tuples(st.just("clean")),
    ),
    max_size=40,
)


class _ArrivalLog:
    """Checks every block the read path puts in the cache from the disk:
    it was read after the last write to its address, and had arrived
    (its request's completion less the transfer of the blocks after it)
    when it entered the cache.

    Blocks a request read ahead are remembered by address; a block
    claimed from the window is checked against the request that read
    it ahead, a block read on demand against its own request.
    """

    def __init__(self, fs) -> None:
        self.checked = 0
        self.claims = 0
        requests = iter(range(1, 1 << 62))
        written = {}  # addr -> request number of the last write
        ahead = {}  # addr -> (request number, arrival) of a read-ahead
        pending = []  # (addr, request number, arrival), in insert order
        claimed = []
        disk, cache, readahead = fs.disk, fs.cache, fs.readahead
        read, write, insert, claim = (
            disk.read, disk.write, cache.insert, readahead.claim
        )
        spb = fs.sectors_per_block
        bs = fs.block_size

        def logged_read(sector, count, label="", **kwargs):
            data = read(sector, count, label, **kwargs)
            number = next(requests)
            done = disk.last_read_done
            pending.clear()
            if label.startswith(("data:", "inode")) and not sector % spb:
                demand = kwargs.get("demand")
                if demand is None:
                    demand = count
                for index in range(count // spb):
                    after = (count - (index + 1) * spb) * 512
                    entry = (
                        number, done - disk.geometry.transfer_time(after)
                    )
                    if (index + 1) * spb <= demand:
                        pending.append((sector // spb + index, *entry))
                    else:
                        ahead[sector // spb + index] = entry
            return data

        def logged_write(sector, data, *args, **kwargs):
            number = next(requests)
            pending.clear()
            last = (sector + len(data) // 512 - 1) // spb
            for addr in range(sector // spb, last + 1):
                written[addr] = number
            return write(sector, data, *args, **kwargs)

        def logged_claim(addr):
            result = claim(addr)
            if result is not None:
                claimed.append(addr)
            return result

        def logged_insert(key, payload, dirty, now):
            source = None
            if claimed:
                addr = claimed.pop()
                source = ahead[addr]
                self.claims += 1
            elif pending and key.kind in (BlockKind.DATA, BlockKind.INODE):
                addr, *source = pending.pop(0)
                if dirty:
                    source = None
            if source is not None and len(payload) == bs:
                number, arrival = source
                assert number > written.get(addr, 0), (key, addr)
                assert fs.clock.now() >= arrival, (key, addr)
                self.checked += 1
            return insert(key, payload, dirty, now)

        disk.read = logged_read
        disk.write = logged_write
        readahead.claim = logged_claim
        cache.insert = logged_insert


# A stream whose reads catch up with blocks still in flight, once after
# a truncate that keeps them (the leaf it edits is cached by then).
STREAM = [
    ("read", "/c", N_DIRECT, 2),
    ("next", "/c", 2),
    ("truncate", "/c", (N_DIRECT + 5) * _BS),
    ("next", "/c", 2),
    ("next", "/c", 2),
]
# Files read back in the order they were written: one stream.
SCAN = [("scan",), ("scan",)]
# A window over blocks the disk then rewrites, kept until the cache
# has dropped them and a read asks for them again: LFS writes the log's
# free tail the window ran into, FFS overwrites a block in place.
_EVICT = [("write", "/b", offset * KIB, 24 * KIB, 5) for offset in range(0, 240, 24)]
OVERWRITE = {
    "lfs": [
        ("write", "/b", 0, 4 * KIB, 3),
        ("overwrite", "/d", 0, 9),
        ("flush",),
        ("read", "/b", 0, 1),
        ("read", "/d", 0, 1),
        ("overwrite", "/d", 0, 11),
        *_EVICT,
        ("read", "/d", 0, 1),
    ],
    "ffs": [
        ("read", "/a", 0, 1),
        ("read", "/a", 2, 1),
        ("overwrite", "/a", 8, 7),
        *_EVICT,
        ("read", "/a", 8, 1),
    ],
}


@settings(max_examples=60, deadline=None)
@example(kind="lfs", ops=STREAM)
@example(kind="lfs", ops=SCAN)
@example(kind="ffs", ops=SCAN)
@example(kind="lfs", ops=OVERWRITE["lfs"])
@example(kind="ffs", ops=OVERWRITE["ffs"])
@given(kind=st.sampled_from(["lfs", "ffs"]), ops=_ops)
def test_reads_match_a_model_and_wait_for_arrivals(kind, ops):
    # A CPU fast enough to outrun the disk, so that reads do catch up
    # with blocks still in flight.
    fs = _rig(
        kind,
        speed_factor=100.0,
        segment_size=64 * KIB,
        cache_bytes=128 * KIB,
    ).fs
    # A quarter of the cache.
    assert fs.readahead.window_blocks == 32 * KIB // fs.block_size
    log = _ArrivalLog(fs)
    model = ModelFS()
    cursor = {}
    # Written together, so that they lie together.
    for index, path in enumerate(_FILES):
        data = bytes([index + 1]) * (_SIZES[path] // 2) + _pattern(
            _SIZES[path] // 2
        )
        fs.write_file(path, data)
        model.create(path)
        model.write(path, 0, data)
    fs.sync()
    fs.flush_caches()

    def handle(path):
        if path not in model.files():
            model.create(path)
            fs.create(path).close()
        return fs.open(path)

    def check_read(path, first, count):
        with handle(path) as h:
            data = h.pread(first * _BS, count * _BS)
        assert data == model.read_file(path)[first * _BS : (first + count) * _BS]

    for op in ops:
        kind_, args = op[0], op[1:]
        if kind_ in ("read", "next"):
            path = args[0]
            if kind_ == "read":
                first, count = args[1], args[2]
            else:
                first, count = cursor.get(path, 0), args[1]
            cursor[path] = first + count
            check_read(path, first, count)
        elif kind_ == "scan":
            for path in model.files():
                assert fs.read_file(path) == model.read_file(path)
        elif kind_ in ("write", "overwrite"):
            if kind_ == "write":
                path, offset, length, value = args
            else:
                path, lbn, value = args
                offset, length = lbn * _BS, _BS
            with handle(path) as h:
                h.pwrite(offset, bytes([value]) * length)
            model.write(path, offset, bytes([value]) * length)
            if kind_ == "overwrite":
                fs.sync()  # to the disk: in place on FFS
        elif kind_ == "truncate":
            path, size = args
            with handle(path) as h:
                h.truncate(size)
            model.truncate(path, size)
        elif kind_ == "unlink":
            if args[0] in model.files():
                fs.unlink(args[0])
                model.unlink(args[0])
        elif kind_ == "clean":
            if kind == "lfs":
                fs.clean_now()  # reuses a segment
            else:
                fs.sync()
        else:
            fs.flush_caches()
    assert model.check(fs, require_latest=True) == []
    if ops in (SCAN, STREAM):
        assert log.claims > 0
