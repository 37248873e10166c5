"""Unit tests for segment allocation and the segment writer."""

import random
from dataclasses import replace

import pytest

from repro.common.inode import BlockKind
from repro.disk.geometry import wren_iv
from repro.disk.sim_disk import SimDisk
from repro.errors import CleanerError, NoSpaceError
from repro.lfs.config import LfsConfig, LfsLayout
from repro.lfs.filesystem import make_lfs
from repro.lfs.segments import PlannedBlock, SegmentManager
from repro.lfs.segment_usage import SegmentState, SegmentUsage
from repro.lfs.summary import SegmentSummary, SummaryEntry
from repro.lfs.verify import verify_lfs
from repro.sim.clock import SimClock
from repro.units import KIB, MIB

BS = 4 * KIB
SEG = 64 * KIB  # 16 blocks per segment: small, to test splitting


@pytest.fixture
def rig():
    clock = SimClock()
    disk = SimDisk(wren_iv(16 * MIB), clock)
    config = LfsConfig(segment_size=SEG, max_inodes=512)
    layout = LfsLayout.for_device(config, disk.device.total_bytes)
    usage = SegmentUsage(layout.num_segments, SEG, BS)
    manager = SegmentManager(layout, usage, disk, clock, reserve_segments=2)
    manager.start_fresh()
    return manager, usage, layout, disk


def planned(n: int, sink: list) -> list:
    blocks = []
    for i in range(n):
        entry = SummaryEntry(kind=BlockKind.DATA, inum=1, index=i)

        def finalize(addr: int, i=i) -> None:
            sink.append((i, addr))

        def write_into(out: memoryview, i=i) -> None:
            out[:] = bytes([i % 256]) * BS

        blocks.append(
            PlannedBlock(entry=entry, finalize=finalize, write_into=write_into)
        )
    return blocks


class TestLayout:
    def test_segment_alignment(self):
        config = LfsConfig(segment_size=SEG)
        layout = LfsLayout.for_device(config, 16 * MIB)
        assert layout.seg_start_block % config.blocks_per_segment == 0
        assert layout.segment_first_block(0) == layout.seg_start_block
        assert (
            layout.segment_first_block(1)
            == layout.seg_start_block + config.blocks_per_segment
        )

    def test_segment_of_block(self):
        config = LfsConfig(segment_size=SEG)
        layout = LfsLayout.for_device(config, 16 * MIB)
        addr = layout.segment_first_block(3) + 5
        assert layout.segment_of_block(addr) == 3

    def test_rejects_blocks_before_log(self):
        config = LfsConfig(segment_size=SEG)
        layout = LfsLayout.for_device(config, 16 * MIB)
        with pytest.raises(Exception):
            layout.segment_of_block(0)

    def test_too_small_device_rejected(self):
        config = LfsConfig(segment_size=1 * MIB)
        with pytest.raises(Exception):
            LfsLayout.for_device(config, 2 * MIB)


class TestWritePlan:
    def test_single_partial_segment(self, rig):
        manager, usage, layout, disk = rig
        sink = []
        nbytes = manager.write_plan(planned(4, sink))
        assert nbytes == 5 * BS  # summary + 4 content blocks
        # Addresses are consecutive after the summary.
        addrs = [addr for _i, addr in sink]
        assert addrs == list(range(addrs[0], addrs[0] + 4))

    def test_payload_written_to_disk(self, rig):
        manager, usage, layout, disk = rig
        sink = []
        manager.write_plan(planned(2, sink))
        disk.drain()
        _i, addr = sink[0]
        spb = layout.config.sectors_per_block
        assert disk.read(addr * spb, spb) == b"\x00" * BS

    def test_summary_readable_from_disk(self, rig):
        manager, usage, layout, disk = rig
        pos_before = manager.position.active_offset
        seq = manager.position.sequence
        manager.write_plan(planned(3, []))
        disk.drain()
        first = layout.segment_first_block(
            manager.position.active_segment
        ) + pos_before
        spb = layout.config.sectors_per_block
        raw = disk.read(first * spb, spb)
        summary = SegmentSummary.unpack(raw, BS)
        assert summary.seq == seq
        assert summary.nblocks == 3
        assert summary.next_segment_block == layout.segment_first_block(
            manager.position.next_segment
        )

    def test_sequence_increments_per_partial(self, rig):
        manager, usage, layout, disk = rig
        seq = manager.position.sequence
        manager.write_plan(planned(1, []))
        manager.write_plan(planned(1, []))
        assert manager.position.sequence == seq + 2

    def test_plan_spanning_segments(self, rig):
        manager, usage, layout, disk = rig
        # 16 blocks per segment; 40 content blocks must span 3+ segments.
        sink = []
        manager.write_plan(planned(40, sink))
        segments = {layout.segment_of_block(addr) for _i, addr in sink}
        assert len(segments) >= 3
        assert len(sink) == 40

    def test_filled_segments_marked_dirty(self, rig):
        manager, usage, layout, disk = rig
        start_seg = manager.position.active_segment
        manager.write_plan(planned(40, []))
        assert usage.info(start_seg).state is SegmentState.DIRTY

    def test_active_and_next_marked_active(self, rig):
        manager, usage, layout, disk = rig
        manager.write_plan(planned(40, []))
        pos = manager.position
        assert usage.info(pos.active_segment).state is SegmentState.ACTIVE
        assert usage.info(pos.next_segment).state is SegmentState.ACTIVE

    def test_empty_plan_writes_nothing(self, rig):
        manager, usage, layout, disk = rig
        assert manager.write_plan([]) == 0
        assert disk.stats.writes == 0

    def test_one_async_request_per_partial(self, rig):
        manager, usage, layout, disk = rig
        manager.write_plan(planned(4, []))
        assert disk.stats.writes == 1
        assert disk.stats.sync_requests == 0

    def test_bad_payload_size_rejected(self, rig):
        manager, usage, layout, disk = rig

        def write_into(out: memoryview) -> None:
            out[:] = b"short"

        block = PlannedBlock(
            entry=SummaryEntry(kind=BlockKind.DATA, inum=1, index=0),
            finalize=lambda addr: None,
            write_into=write_into,
        )
        manager.write_plan(planned(1, []))  # the pool now owns one buffer
        before = replace(manager.position)
        # A block-sized slice of the pooled buffer refuses any other size.
        with pytest.raises(ValueError):
            manager.write_plan([block])
        assert manager.position == before
        assert disk.stats.writes == 1
        manager.write_plan(planned(1, []))
        assert manager.pool.allocations == 1  # the buffer went back


class TestSpaceManagement:
    def test_reserve_enforced(self, rig):
        manager, usage, layout, disk = rig
        with pytest.raises(NoSpaceError):
            # Way more blocks than the device can hold.
            manager.write_plan(planned(layout.num_segments * 16, []))

    def test_no_space_leaves_the_log_position_intact(self, rig):
        manager, usage, layout, disk = rig
        with pytest.raises(NoSpaceError):
            manager.write_plan(planned(layout.num_segments * 16, []))
        # The failed advance must not have moved into the successor
        # without claiming a new one: a position whose active and next
        # segment coincide re-enters that segment at offset 0 on the
        # retry and overwrites what it just wrote.
        pos = manager.position
        assert pos.active_segment != pos.next_segment
        assert usage.info(pos.active_segment).state is SegmentState.ACTIVE
        assert usage.info(pos.next_segment).state is SegmentState.ACTIVE

    def test_rewrite_after_clean_and_retry_on_a_tight_volume(self):
        # Figure 4's write phases on a 24-segment volume holding one
        # 8 MiB file: the random rewrites run the log out of clean
        # segments mid-flush, flush_log cleans and retries, and the
        # second sequential write then used to die with "segment 8
        # accounts 1048896 live bytes, capacity is 1048576".
        fs = make_lfs(total_bytes=25 * MIB)
        request = 8 * KIB
        n_requests = 8 * MIB // request
        payload = b"x" * request
        handle = fs.create("/big")
        for index in range(n_requests):
            handle.pwrite(index * request, payload)
        fs.sync()
        fs.flush_caches()
        rng = random.Random(0)
        for _ in range(n_requests):
            handle.pwrite(rng.randrange(n_requests) * request, payload)
        fs.sync()
        fs.flush_caches()
        for index in range(n_requests):
            handle.pwrite(index * request, payload)
        fs.sync()
        handle.close()
        fs.unmount()
        assert verify_lfs(fs.disk.device).consistent

    def test_cleaner_mode_can_dip_into_reserve(self, rig):
        manager, usage, layout, disk = rig
        manager.cleaner_mode = True
        total = layout.num_segments
        # Consume down into the reserve; only "no clean segments at all"
        # stops the cleaner.
        with pytest.raises(NoSpaceError, match="no clean segments"):
            manager.write_plan(planned(total * 16, []))

    def test_restore_position(self, rig):
        manager, usage, layout, disk = rig
        manager.write_plan(planned(3, []))
        saved = manager.position
        other = SegmentManager(layout, usage, disk, SimClock(), 2)
        other.restore(saved)
        assert other.position == saved
        assert other.position is not saved  # defensive copy

    def test_position_requires_open_log(self, rig):
        _manager, usage, layout, disk = rig
        fresh = SegmentManager(layout, usage, disk, SimClock(), 2)
        with pytest.raises(CleanerError):
            fresh.position

    def test_stats_accumulate(self, rig):
        manager, usage, layout, disk = rig
        manager.write_plan(planned(4, []))
        assert manager.partial_segments_written == 1
        assert manager.log_bytes_written == 5 * BS
        manager.cleaner_mode = True
        manager.write_plan(planned(1, []))
        assert manager.cleaner_bytes_written == 2 * BS


class TestSegmentBufferPool:
    def test_first_acquire_allocates(self):
        from repro.lfs.segments import SegmentBufferPool

        pool = SegmentBufferPool(SEG)
        buf = pool.acquire()
        assert isinstance(buf, bytearray) and len(buf) == SEG
        assert pool.allocations == 1 and pool.reuses == 0

    def test_release_then_acquire_reuses_same_buffer(self):
        from repro.lfs.segments import SegmentBufferPool

        pool = SegmentBufferPool(SEG)
        buf = pool.acquire()
        pool.release(buf)
        again = pool.acquire()
        assert again is buf
        assert pool.allocations == 1 and pool.reuses == 1

    def test_wrong_size_and_excess_buffers_dropped(self):
        from repro.lfs.segments import SegmentBufferPool

        pool = SegmentBufferPool(SEG, max_buffers=1)
        pool.release(bytearray(SEG - 1))  # wrong size: never pooled
        assert pool.acquire() is not None and pool.reuses == 0
        a, b = bytearray(SEG), bytearray(SEG)
        pool.release(a)
        pool.release(b)  # over max_buffers: dropped
        assert pool.acquire() is a
        assert pool.allocations == 1 and pool.reuses == 1

    def test_telemetry_counts_reuse(self):
        from repro.obs import Telemetry
        from repro.lfs.segments import SegmentBufferPool

        telemetry = Telemetry()
        pool = SegmentBufferPool(SEG, telemetry=telemetry)
        pool.release(pool.acquire())
        pool.acquire()
        assert (
            telemetry.registry.value("alloc.segment_pool_reuse") == 1
        )

    def test_steady_state_stops_allocating(self, rig):
        manager, usage, layout, disk = rig
        for _ in range(6):
            manager.write_plan(planned(4, []))
        # Partial segments cycle through the pool: after the first
        # assembly the writer never allocates another staging buffer.
        assert manager.pool.allocations == 1
        assert manager.pool.reuses >= 5
