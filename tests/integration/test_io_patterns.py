"""Tests that pin the *disk access patterns* each design produces.

These are the mechanism checks behind the performance results: if one
of these regresses, a benchmark shape will silently degrade.
"""

import pytest

from repro.disk.sim_disk import AccessTier, SimDisk
from repro.disk.geometry import wren_iv
from repro.ffs.filesystem import FastFileSystem
from repro.lfs.filesystem import LogStructuredFS
from repro.obs import Telemetry
from repro.units import MIB
from tests.conftest import small_ffs_config, small_lfs_config


def _traced(mkfs, config, clock, cpu):
    """A fresh file system and the tracer that holds its disk spans."""
    telemetry = Telemetry(trace_io=True)
    disk = SimDisk(wren_iv(64 * MIB), clock, telemetry=telemetry)
    fs = mkfs(disk, cpu, config)
    telemetry.tracer.clear()
    return fs, telemetry.tracer


def _writes(tracer):
    return tracer.by_kind("disk.write")


@pytest.fixture
def traced_lfs(clock, cpu):
    return _traced(LogStructuredFS.mkfs, small_lfs_config(), clock, cpu)


@pytest.fixture
def traced_ffs(clock, cpu):
    return _traced(FastFileSystem.mkfs, small_ffs_config(), clock, cpu)


class TestLfsWritePattern:
    def test_flush_is_one_large_write(self, traced_lfs):
        fs, trace = traced_lfs
        for i in range(20):
            fs.write_file(f"/f{i}", b"x" * 3000)
        fs.flush_log()
        writes = _writes(trace)
        assert len(writes) == 1
        assert writes[0].attrs["bytes"] > 20 * 3000

    def test_consecutive_flushes_sequential(self, traced_lfs):
        fs, trace = traced_lfs
        for round_ in range(3):
            fs.write_file(f"/r{round_}", b"y" * 5000)
            fs.flush_log()
        writes = _writes(trace)
        assert len(writes) == 3
        # All but the first land exactly where the previous ended.
        assert all(
            w.attrs["tier"] == AccessTier.SEQUENTIAL for w in writes[1:]
        )

    def test_checkpoint_is_the_only_sync_write(self, traced_lfs):
        fs, trace = traced_lfs
        fs.write_file("/f", b"z" * 10000)
        fs.checkpoint()
        sync_writes = [w for w in _writes(trace) if w.attrs["sync"]]
        assert len(sync_writes) == 1
        assert "checkpoint" in sync_writes[0].attrs["label"]


class TestFfsWritePattern:
    def test_writeback_one_request_per_block(self, traced_ffs):
        fs, trace = traced_ffs
        with fs.create("/f") as handle:
            handle.write(b"d" * fs.block_size * 6)
        trace.clear()
        fs.sync()
        data_writes = [
            span for span in _writes(trace) if "writeback" in span.attrs["label"]
        ]
        # Six data blocks -> at least six separate requests (SunOS-era
        # FFS does not cluster writes).
        assert len(data_writes) >= 6
        assert all(e.attrs["bytes"] == fs.block_size for e in data_writes)

    def test_random_writes_flush_in_dirty_order(self, traced_ffs):
        fs, trace = traced_ffs
        with fs.create("/f") as handle:
            handle.write(b"s" * fs.block_size * 16)
        fs.sync()
        # Dirty blocks in a scrambled order.
        order = [9, 2, 14, 5, 11, 0]
        with fs.open("/f") as handle:
            for lbn in order:
                handle.pwrite(lbn * fs.block_size, b"R" * fs.block_size)
        trace.clear()
        fs.sync()
        data_writes = [
            span for span in _writes(trace) if "data" in span.attrs["label"]
        ]
        sectors = [span.attrs["sector"] for span in data_writes]
        # The flush follows dirty order, not an elevator sweep: the
        # sector sequence is NOT sorted (this is the §5.2 random-write
        # penalty mechanism).
        assert sectors != sorted(sectors)


class TestReadClustering:
    def test_sequential_read_coalesces_requests(self, anyfs):
        payload = b"c" * (anyfs.block_size * 8)
        anyfs.write_file("/f", payload)
        anyfs.flush_caches()
        reads_before = anyfs.disk.stats.reads
        assert anyfs.read_file("/f") == payload
        data_reads = anyfs.disk.stats.reads - reads_before
        # Far fewer requests than blocks: contiguous runs coalesce.
        assert data_reads < 8

    def test_scattered_blocks_need_separate_requests(self, lfs):
        # Write blocks of one file in separate flushes so they end up
        # discontiguous in the log.
        with lfs.create("/scatter") as handle:
            for lbn in range(4):
                handle.pwrite(lbn * lfs.block_size, b"s" * lfs.block_size)
                lfs.flush_log()
        lfs.flush_caches()
        reads_before = lfs.disk.stats.reads
        lfs.read_file("/scatter")
        assert lfs.disk.stats.reads - reads_before >= 3
