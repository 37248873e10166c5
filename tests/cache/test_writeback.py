"""Unit tests for write-back triggers (§4.3.5)."""

import pytest

from repro.cache.block_cache import BlockCache
from repro.cache.writeback import (
    AGE_THRESHOLD,
    WritebackMonitor,
    WritebackReason,
)
from repro.common.inode import BlockKey, BlockKind
from repro.sim.clock import SimClock

BS = 4096


def key(index: int) -> BlockKey:
    return BlockKey(1, BlockKind.DATA, index)


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def cache():
    return BlockCache(capacity_bytes=8 * BS, block_size=BS)


class TestConfig:
    def test_defaults_match_paper(self):
        # §4.3.5: "The current LFS implementation uses a threshold of
        # 30 seconds."
        assert AGE_THRESHOLD == 30.0


class TestTriggers:
    def test_quiet_cache_no_trigger(self, cache, clock):
        monitor = WritebackMonitor(cache, clock)
        assert monitor.check() is None

    def test_cache_full_trigger(self, cache, clock):
        monitor = WritebackMonitor(cache, clock)
        for i in range(4):  # 4 of 8 blocks dirty = the threshold
            cache.insert(key(i), bytearray(BS), dirty=True, now=0.0)
        assert monitor.check() is WritebackReason.CACHE_FULL

    def test_below_threshold_no_trigger(self, cache, clock):
        monitor = WritebackMonitor(cache, clock)
        for i in range(3):
            cache.insert(key(i), bytearray(BS), dirty=True, now=0.0)
        assert monitor.check() is None

    def test_age_trigger(self, cache, clock):
        monitor = WritebackMonitor(cache, clock)
        cache.insert(key(0), bytearray(BS), dirty=True, now=clock.now())
        clock.advance(29.0)
        assert monitor.check() is None
        clock.advance(1.5)
        assert monitor.check() is WritebackReason.AGE

    def test_age_trigger_clears_after_clean(self, cache, clock):
        monitor = WritebackMonitor(cache, clock)
        cache.insert(key(0), bytearray(BS), dirty=True, now=clock.now())
        clock.advance(31.0)
        assert monitor.check() is WritebackReason.AGE
        cache.mark_clean(key(0))
        assert monitor.check() is None

    def test_trigger_counters(self, cache, clock):
        monitor = WritebackMonitor(cache, clock)
        cache.insert(key(0), bytearray(BS), dirty=True, now=clock.now())
        clock.advance(31.0)
        monitor.check()
        monitor.note_explicit(WritebackReason.SYNC)
        assert monitor.triggers[WritebackReason.AGE] == 1
        assert monitor.triggers[WritebackReason.SYNC] == 1


class TestNextAgeDeadline:
    def test_none_while_clean(self, cache, clock):
        monitor = WritebackMonitor(cache, clock)
        assert monitor.next_age_deadline() is None

    def test_tracks_oldest_dirty_block(self, cache, clock):
        monitor = WritebackMonitor(cache, clock)
        clock.advance(5.0)
        cache.insert(key(0), bytearray(BS), dirty=True, now=clock.now())
        clock.advance(10.0)
        cache.insert(key(1), bytearray(BS), dirty=True, now=clock.now())
        assert monitor.next_age_deadline() == pytest.approx(35.0)

    def test_deadline_advances_when_oldest_cleaned(self, cache, clock):
        monitor = WritebackMonitor(cache, clock)
        cache.insert(key(0), bytearray(BS), dirty=True, now=clock.now())
        clock.advance(10.0)
        cache.insert(key(1), bytearray(BS), dirty=True, now=clock.now())
        cache.mark_clean(key(0))
        assert monitor.next_age_deadline() == pytest.approx(40.0)


class TestExplicitFlushResetsTriggerState:
    """Satellite coverage: note_explicit + the flush it announces must
    leave the monitor quiescent — both the dirty-bytes threshold and
    the age clock restart from the post-flush dirty set."""

    def _dirty_to_threshold(self, cache, clock):
        for i in range(4):
            cache.insert(key(i), bytearray(BS), dirty=True, now=clock.now())

    def _explicit_flush(self, monitor, cache):
        """What fsync/sync do: note the trigger, then flush everything."""
        monitor.note_explicit(WritebackReason.SYNC)
        for block in list(cache.dirty_blocks()):
            cache.mark_clean(block.key)

    def test_threshold_trigger_resets_after_explicit_flush(
        self, cache, clock
    ):
        monitor = WritebackMonitor(cache, clock)
        self._dirty_to_threshold(cache, clock)
        assert monitor.check() is WritebackReason.CACHE_FULL
        self._explicit_flush(monitor, cache)
        assert monitor.check() is None
        assert monitor.triggers[WritebackReason.SYNC] == 1
        # Re-dirtying must be able to re-arm the threshold trigger.
        self._dirty_to_threshold(cache, clock)
        assert monitor.check() is WritebackReason.CACHE_FULL
        assert monitor.triggers[WritebackReason.CACHE_FULL] == 2

    def test_age_clock_restarts_after_explicit_flush(self, cache, clock):
        monitor = WritebackMonitor(cache, clock)
        cache.insert(key(0), bytearray(BS), dirty=True, now=clock.now())
        clock.advance(31.0)
        assert monitor.check() is WritebackReason.AGE
        self._explicit_flush(monitor, cache)
        assert monitor.check() is None
        assert monitor.next_age_deadline() is None
        # A block dirtied after the flush gets a fresh 30 s budget
        # measured from *its* dirty time, not the pre-flush epoch.
        cache.insert(key(1), bytearray(BS), dirty=True, now=clock.now())
        assert monitor.next_age_deadline() == pytest.approx(
            clock.now() + 30.0
        )
        clock.advance(29.0)
        assert monitor.check() is None
        clock.advance(2.0)
        assert monitor.check() is WritebackReason.AGE

    def test_explicit_flush_via_real_lfs_fsync(self):
        from repro import make_lfs

        fs = make_lfs(total_bytes=16 * 1024 * 1024)
        with fs.create("/f") as handle:
            handle.write(b"x" * BS)
            assert fs.monitor.next_age_deadline() is not None
            handle.fsync()
        assert fs.monitor.next_age_deadline() is None
        assert fs.monitor.check() is None
        assert fs.monitor.triggers[WritebackReason.SYNC] >= 1
