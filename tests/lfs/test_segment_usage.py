"""Unit tests for the segment usage array (§4.3.4)."""

import pytest

from repro.common.inode import NIL
from repro.errors import CorruptionError
from repro.lfs.segment_usage import (
    SegmentInfo,
    SegmentState,
    SegmentUsage,
    USAGE_ENTRY_SIZE,
)

SEG = 256 * 1024
BS = 4096


@pytest.fixture
def usage() -> SegmentUsage:
    return SegmentUsage(num_segments=32, segment_size=SEG, block_size=BS)


class TestEntrySerialization:
    def test_roundtrip(self):
        info = SegmentInfo(
            live_bytes=12345, last_write=6.5, state=SegmentState.DIRTY
        )
        packed = info.pack()
        assert len(packed) == USAGE_ENTRY_SIZE
        assert SegmentInfo.unpack(packed) == info


class TestAccounting:
    def test_fresh_segments_clean_and_empty(self, usage):
        assert usage.clean_count() == 32
        assert usage.total_live_bytes() == 0

    def test_note_write(self, usage):
        usage.note_write(3, BS, now=1.0)
        info = usage.info(3)
        assert info.live_bytes == BS
        assert info.last_write == 1.0

    def test_note_write_overflow_raises(self, usage):
        with pytest.raises(CorruptionError):
            usage.note_write(0, SEG + 1, now=0.0)

    def test_note_dead(self, usage):
        usage.note_write(0, 2 * BS, now=0.0)
        usage.note_dead(0, BS)
        assert usage.info(0).live_bytes == BS
        assert usage.underflow_clamps == 0

    def test_note_dead_clamps_and_counts(self, usage):
        usage.note_dead(0, BS)
        assert usage.info(0).live_bytes == 0
        assert usage.underflow_clamps == 1

    @pytest.mark.parametrize("live", [0, 100, BS, 3 * BS - 1, 3 * BS, 9 * BS])
    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_counted_note_dead_is_repeated_single_notes(self, live, count):
        one, many = (
            SegmentUsage(num_segments=4, segment_size=SEG, block_size=BS)
            for _ in range(2)
        )
        for each in (one, many):
            each.note_write(1, live, now=0.0)
        for _ in range(count):
            one.note_dead(1, BS)
        many.note_dead(1, BS, count)
        assert many.info(1) == one.info(1)
        assert many.underflow_clamps == one.underflow_clamps
        assert many.total_live_bytes() == one.total_live_bytes()

    def test_note_write_hint_clamps(self, usage):
        usage.note_write_hint(0, SEG + 999, now=0.0)
        assert usage.info(0).live_bytes == SEG

    def test_utilization(self, usage):
        usage.note_write(0, SEG // 2, now=0.0)
        assert usage.utilization(0) == pytest.approx(0.5)

    def test_out_of_range(self, usage):
        with pytest.raises(CorruptionError):
            usage.info(32)
        with pytest.raises(CorruptionError):
            usage.info(-1)


class TestStates:
    def test_lifecycle(self, usage):
        usage.mark_active(5)
        assert usage.info(5).state is SegmentState.ACTIVE
        usage.mark_dirty(5)
        assert 5 in usage.dirty_segments()
        usage.mark_clean(5, now=2.0)
        assert 5 in usage.clean_segments()
        assert usage.info(5).live_bytes == 0

    def test_mark_active_requires_clean(self, usage):
        usage.mark_dirty(1)
        with pytest.raises(CorruptionError):
            usage.mark_active(1)

    def test_force_state(self, usage):
        usage.mark_dirty(1)
        usage.force_state(1, SegmentState.ACTIVE)
        assert usage.info(1).state is SegmentState.ACTIVE

    def test_clean_count_tracks_transitions(self, usage):
        usage.mark_active(0)
        usage.mark_active(1)
        assert usage.clean_count() == 30
        usage.mark_dirty(0)
        usage.mark_clean(0, now=0.0)
        assert usage.clean_count() == 31


class TestBlocks:
    def test_pack_load_roundtrip(self, usage):
        usage.note_write(1, 3 * BS, now=4.0)
        usage.mark_dirty(1)
        packed = usage.pack_block(0)
        assert len(packed) == BS

        other = SegmentUsage(num_segments=32, segment_size=SEG, block_size=BS)
        other.load_block(0, packed)
        assert other.info(1).live_bytes == 3 * BS
        assert other.info(1).state is SegmentState.DIRTY

    def test_load_all(self, usage):
        usage.note_write(2, BS, now=0.0)
        packed = usage.pack_block(0)
        other = SegmentUsage(num_segments=32, segment_size=SEG, block_size=BS)
        other.load_all([700], lambda addr: packed)
        assert other.info(2).live_bytes == BS
        assert other.block_addrs == [700]

    def test_load_all_wrong_count(self, usage):
        with pytest.raises(CorruptionError):
            usage.load_all([NIL, NIL], lambda addr: b"")
