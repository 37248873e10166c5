"""Tests for LFS configuration and layout arithmetic."""

import dataclasses
import pickle

import pytest

from repro.errors import InvalidArgumentError
from repro.lfs.config import (
    CHECKPOINT_REGION_BLOCKS,
    LfsConfig,
    LfsLayout,
)
from repro.units import KIB, MIB


class TestConfigDefaults:
    def test_paper_parameters(self):
        config = LfsConfig()
        # §5: "LFS used a four-kilobyte block size and a one-megabyte
        # segment size"; §4.4.1: 30-second checkpoint interval.
        assert config.block_size == 4 * KIB
        assert config.segment_size == 1 * MIB
        assert config.checkpoint_interval == 30.0

    def test_blocks_per_segment(self):
        assert LfsConfig().blocks_per_segment == 256

    def test_sectors_per_block(self):
        assert LfsConfig().sectors_per_block == 8


class TestConfigValidation:
    def test_unaligned_block_size(self):
        with pytest.raises(InvalidArgumentError):
            LfsConfig(block_size=1000)

    def test_segment_not_multiple_of_block(self):
        with pytest.raises(InvalidArgumentError):
            LfsConfig(segment_size=4 * KIB * 3 + 1)

    def test_tiny_segment_rejected(self):
        with pytest.raises(InvalidArgumentError):
            LfsConfig(block_size=4 * KIB, segment_size=8 * KIB)

    def test_bad_policy(self):
        with pytest.raises(InvalidArgumentError):
            LfsConfig(cleaner_policy="newest-first")

    def test_watermark_ordering(self):
        with pytest.raises(InvalidArgumentError):
            LfsConfig(clean_low_water=10, clean_high_water=5)

    def test_live_fraction_bounds(self):
        with pytest.raises(InvalidArgumentError):
            LfsConfig(max_live_fraction_to_clean=0.0)


class TestLayout:
    def test_segments_after_boot_blocks(self):
        layout = LfsLayout.for_device(LfsConfig(), 300 * MIB)
        assert layout.seg_start_block >= 1 + 2 * CHECKPOINT_REGION_BLOCKS
        assert layout.seg_start_block % LfsConfig().blocks_per_segment == 0

    def test_paper_scale_segment_count(self):
        layout = LfsLayout.for_device(LfsConfig(), 300 * MIB)
        assert layout.num_segments == 299  # one lost to boot blocks

    def test_checkpoint_regions_distinct(self):
        layout = LfsLayout.for_device(LfsConfig(), 300 * MIB)
        cr0, cr1 = layout.checkpoint_addrs
        assert cr1 - cr0 == CHECKPOINT_REGION_BLOCKS
        assert cr1 + CHECKPOINT_REGION_BLOCKS <= layout.seg_start_block

    def test_segment_block_mapping_roundtrip(self):
        layout = LfsLayout.for_device(LfsConfig(), 64 * MIB)
        for seg in (0, 1, layout.num_segments - 1):
            first = layout.segment_first_block(seg)
            assert layout.segment_of_block(first) == seg
            assert layout.segment_of_block(
                first + LfsConfig().blocks_per_segment - 1
            ) == seg

    def test_out_of_range_segment(self):
        layout = LfsLayout.for_device(LfsConfig(), 64 * MIB)
        with pytest.raises(InvalidArgumentError):
            layout.segment_first_block(layout.num_segments)

    def test_data_capacity(self):
        layout = LfsLayout.for_device(LfsConfig(), 64 * MIB)
        assert layout.data_capacity_bytes == layout.num_segments * MIB

    def test_derived_geometry_belongs_to_the_instance(self):
        # Computed once per frozen instance, so a changed copy must
        # derive its own and a pickled one (--jobs workers) must agree.
        config = LfsConfig()
        layout = LfsLayout.for_device(config, 64 * MIB)
        assert (config.blocks_per_segment, layout.num_segments) == (256, 63)
        halved = dataclasses.replace(config, segment_size=512 * KIB)
        assert halved.blocks_per_segment == 128
        smaller = dataclasses.replace(layout, config=halved)
        assert (smaller.seg_start_block, smaller.num_segments) == (128, 127)
        assert halved == LfsConfig(segment_size=512 * KIB)
        copied = pickle.loads(pickle.dumps(smaller))
        assert copied == smaller
        assert copied.segment_of_block(128 + 128 * 5 + 7) == 5
