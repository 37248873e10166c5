"""Tests for unit helpers."""

import pytest

from repro.units import (
    KIB,
    MIB,
    SECTOR_SIZE,
    fmt_bytes,
    fmt_time,
    sectors_for,
)


class TestSectorsFor:
    def test_exact(self):
        assert sectors_for(1024) == 2

    def test_rounds_up(self):
        assert sectors_for(1) == 1
        assert sectors_for(513) == 2

    def test_zero(self):
        assert sectors_for(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sectors_for(-1)

    def test_custom_sector_size(self):
        assert sectors_for(4096, sector_size=4096) == 1


class TestFormatting:
    def test_fmt_bytes(self):
        assert fmt_bytes(512) == "512 B"
        assert fmt_bytes(1536) == "1.5 KB"
        assert fmt_bytes(3 * MIB) == "3.0 MB"

    def test_fmt_time_ranges(self):
        assert "us" in fmt_time(5e-6)
        assert "ms" in fmt_time(0.005)
        assert fmt_time(1.5) == "1.50 s"
        assert "min" in fmt_time(600)

    def test_fmt_time_negative(self):
        assert fmt_time(-0.005).startswith("-")

    def test_constants(self):
        assert KIB == 1024
        assert MIB == 1024 * 1024
        assert SECTOR_SIZE == 512
