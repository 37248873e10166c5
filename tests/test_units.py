"""Tests for unit helpers."""

from repro.units import (
    KIB,
    MIB,
    SECTOR_SIZE,
    fmt_bytes,
    fmt_time,
)


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
