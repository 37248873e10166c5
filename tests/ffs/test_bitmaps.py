"""Unit tests for cylinder-group bitmaps."""

import pytest

from repro.errors import CorruptionError, InvalidArgumentError
from repro.ffs.bitmaps import Bitmap


class TestBasics:
    def test_starts_free(self):
        bitmap = Bitmap(100)
        assert bitmap.free_count == 100
        assert bitmap.used_count == 0
        assert not bitmap.is_set(0)

    def test_set_clear(self):
        bitmap = Bitmap(10)
        bitmap.set(3)
        assert bitmap.is_set(3)
        assert bitmap.free_count == 9
        bitmap.clear(3)
        assert not bitmap.is_set(3)
        assert bitmap.free_count == 10

    def test_double_set_raises(self):
        bitmap = Bitmap(10)
        bitmap.set(0)
        with pytest.raises(CorruptionError):
            bitmap.set(0)

    def test_double_clear_raises(self):
        bitmap = Bitmap(10)
        with pytest.raises(CorruptionError):
            bitmap.clear(0)

    def test_bounds(self):
        bitmap = Bitmap(8)
        with pytest.raises(InvalidArgumentError):
            bitmap.is_set(8)
        with pytest.raises(InvalidArgumentError):
            bitmap.set(-1)

    def test_zero_bits_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Bitmap(0)


class TestAllocNear:
    def test_takes_hint_when_free(self):
        bitmap = Bitmap(32)
        assert bitmap.alloc_near(10) == 10

    def test_scans_forward(self):
        bitmap = Bitmap(32)
        bitmap.set(10)
        bitmap.set(11)
        assert bitmap.alloc_near(10) == 12

    def test_wraps_around(self):
        bitmap = Bitmap(4)
        bitmap.set(2)
        bitmap.set(3)
        assert bitmap.alloc_near(2) == 0

    def test_exhausted_returns_none(self):
        bitmap = Bitmap(2)
        bitmap.set(0)
        bitmap.set(1)
        assert bitmap.alloc_near(0) is None

    def test_sequential_allocation_pattern(self):
        # The FFS layout property: consecutive hints give consecutive
        # blocks.
        bitmap = Bitmap(64)
        prev = bitmap.alloc_near(0)
        for _ in range(10):
            nxt = bitmap.alloc_near(prev + 1)
            assert nxt == prev + 1
            prev = nxt

    def test_out_of_range_hint_clamped(self):
        bitmap = Bitmap(8)
        assert bitmap.alloc_near(100) == 7


class TestSerialization:
    def test_roundtrip(self):
        bitmap = Bitmap(19)
        for i in (0, 7, 8, 18):
            bitmap.set(i)
        other = Bitmap.from_bytes(bitmap.to_bytes(), 19)
        assert other == bitmap
        assert other.free_count == 15

    def test_padding_bits_masked(self):
        data = b"\xff\xff\xff"
        bitmap = Bitmap.from_bytes(data, 19)
        assert bitmap.used_count == 19

    def test_short_data_rejected(self):
        with pytest.raises(CorruptionError):
            Bitmap.from_bytes(b"\x00", 19)

    def test_iter_set(self):
        bitmap = Bitmap(16)
        bitmap.set(1)
        bitmap.set(9)
        assert [i for i in range(16) if bitmap.is_set(i)] == [1, 9]

    def test_equality(self):
        a, b = Bitmap(8), Bitmap(8)
        assert a == b
        a.set(1)
        assert a != b
