"""Unit tests for the crash-aware sector device."""

import os
import random
import subprocess
import sys
import tracemalloc

import pytest

from repro.disk.device import SectorDevice
from repro.errors import DeviceCrashedError, OutOfRangeError


@pytest.fixture
def device() -> SectorDevice:
    return SectorDevice(num_sectors=128)


class TestBasicIO:
    def test_fresh_device_reads_zeros(self, device):
        assert device.read(0, 2) == b"\x00" * 1024

    def test_write_then_read(self, device):
        payload = bytes(range(256)) * 2
        device.write(4, payload)
        assert device.read(4, 1) == payload

    def test_multi_sector_write(self, device):
        payload = b"ab" * 512  # two sectors
        device.write(10, payload)
        assert device.read(10, 2) == payload

    def test_read_out_of_range(self, device):
        with pytest.raises(OutOfRangeError):
            device.read(127, 2)
        with pytest.raises(OutOfRangeError):
            device.read(-1, 1)

    def test_zero_count_read_rejected(self, device):
        with pytest.raises(OutOfRangeError):
            device.read(0, 0)

    def test_unaligned_write_rejected(self, device):
        with pytest.raises(OutOfRangeError):
            device.write(0, b"x" * 100)

    def test_write_out_of_range(self, device):
        with pytest.raises(OutOfRangeError):
            device.write(127, b"x" * 1024)

    def test_counters(self, device):
        device.write(0, b"a" * 512)
        device.read(0, 1)
        device.read(0, 2)
        assert device.total_sectors_written == 1
        assert device.total_sectors_read == 3


class TestCrashSemantics:
    def test_crash_rolls_back_undurable_write(self, device):
        device.write(0, b"a" * 512, completion_time=5.0)
        device.crash(now=1.0)  # crash before the write completed
        device.revive()
        assert device.read(0, 1) == b"\x00" * 512

    def test_crash_keeps_completed_write(self, device):
        device.write(0, b"a" * 512, completion_time=5.0)
        device.crash(now=5.0)
        device.revive()
        assert device.read(0, 1) == b"a" * 512

    def test_rollback_is_ordered(self, device):
        device.write(0, b"a" * 512, completion_time=1.0)
        device.write(0, b"b" * 512, completion_time=3.0)
        device.crash(now=2.0)  # second write lost, first survives
        device.revive()
        assert device.read(0, 1) == b"a" * 512

    def test_overlapping_rollback_reverse_order(self, device):
        device.write(0, b"a" * 1024, completion_time=5.0)
        device.write(1, b"b" * 512, completion_time=6.0)
        device.crash(now=0.0)
        device.revive()
        assert device.read(0, 2) == b"\x00" * 1024

    def test_io_rejected_while_crashed(self, device):
        device.crash(now=0.0)
        with pytest.raises(DeviceCrashedError):
            device.read(0, 1)
        with pytest.raises(DeviceCrashedError):
            device.write(0, b"x" * 512)

    def test_revive_restores_io(self, device):
        device.write(0, b"z" * 512, completion_time=0.0)
        device.mark_durable(0.0)
        device.crash(now=1.0)
        device.revive()
        assert device.read(0, 1) == b"z" * 512

    def test_mark_durable_trims_pending(self, device):
        device.write(0, b"a" * 512, completion_time=1.0)
        device.write(1, b"b" * 512, completion_time=2.0)
        assert device.pending_writes() == 2
        device.mark_durable(1.5)
        assert device.pending_writes() == 1

    def test_reads_see_pending_writes(self, device):
        device.write(0, b"q" * 512, completion_time=100.0)
        assert device.read(0, 1) == b"q" * 512

    def test_snapshot_copies_image(self, device):
        device.write(0, b"s" * 512)
        image = device.snapshot()
        assert image[:512] == b"s" * 512
        assert len(image) == device.total_bytes


class TestZeroUndoRecords:
    """An undo record over sectors that read zero keeps only its length."""

    def test_async_write_over_fresh_sectors_copies_nothing(self):
        device = SectorDevice(num_sectors=(4 << 20) // 512)
        payload = b"x" * (1 << 20)
        tracemalloc.start()
        try:
            device.write(0, payload, completion_time=5.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert device.pending_writes() == 1
        device.crash(now=1.0)
        device.revive()
        assert not any(device.read(0, 2048))

    def test_torn_rollback_of_fresh_sectors_restores_zeros(self, device):
        device.write(0, b"t" * 4096, completion_time=5.0)
        device.crash(now=1.0, rng=random.Random(3), tear_probability=1.0)
        device.revive()
        assert device.torn_writes == 1
        image = bytes(device.read(0, 8))
        kept = image.index(0)
        assert kept % 512 == 0 and 0 < kept < 4096
        assert image == b"t" * kept + bytes(4096 - kept)

    def test_bytes_no_write_put_there_are_copied(self, tmp_path):
        # A loaded image holds data no write of this device went to.
        path = str(tmp_path / "disk.img")
        with open(path, "wb") as handle:
            handle.write(bytes(1024) + b"L" * 512 + bytes(512))
        device = SectorDevice.load(path)
        device.write(1, b"n" * 1536, completion_time=5.0)
        device.crash(now=1.0)
        device.revive()
        assert device.read(0, 4) == bytes(1024) + b"L" * 512 + bytes(512)


class TestConstruction:
    def test_rejects_zero_sectors(self):
        with pytest.raises(ValueError):
            SectorDevice(num_sectors=0)

    def test_rejects_bad_sector_size(self):
        with pytest.raises(ValueError):
            SectorDevice(num_sectors=8, sector_size=0)

    def test_total_bytes(self):
        assert SectorDevice(num_sectors=16, sector_size=512).total_bytes == 8192


class TestLazilyZeroedImage:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_cannot_write_the_parents_image(self, device):
        device.write(0, b"p" * 512)
        pid = os.fork()
        if pid == 0:  # what a --jobs worker does to a volume it inherited
            status = 1
            try:
                device.write(0, b"c" * 512)
                device.write(9, b"c" * 512)
                status = 0
            finally:  # never let the child fall back into pytest
                os._exit(status)
        assert os.waitpid(pid, 0)[1] == 0
        assert device.read(0, 1) == b"p" * 512
        assert device.read(9, 1) == b"\x00" * 512

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
    def test_untouched_sectors_cost_no_memory(self):
        probe = (
            "import resource\n"
            "from repro.disk.device import SectorDevice\n"
            "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "before = peak()\n"
            "device = SectorDevice(num_sectors=(512 << 20) // 512)\n"
            "device.write(1000, b'x' * 512)\n"
            "assert device.read(1000, 1) == b'x' * 512\n"
            "assert not any(device.read(device.num_sectors - 8, 8))\n"
            "print(peak() - before)\n"
        )
        # A fresh interpreter: this one's high-water mark is already set.
        grown_kib = int(
            subprocess.run(
                [sys.executable, "-c", probe],
                check=True, capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            ).stdout
        )
        assert grown_kib < 32 * 1024


class TestLoadedImage:
    """``load`` maps the file copy-on-write; ``save`` replaces the file."""

    def test_save_over_the_loaded_path_round_trips(self, tmp_path):
        path = str(tmp_path / "disk.img")
        fresh = SectorDevice(num_sectors=64)
        fresh.write(3, b"a" * 512)
        fresh.save(path)

        device = SectorDevice.load(path)
        device.write(5, b"b" * 1024)
        device.save(path)  # the file the image is mapped from
        assert device.read(5, 2) == b"b" * 1024  # the mapping survived

        again = SectorDevice.load(path)
        assert again.read(3, 1) == b"a" * 512
        assert again.read(5, 2) == b"b" * 1024
        assert again.snapshot() == device.snapshot()
        assert os.listdir(tmp_path) == ["disk.img"]  # no scratch file left

    def test_source_file_is_untouched_until_save(self, tmp_path):
        path, other = str(tmp_path / "disk.img"), str(tmp_path / "other.img")
        SectorDevice(num_sectors=16).save(path)
        original = open(path, "rb").read()

        device = SectorDevice.load(path)
        device.write(0, b"w" * 512)
        device.write(1, b"p" * 512, completion_time=9.0)
        device.crash(now=1.0)  # rollback writes into the mapping too
        assert open(path, "rb").read() == original
        device.save(other)
        assert open(path, "rb").read() == original
        assert open(other, "rb").read() == b"w" * 512 + bytes(15 * 512)

    def test_failed_save_leaves_the_old_image(self, tmp_path):
        path = str(tmp_path / "disk.img")
        SectorDevice(num_sectors=16).save(path)
        device = SectorDevice.load(path)
        device.write(0, b"n" * 512)
        os.mkdir(str(tmp_path / "dir.img"))
        with pytest.raises(OSError):
            device.save(str(tmp_path / "dir.img"))  # cannot replace a directory
        assert sorted(os.listdir(tmp_path)) == ["dir.img", "disk.img"]
        assert not any(open(path, "rb").read())

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
    def test_untouched_sectors_of_a_loaded_image_cost_no_memory(self, tmp_path):
        path = str(tmp_path / "sparse.img")
        with open(path, "wb") as handle:
            handle.truncate(512 << 20)
            handle.seek(1000 * 512)
            handle.write(b"x" * 512)
        probe = (
            "import resource, sys\n"
            "from repro.disk.device import SectorDevice\n"
            "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "before = peak()\n"
            "device = SectorDevice.load(sys.argv[1])\n"
            "assert device.num_sectors == (512 << 20) // 512\n"
            "assert device.read(1000, 1) == b'x' * 512\n"
            "device.write(2000, b'y' * 512)\n"
            "assert not any(device.read(device.num_sectors - 8, 8))\n"
            "print(peak() - before)\n"
        )
        grown_kib = int(
            subprocess.run(
                [sys.executable, "-c", probe, path],
                check=True, capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            ).stdout
        )
        assert grown_kib < 32 * 1024
