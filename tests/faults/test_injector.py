"""Unit tests for the fault-injection policy and the faulty device."""

import pytest

from repro.disk.sim_disk import SimDisk
from repro.disk.geometry import wren_iv
from repro.errors import MediaError, TransientIOError
from repro.faults import FaultConfig, FaultInjector, FaultyDevice
from repro.sim.clock import SimClock
from repro.units import MIB, SECTOR_SIZE

NUM_SECTORS = 256


def make_device(config=None, seed=0):
    injector = FaultInjector(config or FaultConfig(), seed=seed)
    return FaultyDevice(NUM_SECTORS, SECTOR_SIZE, injector=injector)


class TestFaultConfig:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(torn_write_prob=1.5)
        with pytest.raises(ValueError):
            FaultConfig(transient_read_prob=-0.1)
        with pytest.raises(ValueError):
            FaultConfig(bit_flip_sectors=-1)

    def test_none_injects_nothing(self):
        for config, injected in (
            (FaultConfig(), 0),
            (FaultConfig(bit_flip_sectors=1), 1),
        ):
            device = make_device(config)
            device.write(0, b"A" * SECTOR_SIZE * 8, durable=True)
            device.crash(now=0.0)
            device.revive()
            device.read(0, 8)
            assert sum(device.injector.counts.values()) == injected


class TestTransientErrors:
    def test_retry_of_same_request_always_succeeds(self):
        device = make_device(FaultConfig(transient_read_prob=1.0))
        device.write(0, b"x" * SECTOR_SIZE, durable=True)
        with pytest.raises(TransientIOError):
            device.read(0, 1)
        # The identical retry is guaranteed to succeed.
        assert device.read(0, 1) == b"x" * SECTOR_SIZE
        # ...and the next fresh request fails again (prob = 1.0).
        with pytest.raises(TransientIOError):
            device.read(0, 1)
        assert device.injector.counts["transient_errors"] == 2

    def test_different_request_is_not_the_armed_retry(self):
        device = make_device(FaultConfig(transient_read_prob=1.0))
        device.write(0, b"x" * SECTOR_SIZE * 2, durable=True)
        with pytest.raises(TransientIOError):
            device.read(0, 2)
        with pytest.raises(TransientIOError):
            device.read(0, 1)  # different shape: its own first issue
        assert device.read(0, 2) == b"x" * SECTOR_SIZE * 2


class TestBadSectors:
    def test_unreadable_sector_raises_typed_media_error(self):
        device = make_device()
        device.write(4, b"y" * SECTOR_SIZE, durable=True)
        device.injector.mark_unreadable(5)
        assert device.read(4, 1)  # untouched neighbors still readable
        with pytest.raises(MediaError) as excinfo:
            device.read(4, 4)
        assert excinfo.value.sector == 5
        assert device.injector.counts["media_errors"] == 1

    def test_write_remaps_bad_sector(self):
        device = make_device()
        device.injector.mark_unreadable(7)
        device.write(7, b"z" * SECTOR_SIZE, durable=True)
        assert device.read(7, 1) == b"z" * SECTOR_SIZE
        assert device.injector.counts["remaps"] == 1
        assert not device.injector.bad_sectors


class TestCrashDamage:
    def _crash_with(self, config, seed=0):
        device = make_device(config, seed=seed)
        # A durable base plus one pending multi-sector overwrite.
        device.write(0, b"A" * SECTOR_SIZE * 8, durable=True)
        device.write(0, b"B" * SECTOR_SIZE * 8, completion_time=10.0)
        device.crash(now=0.0)
        device.revive()
        return device

    def test_torn_write_keeps_prefix_only(self):
        device = self._crash_with(FaultConfig(torn_write_prob=1.0))
        data = bytes(device.read(0, 8))
        assert device.injector.counts["torn_writes"] == 1
        keep = data.count(b"B"[0]) // SECTOR_SIZE
        assert 1 <= keep < 8
        # Strictly a prefix: B-sectors then A-sectors, nothing else.
        expected = b"B" * keep * SECTOR_SIZE + b"A" * (8 - keep) * SECTOR_SIZE
        assert data == expected

    def test_no_tear_without_probability(self):
        device = self._crash_with(FaultConfig())
        assert device.read(0, 8) == b"A" * SECTOR_SIZE * 8
        assert device.injector.counts["torn_writes"] == 0

    def test_sync_writes_never_tear(self):
        device = make_device(FaultConfig(torn_write_prob=1.0))
        device.write(0, b"S" * SECTOR_SIZE * 8, durable=True)
        device.crash(now=0.0)
        device.revive()
        assert device.read(0, 8) == b"S" * SECTOR_SIZE * 8

    def test_bit_flips_and_bad_sectors_hit_written_space(self):
        device = self._crash_with(
            FaultConfig(bit_flip_sectors=2, grow_bad_sectors=2), seed=3
        )
        injector = device.injector
        assert injector.counts["bit_flips"] == 2
        assert injector.counts["bad_sectors_grown"] == len(injector.bad_sectors) >= 1
        assert injector.written == set(range(8))
        assert injector.bad_sectors <= injector.written

    def test_a_config_that_aims_nothing_keeps_no_pool(self):
        # The chaos campaign's classes: torn writes and transient reads.
        device = make_device(
            FaultConfig(torn_write_prob=1.0, transient_read_prob=0.5)
        )
        for sector in range(0, 64, 8):
            device.write(sector, b"W" * SECTOR_SIZE * 8, durable=True)
        device.crash(now=0.0)
        assert device.injector.written is None

    def test_deterministic_across_runs(self):
        config = FaultConfig(
            torn_write_prob=0.5, bit_flip_sectors=2, grow_bad_sectors=2
        )
        first = self._crash_with(config, seed=42)
        second = self._crash_with(config, seed=42)
        assert first.snapshot() == second.snapshot()
        assert first.injector.bad_sectors == second.injector.bad_sectors


class TestTimingLayerRetries:
    def test_sim_disk_absorbs_transient_errors(self):
        clock = SimClock()
        geometry = wren_iv(4 * MIB)
        injector = FaultInjector(FaultConfig(transient_read_prob=1.0))
        device = FaultyDevice(
            geometry.num_sectors, geometry.sector_size, injector=injector
        )
        disk = SimDisk(geometry, clock, device=device)
        disk.write(0, b"q" * SECTOR_SIZE, sync=True)
        before = disk.busy_until
        assert disk.read(0, 1) == b"q" * SECTOR_SIZE
        assert disk.stats.read_retries == 1
        assert disk.busy_until > before  # backoff landed on the timeline

    def test_media_error_propagates_through_sim_disk(self):
        clock = SimClock()
        geometry = wren_iv(4 * MIB)
        injector = FaultInjector()
        device = FaultyDevice(
            geometry.num_sectors, geometry.sector_size, injector=injector
        )
        disk = SimDisk(geometry, clock, device=device)
        disk.write(0, b"q" * SECTOR_SIZE, sync=True)
        injector.mark_unreadable(0)
        with pytest.raises(MediaError):
            disk.read(0, 1)
