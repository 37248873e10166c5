"""Transient-read retry schedule on the disk timing layer."""

import pytest

from repro.disk import sim_disk
from repro.disk.geometry import wren_iv
from repro.disk.sim_disk import SimDisk
from repro.errors import TransientIOError
from repro.faults.device import FaultyDevice
from repro.faults.injector import FaultConfig, FaultInjector
from repro.sim.clock import SimClock
from repro.units import MIB


def _faulty_disk(transient_prob, seed=0):
    geometry = wren_iv(8 * MIB)
    injector = FaultInjector(
        FaultConfig(transient_read_prob=transient_prob), seed=seed
    )
    device = FaultyDevice(
        geometry.num_sectors, geometry.sector_size, injector=injector
    )
    clock = SimClock()
    return SimDisk(geometry, clock, device=device), clock


def _flaky_disk(failures):
    """A disk whose device fails its first ``failures`` reads."""
    disk = SimDisk(wren_iv(8 * MIB), SimClock())
    read = disk.device.read
    left = [failures]

    def flaky(*args, **kwargs):
        if left[0]:
            left[0] -= 1
            raise TransientIOError("flaky")
        return read(*args, **kwargs)

    disk.device.read = flaky
    return disk


class TestRetryPolicy:
    def test_defaults_reproduce_the_historical_schedule(self):
        disk = _flaky_disk(3)
        disk.read(0, 1)
        assert disk.stats.read_retries == 3
        assert disk.retry_stall_seconds == pytest.approx(0.002 + 0.004 + 0.008)

    def test_cap_bounds_every_delay(self, monkeypatch):
        monkeypatch.setattr(sim_disk, "RETRY_MAX_ATTEMPTS", 9)
        disk = _flaky_disk(9)
        disk.read(0, 1)
        # 2, 4, 8, 16 and 32 ms, then the 50 ms cap for the last four.
        assert disk.retry_stall_seconds == pytest.approx(0.062 + 4 * 0.05)


class TestDiskRetryTiming:
    # The injector arms transient errors per request — the identical
    # retry succeeds — so the default schedule always wins after one
    # retry and the error surfaces only when the budget is zero.

    def test_retry_wins_and_charges_the_stall_counter(self):
        disk, _clock = _faulty_disk(transient_prob=1.0)
        data = disk.read(0, 1)
        assert len(data) > 0  # the retry succeeded
        assert disk.stats.read_retries == 1
        assert disk.retry_stall_seconds == pytest.approx(
            sim_disk.RETRY_BASE_DELAY
        )

    def test_zero_attempts_fails_immediately(self, monkeypatch):
        monkeypatch.setattr(sim_disk, "RETRY_MAX_ATTEMPTS", 0)
        disk, _clock = _faulty_disk(transient_prob=1.0)
        with pytest.raises(TransientIOError):
            disk.read(0, 1)
        assert disk.stats.read_retries == 1  # the one probe that failed
        assert disk.retry_stall_seconds == 0.0

    def test_clean_reads_never_touch_the_retry_path(self):
        disk, _clock = _faulty_disk(transient_prob=0.0)
        disk.read(0, 1)
        assert disk.stats.read_retries == 0
        assert disk.retry_stall_seconds == 0.0

    def test_backoff_advances_the_simulated_clock(self):
        clean, clean_clock = _faulty_disk(transient_prob=0.0)
        faulty, faulty_clock = _faulty_disk(transient_prob=1.0)
        for disk in (clean, faulty):
            disk.read(0, 1)
            disk.drain()
        # The retry's backoff is real time on the busy timeline.
        assert faulty_clock.now() - clean_clock.now() == pytest.approx(
            sim_disk.RETRY_BASE_DELAY
        )
