"""Unit tests for the admission controller's two gates."""

from __future__ import annotations

import pytest

from repro.obs import Telemetry
from repro.service.admission import (
    MAX_THROTTLE_RETRIES,
    WRITE_CLASS,
    AdmissionController,
    Decision,
)
from repro.service.config import ServiceConfig
from repro.service.stats import ServiceStats


@pytest.fixture
def config() -> ServiceConfig:
    return ServiceConfig(num_clients=2)


@pytest.fixture
def controller(lfs, config) -> AdmissionController:
    return AdmissionController(lfs, config, ServiceStats())


class TestBoundedQueue:
    def test_admits_until_capacity(self, controller):
        assert controller.capacity == 16  # the floor, at two clients
        for _ in range(controller.capacity):
            assert controller.try_admit("read") is Decision.ADMIT
        assert controller.in_flight == 16

    def test_rejects_at_capacity(self, controller):
        for _ in range(controller.capacity):
            controller.try_admit("read")
        assert controller.try_admit("read") is Decision.REJECT
        assert controller.stats.rejections == 1

    def test_release_reopens_the_queue(self, controller):
        for _ in range(controller.capacity):
            controller.try_admit("read")
        controller.release()
        assert controller.try_admit("read") is Decision.ADMIT

    def test_release_without_admit_raises(self, controller):
        with pytest.raises(RuntimeError):
            controller.release()

    def test_effective_capacity_scales_with_clients(self, lfs):
        config = ServiceConfig(num_clients=16)
        controller = AdmissionController(lfs, config, ServiceStats())
        assert controller.capacity == 64


class TestReserveWatermark:
    def test_fresh_fs_is_not_low(self, controller):
        # A fresh disk is nearly all clean segments.
        assert not controller.reserve_low()

    def test_low_exactly_below_the_watermark(self, lfs):
        # No clean_low_water term: the reserve is low from one segment
        # below the watermark, not eight.
        reserve = lfs.cleaner.clean_reserve()
        at = ServiceConfig(num_clients=2, reserve_watermark=reserve)
        above = ServiceConfig(num_clients=2, reserve_watermark=reserve + 1)
        assert not AdmissionController(lfs, at, ServiceStats()).reserve_low()
        assert AdmissionController(lfs, above, ServiceStats()).reserve_low()

    def test_write_class_covers_log_consumers(self):
        assert WRITE_CLASS == {"write", "fsync", "delete"}

    def test_reads_never_throttle(self, lfs, config):
        controller = AdmissionController(lfs, config, ServiceStats())
        controller.watermark = 10**9  # force "low" for any real fs
        assert controller.reserve_low()
        assert controller.try_admit("read") is Decision.ADMIT
        assert controller.try_admit("open") is Decision.ADMIT

    def test_writes_throttle_when_low(self, lfs, config):
        controller = AdmissionController(lfs, config, ServiceStats())
        controller.watermark = 10**9
        assert controller.try_admit("write") is Decision.THROTTLE
        assert controller.in_flight == 0

    def test_forced_admission_after_max_retries(self, lfs, config):
        controller = AdmissionController(lfs, config, ServiceStats())
        controller.watermark = 10**9
        retries = MAX_THROTTLE_RETRIES
        assert controller.try_admit("write", retries - 1) is Decision.THROTTLE
        assert controller.try_admit("write", retries) is Decision.ADMIT
        assert controller.stats.forced_admissions == 1


def _fragment(lfs) -> None:
    """Leave many half-live segments: more than one pass's victims."""
    for i in range(48):
        lfs.write_file(f"/f{i}", bytes([i % 256]) * (128 * 1024))
    lfs.sync()
    for i in range(0, 48, 2):
        lfs.unlink(f"/f{i}")
    lfs.sync()


class TestPayThrottle:
    def test_throttle_advances_simulated_time(self, lfs, config):
        _fragment(lfs)
        controller = AdmissionController(lfs, config, ServiceStats())
        before = lfs.clock.now()
        stalled = controller.pay_throttle()
        assert lfs.clock.now() >= before
        assert stalled == lfs.clock.now() - before
        assert controller.stats.throttle_events == 1
        assert controller.stats.throttle_seconds == stalled

    def test_one_pass_however_low_the_reserve(self, lfs, config):
        _fragment(lfs)
        controller = AdmissionController(lfs, config, ServiceStats())
        controller.watermark = 10**6  # the reserve is far below it
        assert controller.reserve_low()
        cleaner = lfs.cleaner
        passes, cleaned = cleaner.stats.passes, cleaner.stats.segments_cleaned
        controller.pay_throttle()
        assert cleaner.stats.passes == passes + 1
        assert 0 < cleaner.stats.segments_cleaned - cleaned <= cleaner.victims_per_pass
        assert controller.reserve_low()  # the next writer pays the next pass

    def test_throttle_metrics_published(self, lfs, config):
        telemetry = Telemetry()
        controller = AdmissionController(
            lfs, config, ServiceStats(), telemetry=telemetry
        )
        controller.pay_throttle()
        assert telemetry.registry.value("service.throttle_events") == 1
