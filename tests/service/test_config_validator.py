"""Cross-config rig validation (`validate_rig`)."""

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.lfs.config import LfsConfig
from repro.service.config import (
    SERVICE_LFS_CONFIG,
    WRITE_MAX_BYTES,
    ServiceConfig,
    validate_rig,
)
from repro.units import KIB, MIB


def _lfs(**kwargs):
    defaults = dict(segment_size=256 * KIB, cache_bytes=2 * MIB)
    defaults.update(kwargs)
    return LfsConfig(**defaults)


class TestValidateRig:
    def test_good_rig_passes(self):
        validate_rig(ServiceConfig(), _lfs(), device_bytes=32 * MIB)

    def test_bare_fs_rig_passes_without_service(self):
        validate_rig(None, _lfs(), device_bytes=24 * MIB)

    def test_cache_below_two_segments(self):
        with pytest.raises(ConfigError) as excinfo:
            validate_rig(
                ServiceConfig(), _lfs(cache_bytes=256 * KIB)
            )
        assert "cache_bytes" in str(excinfo.value)

    def test_payload_exceeding_segment(self):
        segment = WRITE_MAX_BYTES // 2
        lfs = _lfs(segment_size=segment, cache_bytes=16 * segment)
        with pytest.raises(ConfigError) as excinfo:
            validate_rig(ServiceConfig(), lfs)
        assert "WRITE_MAX_BYTES" in str(excinfo.value)
        validate_rig(None, lfs)  # a bare fs rig writes no payloads

    def test_unreachable_clean_high_water(self):
        # 4 MiB holds 15 segments of 256 KiB: fewer than CLEAN_HIGH_WATER.
        with pytest.raises(ConfigError) as excinfo:
            validate_rig(None, _lfs(), device_bytes=4 * MIB)
        assert "CLEAN_HIGH_WATER (16)" in str(excinfo.value)

    def test_watermarks_leaving_no_serviceable_segments(self):
        config = ServiceConfig(reserve_watermark=1000)
        with pytest.raises(ConfigError) as excinfo:
            validate_rig(config, _lfs(), device_bytes=8 * MIB)
        assert "serviceable" in str(excinfo.value)

    def test_watermark_checked_against_the_reserve_in_use(self):
        # 20 segments of 256 KiB: the file system holds back 6 of them
        # (a third of the device), and CLEAN_LOW_WATER 8 leaves 6
        # serviceable segments, which a watermark of 6 does not fit.
        device_bytes = 21 * 256 * KIB
        config = ServiceConfig(
            num_clients=4, requests_per_client=40, reserve_watermark=6
        )
        with pytest.raises(ConfigError) as excinfo:
            validate_rig(config, SERVICE_LFS_CONFIG, device_bytes=device_bytes)
        assert "cleaner reserve 6 " in str(excinfo.value)
        assert "serviceable" in str(excinfo.value)
        validate_rig(
            replace(config, reserve_watermark=5),
            SERVICE_LFS_CONFIG,
            device_bytes=device_bytes,
        )

    def test_every_violation_reported_in_one_error(self):
        config = ServiceConfig(reserve_watermark=1000)
        segment = WRITE_MAX_BYTES // 2
        with pytest.raises(ConfigError) as excinfo:
            validate_rig(
                config,
                _lfs(segment_size=segment, cache_bytes=segment),
                device_bytes=8 * MIB,
            )
        message = str(excinfo.value)
        # One round trip fixes the whole rig: all three named at once.
        for marker in ("cache_bytes", "WRITE_MAX_BYTES", "serviceable"):
            assert marker in message

    def test_capacity_checks_skipped_without_device_size(self):
        # Same watermark config is only checkable once the device size
        # is known; without it, field-level validity is all we claim.
        validate_rig(ServiceConfig(reserve_watermark=1000), _lfs())

    def test_simulate_service_validates_before_booting(self):
        from repro.service.scheduler import simulate_service

        with pytest.raises(ConfigError):
            simulate_service(
                ServiceConfig(num_clients=1, requests_per_client=1),
                total_bytes=32 * MIB,
                lfs_config=_lfs(cache_bytes=256 * KIB),
            )
