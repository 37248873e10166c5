"""Scheduler, prefill, and the issue's acceptance criteria."""

from __future__ import annotations

import pytest

from repro.errors import InvalidArgumentError
from repro.lfs.config import CLEAN_LOW_WATER
from repro.lfs.filesystem import LogStructuredFS
from repro.lfs.verify import verify_lfs
from repro.obs import Telemetry
from repro.obs.names import LINK_PAYS_FOR
from repro.service import (
    ServiceConfig,
    ServiceStats,
    percentile,
    prefill,
    run_service,
    serviceable_bytes,
    simulate_service,
)
from repro.service.scheduler import FLUSHER_PERIOD
from tests.conftest import small_lfs_config


class TestServiceConfig:
    def test_defaults_validate(self):
        ServiceConfig()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(num_clients=0),
            dict(requests_per_client=0),
            dict(fill_fraction=1.0),
            dict(fill_fraction=-0.1),
        ],
    )
    def test_bad_configs_rejected(self, overrides):
        with pytest.raises(InvalidArgumentError):
            ServiceConfig(**overrides)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_nearest_rank(self):
        samples = [float(i) for i in range(100)]
        assert percentile(samples, 0.50) == 50.0
        assert percentile(samples, 0.99) == 99.0

    def test_single_sample(self):
        assert percentile([7.0], 0.99) == 7.0


class TestStatsReport:
    def test_render_round_trips_counts(self):
        stats = ServiceStats()
        stats.note_submitted("write")
        stats.note_completed("write", 0.003)
        stats.note_batch(4)
        text = stats.render("t")
        assert "1 completed" in text
        assert "mean 4.00" in text

    def test_to_dict_is_json_stable(self):
        import json

        stats = ServiceStats()
        stats.started, stats.finished = 0.0, 2.0
        stats.note_submitted("fsync")
        stats.note_completed("fsync", 0.0101)
        assert json.loads(json.dumps(stats.to_dict())) == stats.to_dict()


class TestPrefill:
    def test_prefill_reaches_target(self, lfs):
        config = ServiceConfig(num_clients=1, fill_fraction=0.5)
        live = prefill(lfs, config)
        assert live >= 0.5 * serviceable_bytes(lfs)

    def test_prefill_disabled_writes_nothing(self, lfs):
        config = ServiceConfig(num_clients=1)
        assert prefill(lfs, config) == lfs.live_data_bytes()

    def test_serviceable_excludes_reserve_and_low_water(self, lfs):
        layout = lfs.layout
        headroom = layout.reserve_segments + CLEAN_LOW_WATER
        assert layout.serviceable_segments == layout.num_segments - headroom
        expected = layout.serviceable_segments * lfs.config.segment_size
        assert serviceable_bytes(lfs) == expected


class TestSchedulerRun:
    def test_every_request_completes(self, lfs):
        config = ServiceConfig(num_clients=3, seed=2, requests_per_client=20)
        stats, _scheduler = run_service(lfs, config)
        assert stats.completed == 60
        assert stats.dropped == 0
        assert sum(stats.submitted.values()) == 60

    def test_latencies_are_positive_and_counted(self, lfs):
        config = ServiceConfig(num_clients=2, seed=9, requests_per_client=15)
        stats, _scheduler = run_service(lfs, config)
        merged = stats.all_latencies()
        assert len(merged) == 30
        assert all(latency >= 0 for latency in merged)
        assert stats.p99() >= stats.p50() >= 0

    def test_telemetry_series_published(self, lfs_factory):
        telemetry = Telemetry()
        lfs = lfs_factory(telemetry=telemetry)
        config = ServiceConfig(num_clients=2, seed=1, requests_per_client=10)
        run_service(lfs, config, telemetry=telemetry)
        registry = telemetry.registry
        assert registry.value("service.completed") == 20
        assert registry.value("service.requests", kind="write") > 0
        assert registry.value("service.commits") >= 1

    def test_background_flusher_services_the_age_trigger(
        self, disk, cpu, monkeypatch
    ):
        # One client's single write dirties far less than the cache
        # holds, and no request follows it, so the file system is never
        # asked again: with an age threshold shorter than the flusher's
        # period, only the flusher can write that data back.
        monkeypatch.setattr(
            "repro.cache.writeback.AGE_THRESHOLD", FLUSHER_PERIOD / 2
        )
        fs = LogStructuredFS.mkfs(disk, cpu, small_lfs_config())
        service = ServiceConfig(num_clients=1, requests_per_client=1)
        stats, _scheduler = run_service(fs, service)
        assert stats.submitted == {"write": 1}
        assert stats.background_flushes == 1
        assert fs.monitor.next_age_deadline() is None  # nothing dirty


class TestAcceptanceSixteenClients:
    def test_zero_dropped_and_batching_wins(self, lfs):
        config = ServiceConfig(num_clients=16, seed=0, requests_per_client=25)
        stats, scheduler = run_service(lfs, config)
        assert stats.completed == 16 * 25
        assert stats.dropped == 0
        assert stats.batch_mean > 1.5  # group commit actually groups
        assert scheduler.committer.commits == len(stats.commit_batches)


class TestBackpressureUnderPressure:
    def test_high_fill_engages_throttle_and_image_verifies(self, lfs):
        config = ServiceConfig(
            num_clients=8,
            seed=3,
            requests_per_client=40,
            fill_fraction=0.85,
        )
        stats, _scheduler = run_service(lfs, config)
        assert stats.dropped == 0
        assert stats.throttle_events > 0
        assert stats.throttle_seconds > 0.0
        lfs.checkpoint()
        lfs.unmount()
        report = verify_lfs(lfs.disk.device)
        assert report.consistent, report.errors


    def test_throttled_request_trace_shows_one_linked_pass(self, lfs_factory):
        telemetry = Telemetry()
        fs = lfs_factory(telemetry)
        config = ServiceConfig(
            num_clients=8, seed=3, requests_per_client=40, fill_fraction=0.85
        )
        stats, _scheduler = run_service(fs, config, telemetry=telemetry)
        spans = telemetry.tracer.spans
        by_id = {span.span_id: span for span in spans}
        passes = {}
        for span in spans:
            if span.kind == "cleaner.pass":
                passes.setdefault(span.parent_id, []).append(span)
        paid = [
            span
            for span in spans
            if any(link["relation"] == LINK_PAYS_FOR for link in span.links)
        ]
        assert len(paid) == stats.throttle_events > 0
        for clean in paid:
            assert clean.kind == "cleaner.clean"
            (link,) = clean.links
            root = by_id[link["target"]]
            assert root.kind == "service.request"
            (one,) = passes[clean.span_id]
            assert len(one.attrs["victims"]) == len(one.attrs["u"])
            assert len(one.attrs["age"]) == len(one.attrs["victims"])
            assert one.attrs["clean_after"] > one.attrs["clean_before"]
            assert one.attrs["live_bytes_moved"] >= 0
            # The stall the request was charged is the pass it paid for.
            assert root.attrs["lat.cleaner_throttle"] >= one.duration


class TestSeededDeterminism:
    def _run(self, seed: int):
        config = ServiceConfig(
            num_clients=4, seed=seed, requests_per_client=25
        )
        stats, fs = simulate_service(config)
        fs.unmount()
        return stats, fs.disk.device.snapshot()

    def test_same_seed_identical_reports_and_images(self):
        stats1, image1 = self._run(seed=42)
        stats2, image2 = self._run(seed=42)
        assert stats1.render() == stats2.render()
        assert stats1.to_dict() == stats2.to_dict()
        assert image1 == image2

    def test_different_seed_diverges(self):
        stats1, image1 = self._run(seed=42)
        stats2, image2 = self._run(seed=43)
        assert image1 != image2 or stats1.render() != stats2.render()
