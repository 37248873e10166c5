"""Unit tests for the metrics registry."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import InvalidArgumentError
from repro.harness.parallel import export_telemetry_totals, merge_metric_samples
from repro.obs import MetricsRegistry, NULL_INSTRUMENT, Telemetry
from repro.obs.registry import OVERFLOW_LABELS


@dataclass
class Counts:
    reads: int = 0


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestCounter:
    def test_monotonic_increments(self, registry):
        counter = registry.counter("disk.reads")
        counter.inc()
        counter.inc(5)
        assert registry.value("disk.reads") == 6

    def test_negative_increment_rejected(self, registry):
        counter = registry.counter("disk.reads")
        with pytest.raises(InvalidArgumentError):
            counter.inc(-1)
        assert counter.value == 0

    def test_same_series_resolves_same_instrument(self, registry):
        first = registry.counter("disk.requests", tier="data")
        second = registry.counter("disk.requests", tier="data")
        other = registry.counter("disk.requests", tier="meta")
        assert first is second
        assert first is not other
        first.inc(3)
        assert registry.value("disk.requests", tier="data") == 3
        assert registry.value("disk.requests", tier="meta") == 0


class TestReadBackCounter:
    def test_value_and_sample_read_the_count(self, registry):
        counts = Counts()
        counter = registry.counter("disk.reads", lambda: counts.reads)
        assert counter.kind == "counter" and counter.value == 0
        counts.reads = 7
        assert registry.value("disk.reads") == 7
        assert list(registry.samples()) == [
            {"name": "disk.reads", "kind": "counter", "labels": {}, "value": 7}
        ]

    def test_inc_adds_on_top(self, registry):
        counts = Counts(reads=4)
        registry.counter("disk.reads", lambda: counts.reads).inc(3)
        assert registry.value("disk.reads") == 7

    def test_objects_under_one_series_sum(self, registry):
        first, second, other = Counts(2), Counts(5), Counts(11)
        series = registry.counter("disk.reads", lambda: first.reads)
        again = registry.counter("disk.reads", lambda: second.reads)
        registry.counter("disk.reads", lambda: other.reads, tier="far")
        assert series is again
        assert registry.value("disk.reads") == 7
        assert registry.value("disk.reads", tier="far") == 11

    def test_dict_entry_reader(self, registry):
        tiers = {}
        registry.counter("disk.requests", lambda: tiers.get("far", 0), tier="far")
        tiers["far"] = 3
        assert registry.value("disk.requests", tier="far") == 3

    def test_disabled_registry_ignores_the_reader(self):
        def read():
            raise AssertionError("a disabled registry must not read")

        registry = MetricsRegistry(enabled=False)
        assert registry.counter("disk.reads", read) is NULL_INSTRUMENT
        assert registry.value("disk.reads") == 0
        assert list(registry.samples()) == []

    def test_totals_round_trip_through_merge(self):
        worker = Telemetry()
        counts = Counts(reads=9)
        worker.counter("disk.reads", lambda: counts.reads).inc(1)
        totals = export_telemetry_totals(worker)
        merged = Telemetry()
        local = Counts(reads=5)
        merged.counter("disk.reads", lambda: local.reads)
        merge_metric_samples(merged, totals)
        merge_metric_samples(merged, totals)
        assert merged.registry.value("disk.reads") == 5 + 2 * 10
        assert export_telemetry_totals(merged)["metrics"] == [
            {"name": "disk.reads", "kind": "counter", "labels": {}, "value": 25}
        ]


class TestGauge:
    def test_set_and_add(self, registry):
        gauge = registry.gauge("cache.dirty_bytes")
        gauge.set(4096)
        gauge.add(-1024)
        assert registry.value("cache.dirty_bytes") == 3072


class TestHistogram:
    def test_bucket_bounds_are_inclusive(self, registry):
        histogram = registry.histogram("disk.request_bytes", buckets=(10, 100))
        for value in (5, 10, 11, 1000):
            histogram.observe(value)
        sample = histogram.sample()
        assert sample["buckets"] == [[10.0, 2], [100.0, 1], ["+inf", 1]]
        assert sample["sum"] == 1026
        assert sample["count"] == 4

    def test_empty_buckets_rejected(self, registry):
        with pytest.raises(InvalidArgumentError):
            registry.histogram("h", buckets=())

    def test_non_increasing_buckets_rejected(self, registry):
        with pytest.raises(InvalidArgumentError):
            registry.histogram("h", buckets=(10, 10, 20))


class TestRegistrySemantics:
    def test_kind_conflict_rejected(self, registry):
        registry.counter("fs.bytes_written")
        with pytest.raises(InvalidArgumentError):
            registry.gauge("fs.bytes_written")

    def test_empty_name_rejected(self, registry):
        with pytest.raises(InvalidArgumentError):
            registry.counter("")

    def test_get_and_value_for_absent_series(self, registry):
        assert registry.get("nope") is None
        assert registry.value("nope") == 0

    def test_metric_names_and_len(self, registry):
        registry.counter("b")
        registry.counter("a", tier="x")
        registry.counter("a", tier="y")
        assert registry.metric_names() == ["a", "b"]
        assert len(registry) == 3

    def test_samples_sorted_with_labels(self, registry):
        registry.counter("b").inc(2)
        registry.gauge("a", pool="z").set(7)
        samples = list(registry.samples())
        assert [s["name"] for s in samples] == ["a", "b"]
        assert samples[0] == {
            "name": "a",
            "kind": "gauge",
            "labels": {"pool": "z"},
            "value": 7,
        }


class TestCardinalityGuard:
    def test_excess_label_sets_collapse_into_overflow(self, monkeypatch):
        monkeypatch.setattr("repro.obs.registry.MAX_LABEL_SETS", 2)
        registry = MetricsRegistry()
        for inum in range(5):
            registry.counter("fs.writes", inum=inum).inc()
        # Two real series, everything past the cap shares one overflow.
        assert registry.value("fs.writes", inum=0) == 1
        assert registry.value("fs.writes", inum=1) == 1
        assert registry.get("fs.writes", inum=2) is None
        overflow = registry.get("fs.writes", **dict(OVERFLOW_LABELS))
        assert overflow is not None
        assert overflow.value == 3
        assert registry.dropped_label_sets == 3
        assert len(registry) == 3


class TestDisabledRegistry:
    def test_hands_out_shared_null_instrument(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("disk.reads")
        gauge = registry.gauge("disk.busy_seconds")
        histogram = registry.histogram("disk.request_bytes")
        assert counter is NULL_INSTRUMENT
        assert gauge is NULL_INSTRUMENT
        assert histogram is NULL_INSTRUMENT
        counter.inc(10)
        gauge.set(5)
        gauge.add(1)
        histogram.observe(3)
        assert len(registry) == 0
        assert registry.metric_names() == []
        assert list(registry.samples()) == []
