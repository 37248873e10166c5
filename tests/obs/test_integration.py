"""Cross-layer telemetry integration tests on real LFS workloads.

These pin the relationships the observability layer promises: registry
series read the layers' stats objects back exactly (also after a call
raised, and without keeping a dropped file system alive), spans cover every
instrumented layer, the JSONL export is internally consistent with
:class:`~repro.disk.stats.DiskStats` deltas, and telemetry changes no
simulated outcome.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.disk.geometry import wren_iv
from repro.disk.sim_disk import SimDisk
from repro.errors import NoSpaceError
from repro.lfs.filesystem import LogStructuredFS
from repro.obs import Telemetry, export_jsonl, read_jsonl
from repro.sim.clock import SimClock
from repro.sim.cpu import CpuModel
from repro.rig import new_rig
from repro.units import KIB, MIB
from repro.workloads.smallfile import run_small_file_test

from tests.conftest import small_lfs_config


def make_rig(telemetry=None) -> LogStructuredFS:
    clock = SimClock()
    cpu = CpuModel(clock)
    disk = SimDisk(wren_iv(64 * MIB), clock, telemetry=telemetry)
    return LogStructuredFS.mkfs(
        disk, cpu, small_lfs_config(), telemetry=telemetry
    )


def fragment_log(fs: LogStructuredFS, segments: int = 12) -> None:
    """Leave ``segments`` dirty segments, each holding one live block."""
    block_size = fs.config.block_size
    blocks_per_segment = fs.config.segment_size // block_size
    payload = b"u" * block_size
    keeper = fs.create("/keep")
    churn = fs.create("/churn")
    keeper_blocks = churn_blocks = 0
    for _ in range(segments):
        keeper.pwrite(keeper_blocks * block_size, payload)
        keeper_blocks += 1
        for _ in range(blocks_per_segment - 2):
            churn.pwrite(churn_blocks * block_size, payload)
            churn_blocks += 1
        fs.sync()
    keeper.close()
    churn.close()
    fs.unlink("/churn")
    fs.sync()


class TestSmallFileMetricRelationships:
    @pytest.fixture(scope="class")
    def rig(self):
        telemetry = Telemetry()
        fs = make_rig(telemetry)
        run_small_file_test(fs, num_files=40, file_size=1024, verify=True)
        return telemetry, fs

    def test_disk_series_mirror_disk_stats_exactly(self, rig):
        telemetry, fs = rig
        registry = telemetry.registry
        stats = fs.disk.stats
        assert registry.value("disk.reads") == stats.reads
        assert registry.value("disk.writes") == stats.writes
        assert registry.value("disk.bytes_read") == stats.bytes_read
        assert registry.value("disk.bytes_written") == stats.bytes_written
        assert registry.value("disk.sync_requests") == stats.sync_requests
        assert registry.value("disk.busy_seconds") == pytest.approx(
            stats.busy_seconds
        )

    def test_tier_labelled_series_mirror_tier_counts(self, rig):
        telemetry, fs = rig
        for tier, count in fs.disk.stats.tier_counts.items():
            assert telemetry.registry.value("disk.requests", tier=tier) == count

    def test_request_histogram_covers_every_request(self, rig):
        telemetry, fs = rig
        histogram = telemetry.registry.get("disk.request_bytes")
        assert histogram.count == fs.disk.stats.requests
        assert histogram.total == (
            fs.disk.stats.bytes_read + fs.disk.stats.bytes_written
        )

    def test_cache_series_mirror_cache_stats(self, rig):
        telemetry, fs = rig
        registry = telemetry.registry
        assert registry.value("cache.hits") == fs.cache.stats.hits
        assert registry.value("cache.misses") == fs.cache.stats.misses
        assert registry.value("cache.insertions") == fs.cache.stats.insertions
        assert registry.value("cache.evictions") == fs.cache.stats.evictions

    def test_fs_layer_accounts_every_write(self, rig):
        telemetry, fs = rig
        # One fs.write span per pwrite; their byte attrs sum to the
        # fs.bytes_written counter (40 files x 1 KiB).
        writes = telemetry.tracer.by_kind("fs.write")
        assert telemetry.tracer.kind_counts["fs.write"] >= 40
        assert sum(s.attrs["bytes"] for s in writes) == telemetry.registry.value(
            "fs.bytes_written"
        )
        assert telemetry.registry.value("fs.bytes_written") == 40 * 1024

    def test_flush_spans_labelled_by_reason(self, rig):
        telemetry, _fs = rig
        flushes = telemetry.tracer.by_kind("cache.flush")
        assert flushes
        assert all("reason" in span.attrs for span in flushes)


class TestCleaningJsonlCrossCheck:
    def test_export_covers_all_layers_and_matches_disk_deltas(self, tmp_path):
        telemetry = Telemetry()
        fs = make_rig(telemetry)
        fragment_log(fs)
        read_before = fs.disk.stats.bytes_read
        written_before = fs.disk.stats.bytes_written
        cleaned = fs.clean_now(fs.layout.num_segments)
        fs.disk.drain()
        assert cleaned > 0
        read_delta = fs.disk.stats.bytes_read - read_before
        written_delta = fs.disk.stats.bytes_written - written_before

        out = str(tmp_path / "cleaning.jsonl")
        export_jsonl(telemetry, out)
        records = read_jsonl(out)
        summary = records[-1]
        assert summary["type"] == "summary"
        assert len(summary["metric_names"]) >= 6
        assert len(summary["span_kinds"]) >= 4
        assert {
            "fs.write",
            "cache.flush",
            "cleaner.clean",
            "cleaner.relocate_segment",
            "checkpoint.write",
        } <= set(summary["span_kinds"])

        metrics = {
            (r["name"], tuple(sorted(r["labels"].items()))): r
            for r in records
            if r["type"] == "metric"
        }
        # The cleaner moved bytes through the disk: its own counters
        # must fit inside the DiskStats delta taken around the clean.
        cleaner_read = metrics[("cleaner.bytes_read", ())]["value"]
        assert 0 < cleaner_read <= read_delta
        live_copied = metrics[("cleaner.live_bytes_copied", ())]["value"]
        assert live_copied == fs.cleaner.stats.live_bytes_copied
        assert 0 < live_copied <= written_delta
        # And the disk-layer series equal the cumulative DiskStats.
        assert metrics[("disk.bytes_read", ())]["value"] == fs.disk.stats.bytes_read
        assert (
            metrics[("disk.bytes_written", ())]["value"]
            == fs.disk.stats.bytes_written
        )

    def test_relocation_spans_nest_under_clean(self, tmp_path):
        telemetry = Telemetry()
        fs = make_rig(telemetry)
        fragment_log(fs, segments=4)
        fs.clean_now(fs.layout.num_segments)
        tracer = telemetry.tracer
        (clean_span,) = tracer.by_kind("cleaner.clean")
        relocations = tracer.by_kind("cleaner.relocate_segment")
        assert relocations
        for span in relocations:
            # Relocations run inside the cleaning pass (directly, or under
            # intermediate spans the pass opened).
            assert span.start >= clean_span.start
            assert span.end <= clean_span.end
        assert clean_span.attrs["cleaned"] == fs.cleaner.stats.segments_cleaned
        live = sum(span.attrs["live_blocks"] for span in relocations)
        assert live == fs.cleaner.stats.live_blocks_copied
        # Each relocation names the requests it read and their bytes,
        # which never exceed the segment.
        read = sum(span.attrs["bytes_read"] for span in relocations)
        assert read == fs.cleaner.stats.bytes_read
        for span in relocations:
            assert span.attrs["reads"] >= 1
            assert 0 < span.attrs["bytes_read"] <= fs.config.segment_size

    def test_each_pass_is_a_span_under_clean(self):
        telemetry = Telemetry()
        fs = make_rig(telemetry)
        fragment_log(fs)
        fs.clean_now(fs.layout.num_segments)
        tracer = telemetry.tracer
        (clean_span,) = tracer.by_kind("cleaner.clean")
        passes = tracer.by_kind("cleaner.pass")
        stats = fs.cleaner.stats
        assert len(passes) == stats.passes > 1
        assert {span.parent_id for span in passes} == {clean_span.span_id}
        moved = sum(span.attrs["live_bytes_moved"] for span in passes)
        assert moved == stats.live_bytes_copied
        victims = [seg for span in passes for seg in span.attrs["victims"]]
        assert len(victims) == stats.segments_cleaned
        for span in passes:
            assert all(0.0 <= u < 1.0 for u in span.attrs["u"])
            assert all(age >= 0.0 for age in span.attrs["age"])
            assert span.attrs["clean_after"] > span.attrs["clean_before"]


class TestRecoverySpan:
    def test_roll_forward_span_counts_what_it_read(self):
        clock = SimClock()
        cpu = CpuModel(clock)
        telemetry = Telemetry(trace_io=True)
        disk = SimDisk(wren_iv(64 * MIB), clock, telemetry=telemetry)
        fs = LogStructuredFS.mkfs(disk, cpu, small_lfs_config())
        fs.checkpoint()
        tail = fs.segments.stats.log_bytes_written
        for i in range(4):
            fs.write_file(f"/f{i}", bytes([i]) * 20_000)
            fs.sync()
        tail = fs.segments.stats.log_bytes_written - tail
        fs.crash()
        disk.revive()
        telemetry.tracer.clear()
        again = LogStructuredFS.mount(
            disk, cpu, small_lfs_config(), telemetry=telemetry
        )
        (span,) = telemetry.tracer.by_kind("recovery.roll_forward")
        assert span.attrs["partials_applied"] == 4
        reads = [
            read
            for read in telemetry.tracer.by_kind("disk.read")
            if read.attrs["label"].startswith("roll-forward")
        ]
        assert span.attrs["reads"] == len(reads)
        assert span.attrs["bytes_read"] == sum(
            read.attrs["bytes"] for read in reads
        )
        # Summaries and replayed metadata only: well under the tail.
        assert 0 < span.attrs["bytes_read"] < tail / 2
        assert again.read_file("/f3") == bytes([3]) * 20_000


class TestTelemetryChangesNothing:
    def test_identical_simulated_results_with_and_without(self):
        def run(telemetry):
            fs = make_rig(telemetry)
            run_small_file_test(fs, num_files=20, file_size=1024, verify=False)
            fs.sync()
            return fs

        fs_on = run(Telemetry())
        fs_off = run(None)
        assert fs_on.clock.now() == fs_off.clock.now()
        assert fs_on.disk.stats == fs_off.disk.stats
        assert (
            fs_on.segments.stats.log_bytes_written
            == fs_off.segments.stats.log_bytes_written
        )


def fill_until_no_space(telemetry):
    """Write 64 KiB files to an 8 MiB LFS until a write raises."""
    fs = new_rig(
        "lfs",
        total_bytes=8 * MIB,
        lfs_config=small_lfs_config(cache_bytes=1 * MIB),
        telemetry=telemetry,
    ).fs
    with pytest.raises(NoSpaceError):
        for index in range(1000):
            with fs.create(f"/f{index}") as handle:
                handle.write(bytes([index % 251]) * (64 * KIB))
    return fs


class TestReadBackSeries:
    def test_series_equal_the_layer_counts_after_no_space(self):
        # A write that fills the volume raises from its write-back after
        # the file system counted its bytes, and from inside a cleaning
        # pass after the cleaner counted segments.
        telemetry = Telemetry()
        fs = fill_until_no_space(telemetry)
        value = telemetry.registry.value
        assert fs.cleaner.stats.segments_cleaned > 0
        assert value("fs.bytes_written") == fs.stats.bytes_written
        assert value("wamp.user_bytes") == fs.stats.bytes_written
        assert (
            value("cleaner.segments_cleaned")
            == fs.cleaner.stats.segments_cleaned
        )

    def test_cleaner_accounts_a_pass_that_raises(self):
        # The cleaning pass that meets NoSpaceError still spent its time
        # and moved the clean reserve.
        telemetry = Telemetry()
        fs = fill_until_no_space(telemetry)
        cleaner = fs.cleaner
        assert cleaner.stats.busy_seconds > 0
        assert cleaner.stats.busy_seconds == pytest.approx(
            telemetry.tracer.kind_seconds["cleaner.clean"], rel=1e-12
        )
        assert telemetry.registry.value("cleaner.clean_reserve") == (
            fs.usage.clean_count() - fs.segments.reserve_segments
        )

    def test_crashed_file_system_and_cache_are_collected(self):
        telemetry = Telemetry()
        fs = make_rig(telemetry)
        fs.create("/a").write(b"a" * 10_000)
        fs.sync()
        disk, cpu = fs.disk, fs.cpu
        dropped = [weakref.ref(fs), weakref.ref(fs.cache)]
        fs.crash()
        disk.revive()
        fs = LogStructuredFS.mount(disk, cpu, telemetry=telemetry)
        fs.create("/b").write(b"b" * 5_000)
        gc.collect()
        assert [ref() for ref in dropped] == [None, None]
        # The dropped file system's counts still add to the series.
        assert telemetry.registry.value("fs.bytes_written") == 15_000
