"""Behavioural tests for the segment cleaner (§4.3.2-§4.3.4)."""


from repro.lfs.cleaner import CleanerPolicy
from repro.lfs.config import MAX_LIVE_FRACTION_TO_CLEAN
from repro.lfs.filesystem import LogStructuredFS
from repro.lfs.segment_usage import SegmentState
from tests.conftest import small_lfs_config


def fill_and_fragment(lfs, rounds=3, files=150, size=4096, delete_every=2):
    """Create churn that leaves fragmented segments behind."""
    kept = []
    for round_ in range(rounds):
        names = []
        for i in range(files):
            name = f"/c{round_}_{i}"
            lfs.write_file(name, bytes([(round_ * 50 + i) % 256]) * size)
            names.append(name)
        lfs.sync()
        for index, name in enumerate(names):
            if index % delete_every == 0:
                lfs.unlink(name)
            else:
                kept.append(name)
    lfs.sync()
    return kept


class TestVictimSelection:
    def test_greedy_prefers_emptiest(self, disk, cpu):
        lfs = LogStructuredFS.mkfs(
            disk, cpu, small_lfs_config(cleaner_policy="greedy")
        )
        fill_and_fragment(lfs)
        victims = lfs.cleaner.select_victims(3)
        utils = [lfs.usage.utilization(seg) for seg in victims]
        all_utils = sorted(
            lfs.usage.utilization(seg) for seg in lfs.usage.dirty_segments()
        )
        assert utils == all_utils[:3]

    def test_full_segments_never_selected(self, lfs):
        for i in range(400):
            lfs.write_file(f"/full{i}", b"f" * 4096)
        lfs.sync()
        for seg in lfs.cleaner.select_victims(100):
            assert lfs.usage.utilization(seg) <= MAX_LIVE_FRACTION_TO_CLEAN

    def test_cost_benefit_prefers_old_when_equal(self, disk, cpu):
        config = small_lfs_config(cleaner_policy="cost-benefit")
        fs = LogStructuredFS.mkfs(disk, cpu, config)
        fill_and_fragment(fs)
        assert fs.cleaner.policy is CleanerPolicy.COST_BENEFIT
        victims = fs.cleaner.select_victims(2)
        assert victims  # selection works under the alternate policy

    def test_random_policy_selects_candidates(self, disk, cpu):
        config = small_lfs_config(cleaner_policy="random")
        fs = LogStructuredFS.mkfs(disk, cpu, config)
        fill_and_fragment(fs)
        victims = fs.cleaner.select_victims(4)
        dirty = set(fs.usage.dirty_segments())
        assert set(victims) <= dirty

    def test_no_candidates_on_clean_fs(self, lfs):
        assert lfs.cleaner.select_victims(4) == []


class TestCleaning:
    def test_cleaning_preserves_contents(self, lfs):
        kept = fill_and_fragment(lfs)
        cleaned = lfs.clean_now(lfs.layout.num_segments)
        assert cleaned > 0
        for name in kept:
            data = lfs.read_file(name)
            assert len(data) == 4096
            assert len(set(data)) == 1  # uniform payload survived

    def test_cleaning_increases_clean_count(self, lfs):
        fill_and_fragment(lfs)
        before = lfs.usage.clean_count()
        lfs.clean_now(lfs.layout.num_segments)
        assert lfs.usage.clean_count() > before

    def test_cleaned_segments_are_clean_and_empty(self, lfs):
        fill_and_fragment(lfs)
        dirty_before = set(lfs.usage.dirty_segments())
        lfs.clean_now(lfs.layout.num_segments)
        for seg in dirty_before:
            info = lfs.usage.info(seg)
            if info.state is SegmentState.CLEAN:
                assert info.live_bytes == 0

    def test_empty_segment_fast_path(self, lfs):
        # Delete everything: victims have zero live bytes and must be
        # reclaimed without reading them (§5.3).
        for i in range(300):
            lfs.write_file(f"/gone{i}", b"g" * 4096)
        lfs.sync()
        for i in range(300):
            lfs.unlink(f"/gone{i}")
        lfs.sync()
        bytes_read_before = lfs.cleaner.stats.bytes_read
        lfs.clean_now(lfs.layout.num_segments)
        assert lfs.cleaner.stats.empty_segments_skipped > 0
        # Only segments still holding live metadata (the directory's own
        # blocks) may be read; the all-dead file segments cost nothing.
        assert (
            lfs.cleaner.stats.bytes_read - bytes_read_before
            <= lfs.config.segment_size
        )

    def test_version_check_skips_deleted_files(self, lfs):
        # §4.3.3 step 1: summary-entry versions identify dead blocks
        # without consulting the inode.
        for i in range(200):
            lfs.write_file(f"/v{i}", b"v" * 4096)
        lfs.sync()
        for i in range(0, 200, 2):
            lfs.unlink(f"/v{i}")
        lfs.sync()
        lfs.clean_now(lfs.layout.num_segments)
        stats = lfs.cleaner.stats
        assert stats.dead_blocks_dropped > 0
        assert stats.live_blocks_copied > 0

    def test_cleaning_ends_with_checkpoint(self, lfs):
        fill_and_fragment(lfs)
        checkpoints_before = lfs.checkpoints.checkpoints_written
        if lfs.clean_now(lfs.layout.num_segments):
            assert lfs.checkpoints.checkpoints_written > checkpoints_before

    def test_cleaning_survives_remount(self, lfs):
        kept = fill_and_fragment(lfs)
        lfs.clean_now(lfs.layout.num_segments)
        lfs.unmount()
        again = LogStructuredFS.mount(lfs.disk, lfs.cpu, small_lfs_config())
        for name in kept:
            assert len(again.read_file(name)) == 4096

    def test_cleaning_relocates_dirty_cache_copies_once(self, lfs):
        # A file whose block is dirty in cache while its old on-disk copy
        # is being cleaned must not be duplicated or lost.
        lfs.write_file("/hot", b"1" * 4096)
        lfs.sync()
        with lfs.open("/hot") as handle:
            handle.pwrite(0, b"2" * 4096)  # dirty in cache
        lfs.clean_now(lfs.layout.num_segments)
        assert lfs.read_file("/hot") == b"2" * 4096

    def test_usage_accounting_stays_exact(self, lfs):
        fill_and_fragment(lfs, rounds=4)
        lfs.clean_now(lfs.layout.num_segments)
        assert lfs.usage.underflow_clamps == 0


class TestCleanerObservability:
    """The backpressure inputs: clean_reserve and per-policy victims."""

    def _telemetry_lfs(self):
        from repro import make_lfs
        from repro.obs import Telemetry

        telemetry = Telemetry()
        fs = make_lfs(total_bytes=24 * 1024 * 1024, telemetry=telemetry)
        return fs, telemetry

    def test_clean_reserve_counts_beyond_hard_reserve(self, lfs):
        expected = (
            lfs.usage.clean_count() - lfs.segments.reserve_segments
        )
        assert lfs.cleaner.clean_reserve() == expected

    def test_clean_reserve_drops_as_log_fills(self, lfs):
        before = lfs.cleaner.clean_reserve()
        for i in range(200):
            lfs.write_file(f"/r{i}", b"r" * 4096)
        lfs.sync()
        assert lfs.cleaner.clean_reserve() < before

    def test_clean_reserve_gauge_published(self):
        fs, telemetry = self._telemetry_lfs()
        reserve = fs.cleaner.clean_reserve()
        assert telemetry.registry.value("cleaner.clean_reserve") == reserve

    def test_victims_counter_labelled_by_policy(self):
        fs, telemetry = self._telemetry_lfs()
        fill_and_fragment(fs)
        cleaned = fs.clean_now(fs.layout.num_segments)
        assert cleaned > 0
        victims = telemetry.registry.value(
            "cleaner.victims", policy="cost-benefit"
        )
        assert victims >= cleaned - fs.cleaner.stats.empty_segments_skipped
        # Unused policies exist as zero series, so `repro stats` always
        # shows the full breakdown.
        for unused in ("greedy", "random"):
            assert telemetry.registry.value("cleaner.victims", policy=unused) == 0


class TestFsyncMany:
    def test_batched_fsync_flushes_once(self, lfs):
        handles = []
        for i in range(8):
            handle = lfs.create(f"/batch{i}")
            handle.write(b"b" * 4096)
            handles.append(handle)
        flushes_before = lfs.segments.log_bytes_written
        lfs.fsync_many(handles)
        assert lfs.cache.dirty_bytes == 0
        assert lfs.segments.log_bytes_written > flushes_before
        # One explicit SYNC trigger for the whole batch, not eight.
        from repro.cache.writeback import WritebackReason

        assert lfs.monitor.triggers[WritebackReason.SYNC] == 1
        for handle in handles:
            handle.close()

    def test_empty_batch_is_a_noop(self, lfs):
        written = lfs.segments.log_bytes_written
        lfs.fsync_many([])
        assert lfs.segments.log_bytes_written == written

    def test_single_fsync_delegates_to_batch_path(self, lfs):
        with lfs.create("/solo") as handle:
            handle.write(b"s" * 4096)
            handle.fsync()
        assert lfs.cache.dirty_bytes == 0


class TestWampReport:
    def test_amplification_exceeds_one_after_cleaning(self, lfs):
        fill_and_fragment(lfs)
        assert lfs.clean_now(lfs.layout.num_segments) > 0
        lfs.sync()
        wamp = lfs.wamp_report()
        assert wamp["user_bytes"] > 0
        assert wamp["cleaner_bytes"] > 0
        assert wamp["log_bytes"] >= wamp["cleaner_bytes"]
        assert wamp["write_amplification"] > 1.0
        assert wamp["cleaner_fraction"] == (
            wamp["cleaner_bytes"] / wamp["log_bytes"]
        )

    def test_fresh_fs_has_unit_ledger(self, lfs):
        wamp = lfs.wamp_report()
        assert wamp["user_bytes"] == 0
        assert wamp["cleaner_bytes"] == 0
        assert wamp["write_amplification"] == 0.0

    def test_wamp_counters_mirror_the_ledger(self, disk, cpu):
        from repro.obs import Telemetry

        telemetry = Telemetry()
        lfs = LogStructuredFS.mkfs(
            disk, cpu, small_lfs_config(), telemetry=telemetry
        )
        fill_and_fragment(lfs)
        lfs.clean_now(lfs.layout.num_segments)
        lfs.sync()
        wamp = lfs.wamp_report()
        metrics = {
            record["name"]: record["value"]
            for record in telemetry.registry.to_dict()["metrics"]
            if record["name"].startswith("wamp.")
        }
        assert metrics["wamp.user_bytes"] == wamp["user_bytes"]
        assert metrics["wamp.log_bytes"] == wamp["log_bytes"]
        assert metrics["wamp.cleaner_bytes"] == wamp["cleaner_bytes"]
