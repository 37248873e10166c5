"""Unit tests for the group committer: N fsyncs, one flush."""

from __future__ import annotations

from repro.cache.writeback import WritebackReason
from repro.obs import Telemetry
from repro.service.committer import COMMIT_WINDOW, GroupCommitter
from repro.service.stats import ServiceStats


def make_committer(lfs, telemetry=None):
    stats = ServiceStats()
    committer = GroupCommitter(lfs, stats, telemetry=telemetry)
    return committer, stats


class TestWindowLifecycle:
    def test_first_fsync_opens_a_window(self, lfs):
        committer, _stats = make_committer(lfs)
        with lfs.create("/a") as handle:
            handle.write(b"x" * 4096)
        h = lfs.open("/a")
        committer.request_commit(h, lambda: None, lambda: None)
        assert committer._window_open
        assert len(committer._waiters) == 1
        assert len(lfs.clock._events) >= 1

    def test_window_closes_after_commit_window_seconds(self, lfs):
        committer, stats = make_committer(lfs)
        with lfs.create("/a") as handle:
            handle.write(b"x" * 4096)
        h = lfs.open("/a")
        start = lfs.clock.now()
        done = []
        committer.request_commit(
            h, lambda: done.append(lfs.clock.now()), lambda: None
        )
        lfs.clock.advance(COMMIT_WINDOW / 2)
        assert committer._window_open  # the window is still open
        lfs.clock.run()  # the commit event, then the callback
        assert not committer._window_open
        assert len(stats.commit_batches) == 1
        assert done and done[0] >= start + COMMIT_WINDOW

    def test_batched_fsyncs_share_one_flush(self, lfs):
        committer, stats = make_committer(lfs)
        handles = []
        for i in range(6):
            with lfs.create(f"/f{i}") as handle:
                handle.write(bytes([i]) * 4096)
            handles.append(lfs.open(f"/f{i}"))
        lfs.flush_log()  # start from a clean slate of sync triggers
        sync_flushes_before = lfs.monitor.triggers.get(
            WritebackReason.SYNC, 0
        )
        done = []
        for i, handle in enumerate(handles):
            committer.request_commit(
                handle, lambda i=i: done.append(i), lambda: None
            )
        assert len(committer._waiters) == 6
        lfs.clock.run()
        sync_flushes = (
            lfs.monitor.triggers.get(WritebackReason.SYNC, 0)
            - sync_flushes_before
        )
        assert sync_flushes == 1  # one flush covered all six fsyncs
        assert done == [0, 1, 2, 3, 4, 5]  # FIFO completion order
        assert stats.commit_batches == [6]

    def test_empty_window_commit_is_a_noop(self, lfs):
        committer, stats = make_committer(lfs)
        committer._commit()
        assert stats.commit_batches == []

    def test_second_window_opens_after_first_closes(self, lfs):
        committer, stats = make_committer(lfs)
        for name in ("/a", "/b"):
            with lfs.create(name) as handle:
                handle.write(b"y" * 4096)
        h1 = lfs.open("/a")
        committer.request_commit(h1, lambda: None, lambda: None)
        lfs.clock.run()
        h2 = lfs.open("/b")
        committer.request_commit(h2, lambda: None, lambda: None)
        assert committer._window_open
        lfs.clock.run()
        assert stats.commit_batches == [1, 1]


class TestCommitterTelemetry:
    def test_batch_size_metrics(self, lfs):
        telemetry = Telemetry()
        committer, _stats = make_committer(lfs, telemetry=telemetry)
        for i in range(3):
            with lfs.create(f"/t{i}") as handle:
                handle.write(b"z" * 4096)
            committer.request_commit(
                lfs.open(f"/t{i}"), lambda: None, lambda: None
            )
        lfs.clock.run()
        assert telemetry.registry.value("service.commits") == 1
        assert telemetry.registry.value("service.fsyncs_committed") == 3
