"""Unit tests for the group committer: N fsyncs, one flush."""

from __future__ import annotations

from collections import deque

import pytest

from repro.cache.writeback import WritebackReason
from repro.obs import Telemetry
from repro.service.committer import COMMIT_WINDOW, GroupCommitter
from repro.service.stats import ServiceStats


@pytest.fixture
def ready() -> deque:
    return deque()


def make_committer(lfs, ready, telemetry=None):
    stats = ServiceStats()
    committer = GroupCommitter(lfs, stats, ready.append, telemetry=telemetry)
    return committer, stats


def drain(ready: deque) -> int:
    ran = 0
    while ready:
        ready.popleft()()
        ran += 1
    return ran


class TestWindowLifecycle:
    def test_first_fsync_opens_a_window(self, lfs, ready):
        committer, _stats = make_committer(lfs, ready)
        with lfs.create("/a") as handle:
            handle.write(b"x" * 4096)
        h = lfs.open("/a")
        committer.request_commit(h, lambda: None, lambda: None)
        assert committer.window_open
        assert committer.waiting == 1
        assert lfs.clock.pending_timers() >= 1

    def test_window_closes_after_commit_window_seconds(self, lfs, ready):
        committer, _stats = make_committer(lfs, ready)
        with lfs.create("/a") as handle:
            handle.write(b"x" * 4096)
        h = lfs.open("/a")
        start = lfs.clock.now()
        committer.request_commit(h, lambda: None, lambda: None)
        lfs.clock.advance(COMMIT_WINDOW / 2)
        assert drain(ready) == 0  # the window is still open
        assert committer.window_open
        lfs.clock.advance(COMMIT_WINDOW)
        assert drain(ready) >= 1  # the commit event, then the callback
        assert not committer.window_open
        assert committer.commits == 1
        assert lfs.clock.now() >= start + COMMIT_WINDOW

    def test_batched_fsyncs_share_one_flush(self, lfs, ready):
        committer, stats = make_committer(lfs, ready)
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
        assert committer.waiting == 6
        lfs.clock.advance(1.0)
        drain(ready)
        sync_flushes = (
            lfs.monitor.triggers.get(WritebackReason.SYNC, 0)
            - sync_flushes_before
        )
        assert sync_flushes == 1  # one flush covered all six fsyncs
        assert done == [0, 1, 2, 3, 4, 5]  # FIFO completion order
        assert stats.commit_batches == [6]

    def test_empty_window_commit_is_a_noop(self, lfs, ready):
        committer, stats = make_committer(lfs, ready)
        committer.flush_now()
        assert committer.commits == 0
        assert stats.commit_batches == []

    def test_second_window_opens_after_first_closes(self, lfs, ready):
        committer, stats = make_committer(lfs, ready)
        for name in ("/a", "/b"):
            with lfs.create(name) as handle:
                handle.write(b"y" * 4096)
        h1 = lfs.open("/a")
        committer.request_commit(h1, lambda: None, lambda: None)
        lfs.clock.advance(1.0)
        drain(ready)
        h2 = lfs.open("/b")
        committer.request_commit(h2, lambda: None, lambda: None)
        assert committer.window_open
        lfs.clock.advance(1.0)
        drain(ready)
        assert stats.commit_batches == [1, 1]


class TestCommitterTelemetry:
    def test_batch_size_metrics(self, lfs, ready):
        telemetry = Telemetry()
        committer, _stats = make_committer(lfs, ready, telemetry=telemetry)
        for i in range(3):
            with lfs.create(f"/t{i}") as handle:
                handle.write(b"z" * 4096)
            committer.request_commit(
                lfs.open(f"/t{i}"), lambda: None, lambda: None
            )
        lfs.clock.advance(1.0)
        drain(ready)
        assert telemetry.registry.value("service.commits") == 1
        assert telemetry.registry.value("service.fsyncs_committed") == 3
