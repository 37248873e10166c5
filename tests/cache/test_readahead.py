"""Unit tests for the read stream and its in-flight window."""

import pytest

from repro.cache.readahead import ReadaheadPolicy
from repro.common.inode import BlockKey, BlockKind
from repro.obs import Telemetry

BLOCK = 4096
SPB = BLOCK // 512
TOTAL = 1000  # blocks on the device


def _transfer(nbytes: int) -> float:
    return nbytes / 1_000_000.0


def _policy(window: int = 8, telemetry=None) -> ReadaheadPolicy:
    return ReadaheadPolicy(window, BLOCK, TOTAL, _transfer, telemetry=telemetry)


def _key(inum: int, lbn: int) -> BlockKey:
    return BlockKey(inum, BlockKind.DATA, lbn)


def _window(policy, first: int, count: int, done: float) -> bytes:
    """Issue a window of ``count`` blocks from ``first``, each block
    filled with its address's low byte."""
    data = b"".join(
        bytes([addr % 256]) * BLOCK for addr in range(first, first + count)
    )
    policy.issued(first, memoryview(data), done)
    return data


@pytest.fixture
def policy() -> ReadaheadPolicy:
    return _policy()


class TestSequentialDetection:
    def test_first_touch_never_prefetches(self, policy):
        assert not policy.continues(_key(1, 0), 100)

    def test_continuation_opens_the_window(self, policy):
        policy.ended(_key(1, 3), 103)
        assert policy.continues(_key(2, 0), 104)  # next on the disk
        assert policy.ahead(104) == 8

    def test_large_first_access_is_not_a_stream(self, policy):
        # A random jump, however large the demand, is no stream.
        policy.ended(_key(1, 131), 231)
        assert not policy.continues(_key(1, 40), 140)

    def test_break_resets_detection(self, policy):
        policy.ended(_key(1, 3), 103)
        policy.ended(_key(1, 93), 193)  # a demand elsewhere
        assert not policy.continues(_key(2, 0), 104)
        assert policy.continues(_key(2, 0), 194)

    def test_reading_to_the_end_leaves_no_stream(self, policy):
        # Read-ahead stops at the end of the device.
        assert policy.ahead(TOTAL - 4) == 3
        assert policy.ahead(TOTAL - 1) == 0

    def test_the_stream_follows_a_file_across_the_disk(self, policy):
        policy.ended(_key(1, 3), 103)
        # The file's next block, stored elsewhere, continues the stream;
        # another file's block there does not.
        assert policy.continues(_key(1, 4), 500)
        assert not policy.continues(_key(2, 4), 500)


class TestInFlightWindow:
    def test_arrival_is_done_minus_the_blocks_after(self, policy):
        data = _window(policy, 10, 6, done=10.0)
        view, arrival, last = policy.claim(11)
        assert bytes(view) == data[BLOCK : 2 * BLOCK]
        assert arrival == 10.0 - _transfer(4 * BLOCK)
        assert not last
        _view, arrival, last = policy.claim(15)
        assert arrival == 10.0
        assert last

    def test_read_outside_the_window_waits_for_nothing(self, policy):
        _window(policy, 10, 6, done=10.0)
        assert policy.claim(9) is None
        assert policy.claim(16) is None

    def test_a_break_keeps_the_window_in_flight(self, policy):
        _window(policy, 10, 6, done=10.0)
        policy.ended(_key(1, 0), 500)  # a demand elsewhere
        assert policy.claim(14)[1] == 10.0 - _transfer(BLOCK)


class TestHitAccounting:
    def test_prefetched_blocks_count_once(self, policy):
        _window(policy, 10, 8, done=1.0)
        assert policy.stats.blocks_prefetched == 8
        for addr in range(10, 18):
            policy.claim(addr)
        assert policy.stats.hits == 8
        policy.claim(12)  # taken again after an eviction: no new hit
        assert policy.stats.hits == 8

    def test_blocks_claimed_out_of_order_each_count(self, policy):
        # Files read in another order than their blocks lie.
        _window(policy, 10, 8, done=1.0)
        policy.claim(15)
        policy.claim(12)
        policy.claim(15)
        assert policy.stats.hits == 2

    def test_only_blocks_found_cached_are_hits(self, policy):
        # Only blocks the window holds are hits, and only when taken.
        _window(policy, 10, 4, done=1.0)
        policy.claim(9)
        policy.claim(11)
        policy.claim(14)
        assert policy.stats.hits == 1

    def test_untouched_prefetches_are_no_hits(self, policy):
        _window(policy, 10, 4, done=1.0)
        _window(policy, 50, 4, done=2.0)  # a newer window replaces it
        assert policy.claim(10) is None
        assert policy.stats.hits == 0
        assert policy.stats.blocks_prefetched == 8

    def test_telemetry_counter_mirrors_hits(self):
        telemetry = Telemetry()
        policy = _policy(window=4, telemetry=telemetry)
        _window(policy, 4, 2, done=1.0)
        policy.claim(5)
        assert telemetry.registry.value("cache.readahead_hits") == 1
        assert telemetry.registry.value("cache.readahead_prefetched") == 2


class TestLifecycle:
    def test_disabled_policy_is_inert(self):
        # A cache under four blocks leaves no room to read ahead.
        assert _policy(window=0).ahead(10) == 0

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            _policy(window=-1)

    def test_a_write_over_the_window_drops_it(self, policy):
        _window(policy, 10, 4, done=1.0)
        policy.written(9 * SPB, SPB)  # just before it
        policy.written(14 * SPB, SPB)  # just after it
        assert policy.claim(10) is not None
        policy.written(13 * SPB + SPB - 1, 1)  # its last sector
        assert policy.claim(10) is None

    def test_clear_drops_every_stream(self, policy):
        _window(policy, 10, 4, done=1.0)
        policy.ended(_key(1, 3), 103)
        policy.clear()
        assert policy.claim(10) is None
        assert not policy.continues(_key(1, 4), 104)
