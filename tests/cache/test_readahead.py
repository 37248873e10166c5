"""Unit tests for the sequential readahead policy."""

import pytest

from repro.cache.readahead import ReadaheadPolicy
from repro.obs import Telemetry

BLOCK = 4096
FINAL = 1000  # the files' last block: far past every read below


def _transfer(nbytes: int) -> float:
    return nbytes / 1_000_000.0


def _policy(window: int = 8, telemetry=None) -> ReadaheadPolicy:
    return ReadaheadPolicy(window, BLOCK, _transfer, telemetry=telemetry)


@pytest.fixture
def policy() -> ReadaheadPolicy:
    return _policy()


class TestSequentialDetection:
    def test_first_touch_never_prefetches(self, policy):
        assert policy.advise(1, 0, 15, FINAL) == 0

    def test_continuation_opens_the_window(self, policy):
        policy.advise(1, 0, 3, FINAL)
        assert policy.advise(1, 4, 7, FINAL) == 8
        assert policy.stats.sequential_runs == 1

    def test_large_first_access_is_not_a_stream(self, policy):
        # A single big random chunk must not look sequential: the
        # acceptance criterion is zero readahead hits on random reads.
        assert policy.advise(1, 100, 131, FINAL) == 0
        assert policy.advise(1, 40, 71, FINAL) == 0  # jump: still not a stream
        assert policy.stats.sequential_runs == 0

    def test_break_resets_detection(self, policy):
        policy.advise(1, 0, 3, FINAL)
        assert policy.advise(1, 4, 7, FINAL) == 8
        assert policy.advise(1, 90, 93, FINAL) == 0  # stream broke
        assert policy.advise(1, 94, 97, FINAL) == 8  # new continuation
        assert policy.stats.sequential_runs == 2

    def test_reading_to_the_end_leaves_no_stream(self, policy):
        assert policy.advise(1, 0, 9, 9) == 0
        assert policy.advise(1, 10, 11, 20) == 0  # the file grew: a first touch
        assert policy.advise(1, 12, 13, 20) == 7  # only up to the end

    def test_streams_are_per_inode(self, policy):
        policy.advise(1, 0, 3, FINAL)
        policy.advise(2, 50, 53, FINAL)
        assert policy.advise(1, 4, 7, FINAL) == 8
        assert policy.advise(2, 54, 57, FINAL) == 8


class TestInFlightWindow:
    def test_arrival_is_done_minus_the_blocks_after(self, policy):
        policy.advise(1, 0, 1, FINAL)
        policy.advise(1, 2, 3, FINAL)
        policy.issued(1, 4, 9, done=10.0)
        policy.advise(1, 4, 5, FINAL)
        assert policy.settle(1, 4, 5, []) == 10.0 - _transfer(4 * BLOCK)
        policy.advise(1, 6, 9, FINAL)
        assert policy.settle(1, 6, 9, []) == 10.0

    def test_read_outside_the_window_waits_for_nothing(self, policy):
        policy.advise(1, 0, 1, FINAL)
        policy.issued(1, 2, 9, done=10.0)
        assert policy.settle(1, 20, 21, []) == 0.0
        assert policy.settle(2, 2, 3, []) == 0.0

    def test_a_break_keeps_the_window_in_flight(self, policy):
        policy.advise(1, 0, 1, FINAL)
        policy.advise(1, 2, 3, FINAL)
        policy.issued(1, 4, 9, done=10.0)
        policy.advise(1, 8, 8, FINAL)  # a jump into the window
        assert policy.settle(1, 8, 8, []) == 10.0 - _transfer(BLOCK)


class TestHitAccounting:
    def test_prefetched_blocks_count_once(self, policy):
        policy.advise(1, 0, 3, FINAL)
        policy.advise(1, 4, 7, FINAL)
        policy.issued(1, 8, 15, done=1.0)
        assert policy.stats.blocks_prefetched == 8
        policy.settle(1, 8, 15, [])
        assert policy.stats.hits == 8
        policy.settle(1, 8, 15, [])  # same blocks never double-count
        assert policy.stats.hits == 8

    def test_only_blocks_found_cached_are_hits(self, policy):
        policy.advise(1, 0, 1, FINAL)
        policy.issued(1, 2, 5, done=1.0)
        # Blocks 3 and 4 were evicted before the demand came for them.
        policy.settle(1, 2, 5, [(3, 103), (4, 104)])
        assert policy.stats.hits == 2

    def test_untouched_prefetches_are_no_hits(self, policy):
        policy.advise(1, 0, 3, FINAL)
        policy.advise(1, 4, 7, FINAL)
        policy.issued(1, 8, 8, done=1.0)
        for first in (50, 54, 58):  # jump away before touching block 8
            policy.advise(1, first, first + 3, FINAL)
            policy.settle(1, first, first + 3, [])
        assert policy.stats.hits == 0

    def test_telemetry_counter_mirrors_hits(self):
        telemetry = Telemetry()
        policy = _policy(window=4, telemetry=telemetry)
        policy.advise(1, 0, 1, FINAL)
        policy.advise(1, 2, 3, FINAL)
        policy.issued(1, 4, 5, done=1.0)
        policy.settle(1, 4, 5, [(5, 9)])
        assert telemetry.registry.value("cache.readahead_hits") == 1
        assert telemetry.registry.value("cache.readahead_prefetched") == 2


class TestLifecycle:
    def test_disabled_policy_is_inert(self):
        # A cache under four blocks leaves no room to read ahead.
        policy = _policy(window=0)
        assert policy.advise(1, 0, 3, FINAL) == 0
        assert policy.advise(1, 4, 7, FINAL) == 0

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            _policy(window=-1)

    def test_forget_drops_stream_state(self, policy):
        policy.advise(1, 0, 3, FINAL)
        policy.issued(1, 4, 7, done=2.5)
        assert policy.forget(1) == 2.5
        assert policy.advise(1, 4, 7, FINAL) == 0  # first touch again
        assert policy.settle(1, 4, 7, []) == 0.0
        assert policy.forget(2) == 0.0

    def test_clear_drops_every_stream(self, policy):
        policy.advise(1, 0, 3, FINAL)
        policy.advise(2, 0, 3, FINAL)
        policy.clear()
        assert policy.advise(1, 4, 7, FINAL) == 0
        assert policy.advise(2, 4, 7, FINAL) == 0
