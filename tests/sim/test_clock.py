"""Unit tests for the simulated clock."""

import pytest

from repro.sim.clock import SimClock


class TestAdvance:
    def test_starts_at_zero(self):
        assert SimClock().now() == 0.0

    def test_custom_start(self):
        assert SimClock(start=5.0).now() == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start=-1.0)

    def test_advance_moves_time(self):
        clock = SimClock()
        clock.advance(2.5)
        assert clock.now() == 2.5

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.0)
        clock.advance(0.5)
        assert clock.now() == pytest.approx(1.5)

    def test_negative_advance_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_advance_to_past_is_noop(self):
        clock = SimClock()
        clock.advance(10.0)
        clock.advance_to(3.0)
        assert clock.now() == 10.0

    def test_advance_to_future(self):
        clock = SimClock()
        clock.advance_to(7.0)
        assert clock.now() == 7.0

    def test_advance_returns_new_time(self):
        clock = SimClock()
        assert clock.advance(4.0) == 4.0


class TestTimers:
    def test_timer_fires_during_advance(self):
        # Under the one-queue clock an event runs from run(), with the
        # clock moved to its due time, never from inside advance.
        clock = SimClock()
        fired = []
        clock.call_at(5.0, lambda: fired.append(clock.now()))
        clock.run()
        assert fired == [5.0]

    def test_timer_not_fired_early(self):
        clock = SimClock()
        fired = []
        clock.call_at(5.0, lambda: fired.append(True))
        clock.advance_to(4.9)
        assert fired == []

    def test_timers_fire_in_expiry_order(self):
        clock = SimClock()
        fired = []
        clock.call_at(3.0, lambda: fired.append("b"))
        clock.call_at(1.0, lambda: fired.append("a"))
        clock.call_at(5.0, lambda: fired.append("c"))
        clock.run()
        assert fired == ["a", "b", "c"]

    def test_same_expiry_keeps_insertion_order(self):
        clock = SimClock()
        fired = []
        clock.call_at(2.0, lambda: fired.append("first"))
        clock.call_at(2.0, lambda: fired.append("second"))
        clock.run()
        assert fired == ["first", "second"]

    def test_past_timer_fires_on_next_advance(self):
        # A past-due event runs next, and the clock does not go back.
        clock = SimClock()
        clock.advance(10.0)
        fired = []
        clock.call_at(6.0, lambda: fired.append("later"))
        clock.call_at(5.0, lambda: fired.append(clock.now()))
        clock.run()
        assert fired == [10.0, "later"]
        assert clock.now() == 10.0

    def test_cancel_all(self):
        clock = SimClock()
        fired = []
        clock.call_at(1.0, lambda: fired.append(True))
        clock.cancel_all_timers()
        clock.run()
        assert fired == []
        assert len(clock._events) == 0
        assert clock.now() == 0.0

    def test_pending_count(self):
        clock = SimClock()
        clock.call_at(1.0, lambda: None)
        clock.call_at(2.0, lambda: None)
        assert len(clock._events) == 2

    def test_clock_sits_at_expiry_while_firing(self):
        clock = SimClock()
        seen = []

        def busy():
            seen.append(clock.now())
            clock.advance(1.0)  # work the event charges

        clock.call_at(3.0, busy)
        clock.call_at(3.5, lambda: seen.append(clock.now()))
        clock.call_at(6.0, lambda: seen.append(clock.now()))
        clock.run()
        # The 3.5 event came due while the first one ran: it runs late,
        # at the time the clock had reached.
        assert seen == [3.0, 4.0, 6.0]

    def test_advance_and_advance_to_never_run_an_event(self):
        clock = SimClock()
        fired = []
        clock.call_at(1.0, lambda: fired.append("a"))
        clock.call_at(0.0, lambda: fired.append("now"))
        clock.advance(2.0)
        clock.advance_to(5.0)
        assert fired == []
        assert len(clock._events) == 2
        assert clock.now() == 5.0

    def test_event_posted_at_now_runs_under_run(self):
        # Regression: an event due at the current instant (a migration
        # armed at t=0) used to spin the old two-queue run loop forever.
        clock = SimClock(start=2.0)
        fired = []
        clock.call_at(clock.now(), lambda: fired.append(clock.now()))
        clock.run()
        assert fired == [2.0]
        assert len(clock._events) == 0


class TestTimerFifoOrdering:
    """Regression: equal-timestamp events must run strictly FIFO.

    The service layer's request scheduler routinely lands several events
    on the same instant; runs are only reproducible if ties break by
    posting order, independent of how the heap rebalances.
    """

    def test_many_equal_timestamps_fire_in_scheduling_order(self):
        clock = SimClock()
        fired = []
        for i in range(100):
            clock.call_at(1.0, lambda i=i: fired.append(i))
        clock.run()
        assert fired == list(range(100))

    def test_interleaved_equal_and_distinct_expiries(self):
        clock = SimClock()
        fired = []
        # Posted in a deliberately scrambled order; ties at t=2.0 must
        # still come out in posting order (b before d before e).
        clock.call_at(3.0, lambda: fired.append("late"))
        clock.call_at(2.0, lambda: fired.append("b"))
        clock.call_at(1.0, lambda: fired.append("a"))
        clock.call_at(2.0, lambda: fired.append("d"))
        clock.call_at(2.0, lambda: fired.append("e"))
        clock.run()
        assert fired == ["a", "b", "d", "e", "late"]

    def test_callback_scheduling_same_instant_fires_after_existing(self):
        clock = SimClock()
        fired = []

        def first():
            fired.append("first")
            # Posted for the instant being run: it runs after everything
            # already queued for t=1, and before anything later.
            clock.call_at(clock.now(), lambda: fired.append("nested"))

        clock.call_at(1.0, first)
        clock.call_at(1.0, lambda: fired.append("second"))
        clock.call_at(2.0, lambda: fired.append("later"))
        clock.run()
        assert fired == ["first", "second", "nested", "later"]

    def test_fifo_survives_partial_draining(self):
        clock = SimClock()
        fired = []
        for i in range(10):
            clock.call_at(float(i % 3), lambda i=i: fired.append(i))
        clock.run()
        assert fired == [0, 3, 6, 9, 1, 4, 7, 2, 5, 8]


class TestBatchedDispatch:
    """An event may cancel or post events while the queue is running."""

    def test_pending_timers_tracks_buckets(self):
        # Every event counts, however many share an instant.
        clock = SimClock()
        seen = []
        for _ in range(3):
            clock.call_at(1.0, lambda: seen.append(len(clock._events)))
        clock.call_at(2.0, lambda: seen.append(len(clock._events)))
        assert len(clock._events) == 4
        clock.run()
        assert seen == [3, 2, 1, 0]

    def test_cancel_all_inside_callback_stops_batch(self):
        clock = SimClock()
        fired = []

        def cancel():
            fired.append("cancel")
            clock.cancel_all_timers()

        clock.call_at(1.0, cancel)
        clock.call_at(1.0, lambda: fired.append("late"))
        clock.call_at(2.0, lambda: fired.append("other"))
        clock.run()
        assert fired == ["cancel"]
        assert len(clock._events) == 0
        assert clock.now() == 1.0

    def test_cancel_then_reschedule_same_expiry_inside_callback(self):
        clock = SimClock()
        fired = []

        def cancel_and_reschedule():
            fired.append("first")
            clock.cancel_all_timers()
            # Posted after the cancel: it still runs in this run().
            clock.call_at(1.0, lambda: fired.append("fresh"))

        clock.call_at(1.0, cancel_and_reschedule)
        clock.call_at(1.0, lambda: fired.append("stale"))
        clock.run()
        assert fired == ["first", "fresh"]

    def test_earlier_expiry_scheduled_mid_batch_preempts(self):
        clock = SimClock(start=0.0)
        fired = []

        def schedule_earlier():
            fired.append("a")
            # Already-past due time: runs next, before the rest of t=2.
            clock.call_at(1.0, lambda: fired.append("early"))

        clock.call_at(2.0, schedule_earlier)
        clock.call_at(2.0, lambda: fired.append("b"))
        clock.run()
        assert fired == ["a", "early", "b"]
