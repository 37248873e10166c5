"""Unit tests for the span tracer (simulated-time spans)."""

from __future__ import annotations

import pytest

from repro.obs.tracer import NULL_SPAN, SpanTracer
from repro.sim.clock import SimClock


@pytest.fixture
def tracer(clock: SimClock) -> SpanTracer:
    return SpanTracer(clock=clock)


class TestTiming:
    def test_span_measures_simulated_seconds(self, tracer, clock):
        clock.advance(10.0)
        with tracer.span("fs.write"):
            clock.advance(2.5)
        (span,) = tracer.spans
        assert span.start == 10.0
        assert span.end == 12.5
        assert span.duration == 2.5
        assert tracer.kind_seconds["fs.write"] == 2.5

    def test_unbound_tracer_records_zero_times(self):
        tracer = SpanTracer()
        with tracer.span("fs.write"):
            pass
        (span,) = tracer.spans
        assert span.start == 0.0 and span.end == 0.0


class TestNesting:
    def test_children_record_parent_ids(self, tracer, clock):
        with tracer.span("cleaner.clean") as outer:
            with tracer.span("cleaner.relocate_segment"):
                clock.advance(1.0)
            with tracer.span("cleaner.relocate_segment"):
                clock.advance(1.0)
        outer_span = tracer.by_kind("cleaner.clean")[0]
        children = [
            span for span in tracer.spans if span.parent_id == outer_span.span_id
        ]
        assert [c.kind for c in children] == ["cleaner.relocate_segment"] * 2
        assert outer_span.parent_id is None
        assert outer.set_attr is not None  # context object is the span API

    def test_exception_unwinds_open_spans(self, tracer, clock):
        with pytest.raises(RuntimeError):
            with tracer.span("fs.write"):
                with tracer.span("cache.flush"):
                    raise RuntimeError("boom")
        assert tracer._stack == []
        assert {s.kind for s in tracer.spans} == {"fs.write", "cache.flush"}
        assert all(s.end is not None for s in tracer.spans)


class TestAttrs:
    def test_attrs_from_open_and_set_attr(self, tracer):
        with tracer.span("checkpoint.write", region=1) as span:
            span.set_attr("blocks", 12)
        (recorded,) = tracer.spans
        assert recorded.attrs == {"region": 1, "blocks": 12}
        assert recorded.to_dict()["attrs"] == {"region": 1, "blocks": 12}


class TestRetention:
    def test_max_spans_drops_events_but_keeps_counting(self, clock):
        tracer = SpanTracer(clock=clock, max_spans=2)
        for _ in range(5):
            with tracer.span("fs.write"):
                clock.advance(1.0)
        assert len(tracer.spans) == 2
        assert tracer.dropped_spans == 3
        # Aggregates keep covering every span, dropped or not.
        assert tracer.kind_counts["fs.write"] == 5
        assert tracer.kind_seconds["fs.write"] == 5.0

    def test_clear_resets_everything(self, tracer, clock):
        with tracer.span("fs.write"):
            clock.advance(1.0)
        tracer.clear()
        assert tracer.spans == []
        assert tracer.kind_counts == {}
        assert tracer.kind_seconds == {}


class TestDisabled:
    def test_disabled_tracer_returns_shared_null_span(self, clock):
        tracer = SpanTracer(clock=clock, enabled=False)
        span = tracer.span("fs.write", bytes=1)
        assert span is NULL_SPAN
        with span as active:
            active.set_attr("ignored", True)
        assert tracer.spans == []
        assert tracer.kind_counts == {}


class TestClockBinding:
    def test_rebinds_between_machines_when_idle(self, tracer):
        second = SimClock(start=100.0)
        tracer.bind_clock(second)
        with tracer.span("fs.write"):
            second.advance(1.0)
        (span,) = tracer.spans
        assert span.start == 100.0 and span.end == 101.0

    def test_never_rebinds_while_a_span_is_open(self, tracer, clock):
        second = SimClock(start=100.0)
        with tracer.span("fs.write"):
            tracer.bind_clock(second)
            clock.advance(3.0)
        (span,) = tracer.spans
        assert tracer.clock is clock
        assert span.duration == 3.0
