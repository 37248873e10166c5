"""The :class:`Telemetry` facade: one object per simulated machine.

A ``Telemetry`` bundles the metrics registry and the span tracer and is
threaded through every constructor (disk, cache, file systems, cleaner,
checkpoint manager).  The default everywhere is :data:`NULL_TELEMETRY`,
a permanently disabled instance — instrumented code resolves null
instruments once at construction and the hot paths pay a boolean check
or a no-op call, nothing more.

Enabled/disabled is fixed at construction: components capture their
instruments when they are built, so flipping a live system on or off
would silently split its history.  Build a new rig to change modes.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.obs.registry import DEFAULT_BYTE_BUCKETS, MetricsRegistry
from repro.obs.tracer import DEFAULT_MAX_SPANS, SpanTracer
from repro.sim.clock import SimClock


class Telemetry:
    """Metrics registry + span tracer for one simulated machine."""

    def __init__(
        self,
        enabled: bool = True,
        clock: Optional[SimClock] = None,
        max_spans: int = DEFAULT_MAX_SPANS,
        trace_io: bool = False,
    ) -> None:
        self.enabled = enabled
        # Per-I/O spans (one per disk request) are far finer-grained
        # than the component spans; they are opt-in so a plain
        # telemetry rig keeps its established overhead profile.
        self.trace_io = trace_io and enabled
        self.registry = MetricsRegistry(enabled=enabled)
        self.tracer = SpanTracer(
            clock=clock, enabled=enabled, max_spans=max_spans
        )

    # -- construction-time plumbing ------------------------------------

    def bind_clock(self, clock: SimClock) -> None:
        self.tracer.bind_clock(clock)

    # -- instrument resolution (delegates) -----------------------------

    def counter(
        self, name: str, read: Optional[Callable[[], int]] = None, **labels: Any
    ):
        return self.registry.counter(name, read, **labels)

    def gauge(self, name: str, **labels: Any):
        return self.registry.gauge(name, **labels)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BYTE_BUCKETS,
        **labels: Any,
    ):
        return self.registry.histogram(name, buckets=buckets, **labels)

    def span(self, kind: str, **attrs: Any):
        return self.tracer.span(kind, **attrs)

    def begin(self, kind: str, parent=None, **attrs: Any):
        return self.tracer.begin(kind, parent=parent, **attrs)

    def finish(self, span) -> None:
        self.tracer.finish(span)

    def resume(self, span) -> None:
        self.tracer.resume(span)

    def suspend(self, span) -> None:
        self.tracer.suspend(span)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (
            f"Telemetry({state}, {len(self.registry)} series, "
            f"{len(self.tracer.spans)} spans)"
        )


NULL_TELEMETRY = Telemetry(enabled=False)
"""The shared default: permanently disabled, safe to hand to anything."""
