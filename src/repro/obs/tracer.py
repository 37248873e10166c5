"""The span tracer: nested simulated-time spans with attributes.

A span covers one logical operation (``fs.write``, ``cleaner.clean``,
``checkpoint.write`` ...) measured in **simulated** seconds read from
the shared :class:`~repro.sim.clock.SimClock` — the same timeline every
paper figure is drawn on.  Spans nest naturally: a ``cleaner.clean``
span started while a ``cache.flush`` span is open records that flush as
its parent, so an exported trace reconstructs the causal tree
(write-back → cleaning → checkpoint) without any cross-referencing by
the instrumented code.

Retention is bounded: past ``max_spans`` finished spans, new spans are
still timed (per-kind counters keep counting) but their event records
are dropped and counted in ``dropped_spans`` — long cleaning workloads
cannot grow memory without bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.sim.clock import SimClock

DEFAULT_MAX_SPANS = 100_000


@dataclass
class Span:
    """One finished (or in-flight) span."""

    span_id: int
    parent_id: Optional[int]
    kind: str
    start: float
    end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    links: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "id": self.span_id,
            "parent": self.parent_id,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }
        if self.links:
            record["links"] = [dict(link) for link in self.links]
        return record


class _ActiveSpan:
    """Context manager for one span; returned by :meth:`SpanTracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "SpanTracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def set_attr(self, key: str, value: Any) -> None:
        self._span.attrs[key] = value

    def add_link(self, target_id: int, relation: str) -> None:
        self._span.links.append({"target": target_id, "relation": relation})

    def __enter__(self) -> "_ActiveSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._finish(self._span)


class _NullSpan:
    """Shared no-op span for disabled tracers."""

    __slots__ = ()

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def add_link(self, target_id: int, relation: str) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


NULL_SPAN = _NullSpan()


class SpanTracer:
    """Records nested spans against a simulated clock."""

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        enabled: bool = True,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        self.clock = clock
        self.enabled = enabled
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped_spans = 0
        self.kind_counts: Dict[str, int] = {}
        self.kind_seconds: Dict[str, float] = {}
        self._stack: List[Span] = []
        self._next_id = 1

    def bind_clock(self, clock: SimClock) -> None:
        """Adopt the simulation clock.

        Re-binding is allowed only while no span is open: one telemetry
        object can follow a sequence of simulated machines (each with
        its own clock), but swapping timelines mid-span would corrupt
        durations.
        """
        if self.clock is clock or self._stack:
            return
        self.clock = clock

    def _now(self) -> float:
        return self.clock.now() if self.clock is not None else 0.0

    def span(self, kind: str, **attrs: Any):
        """Open a span; use as a context manager.

        >>> with tracer.span("fs.write", inum=7) as span:
        ...     do_work()
        ...     span.set_attr("bytes", 4096)
        """
        if not self.enabled:
            return NULL_SPAN
        span = Span(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            kind=kind,
            start=self._now(),
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._stack.append(span)
        return _ActiveSpan(self, span)

    def begin(self, kind: str, parent: Optional[Span] = None, **attrs: Any):
        """Open a span with an *explicit* parent, outside the stack.

        This is the request-tracing entry point: a request's root span
        outlives any one call frame (it is suspended while the request
        waits in a queue or for a commit window), so it cannot live on
        the nesting stack.  The returned :class:`Span` must eventually
        be passed to :meth:`finish`.  Returns ``None`` when disabled —
        callers hold the result and pass it back, so the null case
        costs one ``is None`` check.
        """
        if not self.enabled:
            return None
        span = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            kind=kind,
            start=self._now(),
            attrs=dict(attrs),
        )
        self._next_id += 1
        return span

    def finish(self, span: Optional[Span]) -> None:
        """Close a span opened with :meth:`begin`."""
        if span is None:
            return
        span.end = self._now()
        self._record(span)

    def resume(self, span: Optional[Span]) -> None:
        """Push a begun-but-suspended span onto the nesting stack.

        While resumed, spans opened via :meth:`span` parent under it —
        this is how a request's root span adopts the ``cleaner.clean``
        and ``service.group_commit`` work done on its behalf without
        the fs/cleaner code knowing about requests.  Balance every
        ``resume`` with :meth:`suspend`.
        """
        if span is not None:
            self._stack.append(span)

    def suspend(self, span: Optional[Span]) -> None:
        """Pop a resumed span off the nesting stack (tolerant unwind)."""
        if span is None:
            return
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()

    def add_link(
        self, span: Optional[Span], target_id: int, relation: str
    ) -> None:
        """Attach a causal link from ``span`` to another span by id."""
        if span is not None:
            span.links.append({"target": target_id, "relation": relation})

    def current_span(self) -> Optional[Span]:
        """The innermost open span, if any (for linking, not mutation)."""
        return self._stack[-1] if self._stack else None

    def _record(self, span: Span) -> None:
        self.kind_counts[span.kind] = self.kind_counts.get(span.kind, 0) + 1
        self.kind_seconds[span.kind] = (
            self.kind_seconds.get(span.kind, 0.0) + span.duration
        )
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped_spans += 1

    def _finish(self, span: Span) -> None:
        span.end = self._now()
        # Exceptions can unwind several spans out of order; pop to ours.
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        self._record(span)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------

    def span_kinds(self) -> List[str]:
        return sorted(self.kind_counts)

    def by_kind(self, kind: str) -> List[Span]:
        return [span for span in self.spans if span.kind == kind]

    def clear(self) -> None:
        self.spans.clear()
        self.dropped_spans = 0
        self.kind_counts.clear()
        self.kind_seconds.clear()
        self._stack.clear()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (
            f"SpanTracer({len(self.spans)} spans, "
            f"{self.dropped_spans} dropped, {state})"
        )
