"""Request-scoped trace contexts and latency attribution accounting.

A :class:`TraceContext` travels with one service request from arrival
to completion.  It owns the request's **root span** (kind
``service.request``) and an accumulator of disjoint latency components:

================== ====================================================
``queueing``        residual — time waiting to run / event gaps
``admission_retry`` REJECT→resubmit backoff waits
``cleaner_throttle`` cleaning the request stalled on (throttle passes
                    *and* cleaning that fired inside its execution)
``commit_wait``     fsync hold time until the group flush starts
``migration_redirect`` parked while the client's shard was migrating
``disk``            synchronous disk stalls during execution
``fs``              file-system code time during execution
================== ====================================================

The contract the analyzer relies on: **components sum to total
latency** (queueing is computed as the exact residual at completion).
Execution time is split fs/disk/cleaner by *monotone counter deltas* —
:class:`StallProbe` samples ``SimDisk.sync_stall_seconds`` and the
cleaner's ``busy_seconds``/``disk_stall_seconds`` around each active
interval, so the split is exact on the simulated clock, not estimated.

While a context is *active* (its request is executing), its root span
is resumed onto the tracer's nesting stack, so spans opened by the
layers below — ``cleaner.clean``, ``service.group_commit``, per-I/O
``disk.*`` spans — parent under the request without those layers
knowing anything about requests.

Everything degrades to :data:`NULL_TRACE_CONTEXT` when tracing is
disabled: a shared singleton whose methods are no-ops, so the service
hot path pays a handful of no-op calls and nothing else.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.obs.tracer import Span, SpanTracer

COMPONENTS = (
    "queueing",
    "admission_retry",
    "cleaner_throttle",
    "commit_wait",
    "migration_redirect",
    "disk",
    "fs",
)
"""Attribution component names, in report order.

``migration_redirect`` is the cluster layer's contribution: time a
request spent parked while its client's working set was being migrated
between shards (see :mod:`repro.cluster.migrate`).  It stays zero in
single-volume service runs."""


class StallProbe:
    """Samples the monotone stall counters an execution split needs."""

    __slots__ = ("_disk", "_cleaner")

    def __init__(self, fs: Any) -> None:
        self._disk = getattr(fs, "disk", None)
        self._cleaner = getattr(fs, "cleaner", None)

    def sample(self) -> Tuple[float, float, float]:
        """(disk sync stall, cleaner busy, cleaner disk stall) so far."""
        disk_stall = (
            self._disk.sync_stall_seconds if self._disk is not None else 0.0
        )
        if self._cleaner is not None:
            stats = self._cleaner.stats
            return (disk_stall, stats.busy_seconds, stats.disk_stall_seconds)
        return (disk_stall, 0.0, 0.0)


class _NullTraceContext:
    """Shared no-op context for untraced runs (zero per-request cost)."""

    __slots__ = ()
    root = None
    root_id = None

    def activate(self) -> None:
        pass

    def deactivate(self) -> None:
        pass

    def begin_wait(self, kind: str, component: str) -> None:
        pass

    def end_wait(self) -> None:
        pass

    def charge(self, component: str, seconds: float) -> None:
        pass

    def charge_split(
        self, elapsed: float, delta: Tuple[float, float, float]
    ) -> None:
        pass

    def finish(self, total: float) -> None:
        pass

    def __bool__(self) -> bool:
        return False


NULL_TRACE_CONTEXT = _NullTraceContext()


class TraceContext:
    """One request's root span plus its latency-component ledger."""

    __slots__ = (
        "tracer",
        "root",
        "components",
        "_probe",
        "_active_start",
        "_active_sample",
        "_wait_span",
        "_wait_component",
        "_wait_start",
    )

    def __init__(
        self, tracer: SpanTracer, root: Span, probe: StallProbe
    ) -> None:
        self.tracer = tracer
        self.root = root
        self.components: Dict[str, float] = {
            name: 0.0 for name in COMPONENTS
        }
        self._probe = probe
        self._active_start: Optional[float] = None
        self._active_sample: Optional[Tuple[float, float, float]] = None
        self._wait_span: Optional[Span] = None
        self._wait_component = ""
        self._wait_start = 0.0

    @property
    def root_id(self) -> int:
        return self.root.span_id

    # -- active execution intervals -------------------------------------

    def activate(self) -> None:
        """Mark the request as executing: resume its root span and
        snapshot the stall counters the eventual split will diff."""
        self.tracer.resume(self.root)
        self._active_start = self.tracer._now()
        self._active_sample = self._probe.sample()

    def deactivate(self) -> None:
        """End the active interval and charge its fs/disk/cleaner split."""
        if self._active_start is None:
            return
        elapsed = self.tracer._now() - self._active_start
        sample = self._active_sample
        self._active_start = None
        self._active_sample = None
        self.tracer.suspend(self.root)
        after = self._probe.sample()
        self.charge_split(
            elapsed,
            (
                after[0] - sample[0],
                after[1] - sample[1],
                after[2] - sample[2],
            ),
        )

    def charge_split(
        self, elapsed: float, delta: Tuple[float, float, float]
    ) -> None:
        """Split ``elapsed`` execution seconds into fs/disk/cleaner.

        ``delta`` is (disk sync stall, cleaner busy, cleaner disk
        stall) over the interval.  Cleaning that fires *inside* an
        execution interval (emergency passes during a flush) is wholly
        the cleaner's — wall time including its I/O — matching how
        admission throttle stalls are charged; ``disk`` gets the
        remaining (non-cleaner) synchronous stalls and ``fs`` the rest.
        Both subtractions are non-negative by construction: the
        cleaner's disk stall is part of both the total disk stall and
        the cleaner's busy time.
        """
        disk_stall, cleaner_busy, cleaner_disk = delta
        disk_time = max(0.0, disk_stall - cleaner_disk)
        fs_time = max(0.0, elapsed - disk_time - cleaner_busy)
        self.components["disk"] += disk_time
        self.components["cleaner_throttle"] += cleaner_busy
        self.components["fs"] += fs_time

    # -- labeled waits ----------------------------------------------------

    def begin_wait(self, kind: str, component: str) -> None:
        """Open a labeled wait (backoff, commit window) under the root."""
        self._wait_span = self.tracer.begin(kind, parent=self.root)
        self._wait_component = component
        self._wait_start = self.tracer._now()

    def end_wait(self) -> None:
        if self._wait_span is None:
            return
        self.tracer.finish(self._wait_span)
        self.components[self._wait_component] += (
            self.tracer._now() - self._wait_start
        )
        self._wait_span = None

    def charge(self, component: str, seconds: float) -> None:
        self.components[component] += seconds

    # -- completion ---------------------------------------------------------

    def finish(self, total: float) -> None:
        """Close the root span with the final attribution attrs.

        ``queueing`` is the exact residual, so the exported components
        sum to ``lat.total`` by construction (within float rounding).
        """
        attributed = 0.0
        for name, seconds in self.components.items():
            if name != "queueing":
                attributed += seconds
        self.components["queueing"] = total - attributed
        for name in COMPONENTS:
            self.root.attrs[f"lat.{name}"] = self.components[name]
        self.root.attrs["lat.total"] = total
        self.tracer.finish(self.root)


class RequestTracer:
    """Per-run factory: builds a :class:`TraceContext` per request."""

    def __init__(self, telemetry: Any, fs: Any) -> None:
        self.telemetry = telemetry
        self.enabled = bool(telemetry.enabled and telemetry.tracer.enabled)
        self.probe = StallProbe(fs) if self.enabled else None

    def context(self, client_id: int, kind: str):
        if not self.enabled:
            return NULL_TRACE_CONTEXT
        tracer = self.telemetry.tracer
        root = tracer.begin(
            "service.request",
            parent=tracer.current_span(),
            client=client_id,
        )
        root.attrs["kind"] = kind
        return TraceContext(tracer, root, self.probe)


__all__ = [
    "COMPONENTS",
    "StallProbe",
    "TraceContext",
    "RequestTracer",
    "NULL_TRACE_CONTEXT",
]
