"""Group commit: one partial-segment flush per commit window.

§4.3.5's sync request is the small-write problem in miniature: each
``fsync`` forces a partial-segment write, and N clients fsyncing
independently would pay N flushes for what is logically one log append.
The committer holds the first fsync of a window for :data:`COMMIT_WINDOW`
simulated seconds; every fsync that arrives meanwhile joins the batch,
and the window closes with a single :meth:`~repro.lfs.filesystem.
LogStructuredFS.fsync_many` — one flush, one drain, N completions.

The window's close and every ``done``/``fail`` completion are events on
the clock's queue (``call_at``): commit work never preempts the request
that happened to be running when the window came due, and completions
run after the events already queued for the flush's instant.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from repro.errors import ReadOnlyFSError
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.obs.context import NULL_TRACE_CONTEXT, StallProbe
from repro.service.stats import ServiceStats
from repro.vfs.interface import FileHandle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lfs.filesystem import LogStructuredFS

COMMIT_WINDOW = 0.01
"""Seconds a group-commit window stays open collecting fsyncs."""

BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
"""Histogram buckets for fsyncs-per-flush (implicit +inf appended)."""


class GroupCommitter:
    """Coalesces concurrent fsync requests into one flush."""

    def __init__(
        self,
        fs: "LogStructuredFS",
        stats: ServiceStats,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.fs = fs
        self.stats = stats
        self._waiters: List[
            Tuple[FileHandle, Callable[[], None], Callable[[], None], Any]
        ] = []
        self._window_open = False
        # Durability-barrier hook: called after every *successful*
        # fsync_many (flush + drain), i.e. at the instant everything
        # written so far became durable.  The chaos campaign's ModelFS
        # raises its durable floors here.
        self.on_durable: Optional[Callable[[], None]] = None
        self.telemetry = telemetry or NULL_TELEMETRY
        self._probe = StallProbe(fs)
        obs = self.telemetry
        batches = stats.commit_batches
        obs.counter("service.commits", batches.__len__)
        obs.counter("service.fsyncs_committed", partial(sum, batches))
        self._h_batch = obs.histogram(
            "service.commit_batch_size", buckets=BATCH_BUCKETS
        )

    def request_commit(
        self,
        handle: FileHandle,
        done: Callable[[], None],
        fail: Callable[[], None],
        ctx: Any = NULL_TRACE_CONTEXT,
    ) -> None:
        """Join the current commit window (opening one if needed).

        ``done`` runs — as an event on the clock — once the
        flush that covers ``handle`` is durable.  ``fail`` runs instead
        when the flush is refused because the file system degraded to
        read-only: nothing became durable, so the waiter is not acked.
        ``ctx`` is the request's trace context: its commit wait ends
        when the flush starts, and the shared flush time is attributed
        to it.
        """
        self._waiters.append((handle, done, fail, ctx))
        if not self._window_open:
            self._window_open = True
            clock = self.fs.clock
            clock.call_at(clock.now() + COMMIT_WINDOW, self._commit)

    def _commit(self) -> None:
        batch = self._waiters
        self._waiters = []
        self._window_open = False
        if not batch:
            return
        # Every waiter's commit wait ends here, and every waiter is
        # charged the *full* shared flush — each request's wall clock
        # genuinely spans it — with one counter sample split applied to
        # all of them.
        traced = [ctx for _h, _d, _f, ctx in batch if ctx]
        for ctx in traced:
            ctx.end_wait()
        before = self._probe.sample() if traced else None
        flush_start = self.fs.clock.now()
        refused = False
        with self.telemetry.span(
            "service.group_commit", batch=len(batch)
        ) as span:
            for ctx in traced:
                span.add_link(ctx.root_id, "commits")
            try:
                self.fs.fsync_many(
                    [handle for handle, _done, _fail, _ctx in batch]
                )
            except ReadOnlyFSError:
                # The volume degraded between the window opening and
                # closing: nothing became durable, so the waiters must
                # not be acked.  Fail them politely instead of letting
                # the error escape into the scheduler's run loop.
                refused = True
                span.set_attr("refused_degraded", True)
        if traced:
            elapsed = self.fs.clock.now() - flush_start
            after = self._probe.sample()
            delta = (
                after[0] - before[0],
                after[1] - before[1],
                after[2] - before[2],
            )
            for ctx in traced:
                ctx.charge_split(elapsed, delta)
        clock = self.fs.clock
        if refused:
            for _handle, _done, fail, _ctx in batch:
                clock.call_at(clock.now(), fail)
            return
        if self.on_durable is not None:
            self.on_durable()
        self.stats.note_batch(len(batch))
        self._h_batch.observe(len(batch))
        for _handle, done, _fail, _ctx in batch:
            clock.call_at(clock.now(), done)
