"""Named crash points: where a crash campaign may power-fail the stack.

The stack calls :func:`crashpoint` at each point in :data:`CRASHPOINTS`
(one call site each, pinned by tests/sim; FAULT003 lints the names).  The
call does nothing unless a hook is :func:`armed`, which sees every point
passed and may raise there.  Imports nothing from :mod:`repro`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Optional

CRASHPOINTS = {
    "cleaner.relocate": "before a victim's live blocks move (at: segment)",
    "fsync.begin": "fsync_many entered, before its flush",
    "fsync.durable": "fsync_many's batch flushed and drained, not yet acked",
    "throttle.begin": "a throttled writer starts paying for a cleaning pass",
    "throttle.paid": "the paid pass ended, before the writer retries",
    "disk.write": "before a disk write is issued (at: its sector)",
}
"""Every crash point, by name, with where it sits."""

Hook = Callable[[str, object], None]

_hook: Optional[Hook] = None


def crashpoint(name: str, at: object = None) -> None:
    """Pass point ``name`` (and what it is ``at``) to the armed hook."""
    if _hook is not None:
        _hook(name, at)


@contextmanager
def armed(hook: Hook) -> Iterator[None]:
    """Arm ``hook`` for the body; it is cleared however the body ends."""
    global _hook
    _hook = hook
    try:
        yield
    finally:
        _hook = None
