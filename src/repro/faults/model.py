"""The one reference model of what a file system should hold.

:class:`ModelFS` mirrors each mutation its caller makes and never reads
the file system meanwhile.  Per path it keeps every whole-mutation
state since the history last restarted (a content digest) and a
durable floor, which :meth:`ModelFS.barrier` raises to the latest
state.  After a crash, :meth:`ModelFS.check` requires each path to
hold one state at or above its floor: roll-forward replays only
complete flushes, and the VFS puts a whole mutation into the cache
before any write-back can run.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro.errors import FileNotFoundError_, IsADirectoryError_

ABSENT = "absent"
"""The state of a path that does not resolve."""

DIRECTORY = "directory"
"""The state of a path that names a directory."""


def _digest(data) -> str:
    return hashlib.sha1(data).hexdigest()


class _History:
    """One path's recorded states, its floor, and its latest content
    (``None`` unless the path is a file)."""

    __slots__ = ("states", "floor", "data")

    def __init__(self) -> None:
        self.states = [ABSENT]
        self.floor = 0
        self.data: Optional[bytearray] = None


class ModelFS:
    """Per-path state histories, durable floors and acks."""

    def __init__(self) -> None:
        self._paths: Dict[str, _History] = {}
        self.acks: List[Tuple[str, int, float, Optional[int]]] = []
        """``(path, state index, time, trace root)`` per acked fsync."""
        self.checks = 0

    def _push(self, path: str, state: str, data=None) -> None:
        history = self._paths.get(path)
        if history is None:
            history = self._paths[path] = _History()
        history.states.append(state)
        history.data = data

    def _file(self, path: str) -> bytearray:
        history = self._paths.get(path)
        if history is None or history.data is None:
            raise FileNotFoundError_(path)
        return history.data

    def create(self, path: str) -> None:
        self._push(path, _digest(b""), bytearray())

    def write(self, path: str, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset``; a gap past the end reads as zeros."""
        content = self._file(path)
        end = offset + len(data)
        if end > len(content):
            content.extend(bytes(end - len(content)))
        content[offset:end] = data
        self._push(path, _digest(content), content)

    def truncate(self, path: str, size: int) -> None:
        content = self._file(path)
        del content[size:]
        content.extend(bytes(size - len(content)))
        self._push(path, _digest(content), content)

    def unlink(self, path: str) -> None:
        self._push(path, ABSENT)

    def mkdir(self, path: str) -> None:
        self._push(path, DIRECTORY)

    def barrier(self) -> None:
        """Everything written so far is durable: no path may ever be
        observed older than its current state again."""
        for history in self._paths.values():
            history.floor = len(history.states) - 1

    def ack(self, path: str, now: float, ctx=None) -> None:
        """Record an acked fsync of ``path`` (with ``ctx``'s trace root)
        for violation messages."""
        index = len(self._paths[path].states) - 1
        self.acks.append((path, index, now, getattr(ctx, "root_id", None)))

    def files(self) -> List[str]:
        """Paths that name a file, sorted."""
        return sorted(
            path for path, history in self._paths.items()
            if history.data is not None
        )

    def dirs(self) -> List[str]:
        """Paths that name a directory, the root first, sorted."""
        return ["/"] + sorted(
            path for path, history in self._paths.items()
            if history.states[-1] == DIRECTORY
        )

    def read_file(self, path: str) -> bytes:
        return bytes(self._file(path))

    def listdir(self, path: str) -> List[str]:
        prefix = path.rstrip("/") + "/"
        return sorted(
            name[len(prefix):] for name, history in self._paths.items()
            if history.states[-1] != ABSENT
            and name.startswith(prefix)
            and "/" not in name[len(prefix):]
        )

    @staticmethod
    def _observe(fs, path: str) -> Tuple[str, Optional[bytes]]:
        """The state of ``path`` on ``fs``, and its content if a file."""
        try:
            data = fs.read_file(path)
        except FileNotFoundError_:
            return ABSENT, None
        except IsADirectoryError_:
            return DIRECTORY, None
        return _digest(data), data

    def check(self, fs, require_latest: bool = False) -> List[str]:
        """One violation string per path ``fs`` does not hold as the
        contract allows; empty means the contract held.

        After a crash (``require_latest=False``) a path must hold one
        recorded state at or above its floor; with ``require_latest``
        it must hold the latest one.
        """
        violations: List[str] = []
        for path in sorted(self._paths):
            history = self._paths[path]
            self.checks += 1
            observed, data = self._observe(fs, path)
            last = len(history.states) - 1
            first = last if require_latest else history.floor
            if observed in history.states[first:]:
                continue
            acks = [ack for ack in self.acks if ack[0] == path]
            wanted = f"states [{first}..{last}]" if first < last else f"state {last}"
            said = ""
            if acks:
                _path, index, when, root = acks[-1]
                said = (
                    f", last ack state {index} at t={when:.6f} "
                    f"trace_root={root}"
                )
            violations.append(
                f"{path}: observed {observed[:12]}/{len(data or b'')}B "
                f"matches none of {wanted} ({len(history.states)} recorded, "
                f"floor {history.floor}, {len(acks)} acks{said})"
            )
        return violations

    def reconcile(self, fs) -> None:
        """Restart every history at what ``fs`` holds after a remount.

        The recovered state was just proven admissible by :meth:`check`
        and the mount made it durable, so the floor is zero.
        """
        for path, history in self._paths.items():
            observed, data = self._observe(fs, path)
            history.states = [observed]
            history.floor = 0
            history.data = None if data is None else bytearray(data)
