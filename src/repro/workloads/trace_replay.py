"""Replay file system operation traces.

The paper's conclusion laments that LFS "has not been subjected to a
'real' workload" — the standard way to do that, then and now, is to
replay captured operation traces (compare the Ousterhout et al. BSD
trace study the paper cites).  This module defines a small text trace
format and a replayer that runs a trace against any
:class:`~repro.vfs.interface.StorageManager`.

Trace format: one operation per line, ``#`` comments allowed::

    mkdir /src
    create /src/main.c 2048        # create with 2048 bytes of data
    write /src/main.c 512 128      # pwrite 128 bytes at offset 512
    read /src/main.c               # read the whole file
    read /src/main.c 0 4096        # pread 4096 bytes at offset 0
    truncate /src/main.c 100
    rename /src/main.c /src/old.c
    unlink /src/old.c
    rmdir /src
    sync

Payload bytes are deterministic (derived from the path and offset), so
replays are reproducible.  Reads are counted, not checked: the replayer
keeps no model of what the files should hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.errors import InvalidArgumentError
from repro.vfs.interface import StorageManager


@dataclass(frozen=True)
class TraceOp:
    """One parsed trace operation."""

    op: str
    path: str = ""
    path2: str = ""
    offset: int = 0
    length: int = 0


@dataclass
class ReplayResult:
    operations: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    elapsed_seconds: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)

    def ops_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.operations / self.elapsed_seconds


_VALID_OPS = {
    "mkdir",
    "rmdir",
    "create",
    "unlink",
    "write",
    "read",
    "truncate",
    "rename",
    "sync",
}


def parse_trace(lines: Iterable[str]) -> List[TraceOp]:
    """Parse trace text into operations, validating as we go."""
    ops: List[TraceOp] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        op = parts[0].lower()
        if op not in _VALID_OPS:
            raise InvalidArgumentError(
                f"trace line {lineno}: unknown operation {op!r}"
            )
        try:
            if op == "sync":
                ops.append(TraceOp(op="sync"))
            elif op == "rename":
                ops.append(TraceOp(op=op, path=parts[1], path2=parts[2]))
            elif op == "create":
                length = int(parts[2]) if len(parts) > 2 else 0
                ops.append(TraceOp(op=op, path=parts[1], length=length))
            elif op == "write":
                ops.append(
                    TraceOp(
                        op=op,
                        path=parts[1],
                        offset=int(parts[2]),
                        length=int(parts[3]),
                    )
                )
            elif op == "read":
                offset = int(parts[2]) if len(parts) > 2 else 0
                length = int(parts[3]) if len(parts) > 3 else -1
                ops.append(
                    TraceOp(op=op, path=parts[1], offset=offset, length=length)
                )
            elif op == "truncate":
                ops.append(TraceOp(op=op, path=parts[1], length=int(parts[2])))
            else:  # mkdir, rmdir, unlink
                ops.append(TraceOp(op=op, path=parts[1]))
        except (IndexError, ValueError) as exc:
            raise InvalidArgumentError(
                f"trace line {lineno}: malformed {op!r}: {line!r}"
            ) from exc
    return ops


def _payload(path: str, offset: int, length: int) -> bytes:
    stamp = f"{path}@{offset}:".encode()
    reps = length // len(stamp) + 1
    return (stamp * reps)[:length]


def replay(
    fs: StorageManager, trace: Iterable[TraceOp], clock=None
) -> ReplayResult:
    """Run a parsed trace against a storage manager."""
    clock = clock or fs.clock  # type: ignore[attr-defined]
    result = ReplayResult()
    start = clock.now()
    for op in trace:
        result.operations += 1
        result.counts[op.op] = result.counts.get(op.op, 0) + 1
        if op.op == "mkdir":
            fs.mkdir(op.path)
        elif op.op == "rmdir":
            fs.rmdir(op.path)
        elif op.op == "create":
            with fs.create(op.path) as handle:
                if op.length:
                    handle.write(_payload(op.path, 0, op.length))
                    result.bytes_written += op.length
        elif op.op == "unlink":
            fs.unlink(op.path)
        elif op.op == "write":
            with fs.open(op.path) as handle:
                handle.pwrite(op.offset, _payload(op.path, op.offset, op.length))
            result.bytes_written += op.length
        elif op.op == "read":
            with fs.open(op.path) as handle:
                if op.length < 0:
                    data = handle.read()
                else:
                    data = handle.pread(op.offset, op.length)
            result.bytes_read += len(data)
        elif op.op == "truncate":
            with fs.open(op.path) as handle:
                handle.truncate(op.length)
        elif op.op == "rename":
            fs.rename(op.path, op.path2)
        elif op.op == "sync":
            fs.sync()
    result.elapsed_seconds = clock.now() - start
    return result


def replay_text(fs: StorageManager, text: str) -> ReplayResult:
    """Parse and replay a trace given as a single string."""
    return replay(fs, parse_trace(text.splitlines()))
