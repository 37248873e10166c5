#!/usr/bin/env python3
"""Quickstart: create an LFS on a simulated WREN IV disk and poke it.

Run with::

    python examples/quickstart.py
"""

from repro import LogStructuredFS, make_lfs
from repro.units import fmt_bytes, fmt_time


def main() -> None:
    # A ~300 MB simulated WREN IV disk (the paper's hardware), fresh LFS.
    fs = make_lfs()
    print(f"formatted: {fs.layout.num_segments} segments of "
          f"{fmt_bytes(fs.config.segment_size)} "
          f"({fmt_bytes(fs.layout.data_capacity_bytes)} usable)")

    # Ordinary UNIX-style usage.
    fs.mkdir("/projects")
    fs.mkdir("/projects/lfs")
    with fs.create("/projects/lfs/notes.txt") as handle:
        handle.write(b"All modifications are written to disk in large, "
                     b"sequential transfers.\n")
    fs.write_file("/projects/lfs/data.bin", bytes(range(256)) * 64)

    print("tree under /projects/lfs:", fs.listdir("/projects/lfs"))
    print("notes.txt:", fs.read_file("/projects/lfs/notes.txt").decode().strip())

    stat = fs.stat("/projects/lfs/data.bin")
    print(f"data.bin: {stat.size} bytes, inode {stat.inum}")

    # Everything so far happened in the file cache: zero synchronous
    # writes.  Push it to the log and checkpoint.
    fs.checkpoint()
    print(f"\nafter checkpoint at t={fmt_time(fs.clock.now())}:")
    print(" ", fs.disk.stats.summary())
    print(f"  log: {fs.segments.stats.partial_segments_written} partial segments, "
          f"{fmt_bytes(fs.segments.stats.log_bytes_written)} written, "
          f"write cost {fs.write_cost():.2f}")

    # Simulate a crash and remount: recovery reads the checkpoint and
    # rolls the log forward.
    fs.write_file("/projects/lfs/late.txt", b"written after the checkpoint")
    fs.sync()
    fs.crash()
    fs.disk.revive()
    recovered = LogStructuredFS.mount(fs.disk, fs.cpu)
    report = recovered.last_recovery
    print(f"\ncrash + remount: recovered in "
          f"{fmt_time(report.recovery_seconds)} simulated "
          f"({report.partials_applied} log partials replayed)")
    print("late.txt survived:",
          recovered.read_file("/projects/lfs/late.txt").decode())
    recovered.unmount()


if __name__ == "__main__":
    main()
