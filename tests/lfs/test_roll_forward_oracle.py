"""Roll-forward's metadata-only reads against a whole-partial scan.

Roll-forward (§4.4, :mod:`repro.lfs.recovery`) replays the IMAP and
SEGUSAGE blocks of each partial segment past the checkpoint, and reads
only those blocks (in the extents ``DiskGeometry.read_extents`` merges
them into) besides the summaries.  The reference kept here is the
replay that came before: it reads every content block of a partial in
one request and applies the same blocks from it.

Both mount copies of one crashed image.  Right after roll-forward the
two must agree on the inode map's block addresses, every segment's
usage entry, the log position and every count of the
``RollForwardReport``; once mounted, on every inode-map entry and every
file's bytes, which must also be what the schedule synced.  The only
thing allowed to differ is time: the two read different extents, so
the replay stamps the segments it re-estimates at other instants.

A read spy checks what roll-forward reads: its summary probes are the
reference's, and every other extent lies inside an applied partial and
starts and ends on one of that partial's IMAP or SEGUSAGE blocks.  A
roll-forward that read data blocks again would fail it.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.common.inode import BlockKind
from repro.disk.device import SectorDevice
from repro.disk.geometry import wren_iv
from repro.disk.sim_disk import SimDisk
from repro.errors import CorruptionError
from repro.lfs import filesystem, recovery
from repro.lfs.config import LfsConfig
from repro.lfs.filesystem import LogStructuredFS
from repro.sim.clock import SimClock
from repro.sim.cpu import CpuModel
from repro.units import KIB, MIB, SECTOR_SIZE

BS = 4 * KIB
SPB = BS // SECTOR_SIZE
GEOMETRY = wren_iv(12 * MIB)
PATHS = ("/a", "/b", "/c", "/d", "/e")
_METADATA = (BlockKind.IMAP, BlockKind.SEGUSAGE)


def config(cache_blocks):
    return LfsConfig(
        segment_size=64 * KIB, cache_bytes=cache_blocks * BS, max_inodes=64
    )


def reference_apply_partial(fs, seg, offset, nsummary, summary, report):
    """Replay one partial from a read of all its content blocks."""
    spb = fs.config.sectors_per_block
    first_content = fs.layout.segment_first_block(seg) + offset + nsummary
    raw = b""
    if summary.nblocks:
        raw = fs.disk.read(
            first_content * spb,
            summary.nblocks * spb,
            label=f"roll-forward seq {summary.seq}",
        )
    for position, entry in enumerate(summary.entries):
        addr = first_content + position
        payload = raw[position * BS : (position + 1) * BS]
        try:
            if entry.kind is BlockKind.IMAP:
                if entry.index < fs.imap.num_blocks:
                    fs.imap.load_block(entry.index, payload)
                    fs.imap.block_addrs[entry.index] = addr
                    fs.imap.mark_block_dirty(entry.index)
                    report.imap_blocks_applied += 1
            elif entry.kind is BlockKind.SEGUSAGE:
                if entry.index < fs.usage.num_blocks:
                    fs.usage.load_block(entry.index, payload)
                    fs.usage.block_addrs[entry.index] = addr
                    report.usage_blocks_applied += 1
        except CorruptionError:
            report.corrupt_entries_skipped += 1
            continue
        report.blocks_recovered += 1
    fs.usage.note_write_hint(seg, summary.nblocks * BS, fs.clock.now())


def mount(image, crash_time, cache_blocks, apply_partial=None):
    """Mount a copy of ``image``; returns the file system, the state
    right after roll-forward, the disk reads roll-forward made and the
    content regions and metadata blocks of the partials it applied."""
    clock = SimClock()
    clock.advance_to(crash_time)
    device = SectorDevice(
        GEOMETRY.num_sectors, initial_data=bytearray(image)
    )
    disk = SimDisk(GEOMETRY, clock, device=device)
    reads, partials = [], []
    after = {}
    read = disk.read
    apply = apply_partial or recovery._apply_partial
    roll_forward = recovery.roll_forward

    def spy_read(sector, count, label="", **kwargs):
        if label.startswith("roll-forward"):
            reads.append((label, sector // SPB, (sector + count) // SPB))
        return read(sector, count, label, **kwargs)

    def spy_apply(fs, seg, offset, nsummary, summary, report):
        first = fs.layout.segment_first_block(seg) + offset + nsummary
        metadata = {
            first + position
            for position, entry in enumerate(summary.entries)
            if entry.kind in _METADATA
        }
        partials.append((first, first + summary.nblocks, metadata))
        return apply(fs, seg, offset, nsummary, summary, report)

    def spy_roll_forward(fs, checkpoint):
        after["start"] = fs.clock.now()
        report = roll_forward(fs, checkpoint)
        usage = fs.usage
        after.update(
            report=report,
            imap_addrs=list(fs.imap.block_addrs),
            usage_addrs=list(usage.block_addrs),
            usage=[
                dataclasses.astuple(usage.info(seg))
                for seg in range(usage.num_segments)
            ],
            position=fs.segments.position,
        )
        return report

    disk.read = spy_read
    with mock.patch.object(recovery, "_apply_partial", spy_apply), \
            mock.patch.object(filesystem, "roll_forward", spy_roll_forward):
        fs = LogStructuredFS.mount(disk, CpuModel(clock), config(cache_blocks))
    return fs, after, reads, partials


def files(fs):
    return {
        name: fs.read_file(f"/{name}") for name in sorted(fs.listdir("/"))
    }


def check_reads(reads, reference_reads, partials):
    """Probes as the reference's; content extents on metadata blocks."""
    probes = [read for read in reads if not read[0].startswith("roll-forward seq")]
    assert probes == [
        read
        for read in reference_reads
        if not read[0].startswith("roll-forward seq")
    ]
    wanted = set()
    for _first, _end, metadata in partials:
        wanted |= metadata
    covered = set()
    for label, start, end in reads:
        if not label.startswith("roll-forward seq"):
            continue
        partial = [
            metadata
            for first, stop, metadata in partials
            if first <= start and end <= stop
        ]
        assert partial, f"{label} read [{start}, {end}) outside its partial"
        assert start in partial[0] and end - 1 in partial[0], (
            f"{label} read [{start}, {end}), which does not start and end "
            "on an IMAP or SEGUSAGE block"
        )
        covered.update(range(start, end))
    assert wanted <= covered, f"metadata blocks {wanted - covered} not read"


def apply(fs, model, number, op, args):
    if op == "write":
        path, first, count = args
        payload = bytes([number % 251 + 1]) * (count * BS)
        handle = fs.open(path) if fs.exists(path) else fs.create(path)
        with handle:
            handle.pwrite(first * BS, payload)
        data = model.setdefault(path, bytearray())
        if len(data) < first * BS:
            data.extend(bytes(first * BS - len(data)))
        data[first * BS : first * BS + len(payload)] = payload
    elif op == "unlink":
        (path,) = args
        if fs.exists(path):
            fs.unlink(path)
            del model[path]
    else:
        getattr(fs, op)()


steps = st.one_of(
    st.tuples(
        st.just("write"),
        st.sampled_from(PATHS),
        st.integers(0, 30),
        st.integers(1, 12),
    ),
    st.tuples(st.just("unlink"), st.sampled_from(PATHS)),
    st.just(("sync",)),
    st.just(("checkpoint",)),
)

# Flushes that spill over segment boundaries, an unlink, a checkpoint in
# the middle of the tail and a rewrite of what came before it.
SPILL = [
    ("write", "/a", 0, 12),
    ("write", "/b", 3, 10),
    ("sync",),
    ("unlink", "/a"),
    ("write", "/c", 0, 5),
    ("checkpoint",),
    ("write", "/b", 0, 12),
    ("sync",),
    ("write", "/d", 20, 9),
    ("sync",),
]


@settings(max_examples=30, deadline=None)
@example(64, SPILL)
@example(8, SPILL)
@given(
    st.sampled_from([8, 64]),
    st.lists(steps, min_size=2, max_size=14),
)
def test_roll_forward_reads_only_what_it_replays(cache_blocks, schedule):
    clock = SimClock()
    disk = SimDisk(GEOMETRY, clock)
    fs = LogStructuredFS.mkfs(disk, CpuModel(clock), config(cache_blocks))
    fs.write_file("/base", b"base")
    fs.checkpoint()
    model = {"/base": bytearray(b"base")}
    for number, (op, *args) in enumerate(schedule):
        apply(fs, model, number, op, args)
    fs.sync()
    fs.crash()
    disk.revive()
    image, crash_time = disk.device.snapshot(), clock.now()

    fs, after, reads, partials = mount(image, crash_time, cache_blocks)
    ref, ref_after, ref_reads, ref_partials = mount(
        image, crash_time, cache_blocks, reference_apply_partial
    )

    report, ref_report = after["report"], ref_after["report"]
    fields = dataclasses.asdict(report)
    ref_fields = dataclasses.asdict(ref_report)
    fields.pop("recovery_seconds")
    ref_fields.pop("recovery_seconds")
    assert fields == ref_fields
    assert partials == ref_partials
    for key in ("imap_addrs", "usage_addrs", "position"):
        assert after[key] == ref_after[key], key
    start = after["start"]
    assert start == ref_after["start"]
    for seg, (info, ref_info) in enumerate(zip(after["usage"], ref_after["usage"])):
        (live, stamp, state), (ref_live, ref_stamp, ref_state) = info, ref_info
        assert (live, state) == (ref_live, ref_state), f"segment {seg}"
        # A stamp the replay set is the clock when it was set.
        assert (stamp >= start) == (ref_stamp >= start), f"segment {seg}"
        if stamp < start:
            assert stamp == ref_stamp, f"segment {seg}"
    check_reads(reads, ref_reads, partials)

    inums = range(1, fs.config.max_inodes)
    assert [fs.imap.get(inum) for inum in inums] == [
        ref.imap.get(inum) for inum in inums
    ]
    recovered = files(fs)
    assert recovered == files(ref)
    assert recovered == {
        path.lstrip("/"): bytes(data) for path, data in model.items()
    }
