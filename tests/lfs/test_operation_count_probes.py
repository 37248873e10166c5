"""Operation counts of a cleaning pass over a fragmented log.

The amortized-O(1) claims of the clean-segment heap and of the device's
durability tracking, asserted on a whole file system rather than on the
structures alone (``test_segment_usage_indexes.py`` fuzzes those) — and,
below, the inode map's (work in proportion to the entries touched) and
the segment plan's (one pass over the dirty set)."""

from itertools import groupby

from repro.cache.block_cache import BlockCache
from repro.lfs.config import LfsConfig
from repro.lfs.filesystem import LogStructuredFS, make_lfs
from repro.lfs.inode_map import ImapEntry
from repro.lfs.segments import PlannedBlock
from repro.lfs.verify import verify_lfs
from repro.units import KIB, MIB
from repro.workloads.cleaning import run_cleaning_rate_test


def test_cleaning_pass_operation_counts():
    fs = make_lfs(total_bytes=16 * MIB, config=LfsConfig(segment_size=64 * KIB))
    # Figure 5's workload: segments left a quarter live, then cleaned.
    cleaned = run_cleaning_rate_test(fs, 0.25, fill_segments=24).segments_cleaned
    usage, device = fs.usage, fs.disk.device
    assert cleaned > 0
    usage.verify_indexes()

    # Each clean-heap entry is pushed once per to-CLEAN transition and
    # popped at most once: heap traffic is bounded by segment state
    # transitions, not by min_clean() calls times segments.
    assert (
        usage.heap_pushes
        == usage.num_segments + fs.cleaner.stats.segments_cleaned
    )
    assert usage.heap_pops <= usage.heap_pushes
    assert usage.min_clean_calls * usage.num_segments > 2 * usage.heap_pushes

    # Each durability undo record pays at most one drain step:
    # mark_durable work is bounded by records created, not by calls
    # times pending records.
    assert device.mark_durable_calls > 0
    assert 0 < device.durability_scan_steps <= device.undo_records_created

    # The cleaner copied live data, so the log grew by more than the
    # user wrote.
    wamp = fs.wamp_report()
    assert wamp["cleaner_bytes"] > 0
    assert wamp["write_amplification"] > 1


# ----------------------------------------------------------------------
# The inode map costs what is touched in it: mount, flush and verify
# ----------------------------------------------------------------------


def _crashed_round(files=300):
    """A volume whose log tail holds ``files`` creates, every fourth
    fsynced — each fsync logs the dirty inode-map blocks again."""
    fs = make_lfs(total_bytes=64 * MIB)
    fs.mkdir("/r")
    fs.checkpoint()
    for index in range(files):
        handle = fs.create(f"/r/f{index}")
        handle.write(bytes([index % 251]) * 3000)
        if index % 4 == 3:
            handle.fsync()
        handle.close()
    fs.sync()
    fs.crash()
    fs.disk.revive()
    return fs


def _blocks_decoded(imap):
    return sum(
        block is not None and block.entries is not None
        for block in imap._blocks
    )


def test_roll_forward_decodes_only_the_imap_blocks_touched_afterwards():
    crashed = _crashed_round()
    fs = LogStructuredFS.mount(crashed.disk, crashed.cpu)
    imap, applied = fs.imap, fs.last_recovery.imap_blocks_applied
    per_block = imap.entries_per_block
    # Replay handed over every logged imap block (each fsync wrote the
    # dirty ones again) but only the last version of a block is ever
    # decoded, and only once something asks for an entry in it.
    assert applied >= 75
    assert imap.entries_decoded <= per_block * _blocks_decoded(imap)
    # Two blocks hold the 302 inodes; mount's closing checkpoint packed them.
    assert _blocks_decoded(imap) == 2
    for index in range(300):
        assert len(fs.read_file(f"/r/f{index}")) == 3000
    touched = _blocks_decoded(imap)
    assert imap.entries_decoded <= per_block * touched == per_block * 2
    assert imap.entries_decoded < per_block * applied  # what it used to cost
    assert imap.demand_loads == 0  # replay supplied every block: no disk read


def test_flush_packs_the_entries_modified_since_the_previous_flush():
    fs = make_lfs(total_bytes=64 * MIB)
    imap = fs.imap
    # A block's first pack is a full one: mkfs flushed block 0.
    assert imap.entries_packed == imap.entries_per_block
    for batch in (1, 5, 20):
        before = imap.entries_packed
        for index in range(batch):
            fs.write_file(f"/b{batch}-{index}", b"x" * 3000)
        fs.sync()
        # The new files and the root directory's inode; not 170 a flush.
        assert 0 < imap.entries_packed - before <= batch + 1
    before = imap.entries_packed
    fs.imap.mark_block_dirty(0)  # what the cleaner does to relocate a block
    fs.sync()
    assert imap.entries_packed == before  # the image is shipped as it is
    # The first touch of a second block costs that one block in full.
    far = imap.entries_per_block + 3
    imap.force_allocate(far, 0.0)
    imap.free(far)
    fs.sync()
    assert imap.entries_packed - before == imap.entries_per_block


def test_verify_builds_nothing_for_free_inodes(monkeypatch):
    fs = make_lfs(total_bytes=64 * MIB)
    assert fs.config.max_inodes == 32768
    for index in range(10):
        fs.write_file(f"/f{index}", b"v" * 5000)
    fs.unmount()
    built = []
    init = ImapEntry.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ImapEntry, "__init__", counting)
    report = verify_lfs(fs.disk.device)
    assert report.consistent and report.inodes_checked == 11
    assert len(built) < 100  # it used to be one per inode: 32,768


# ----------------------------------------------------------------------
# The plan is built in one pass: one dirty-set read, one object per block
# ----------------------------------------------------------------------


def test_build_plan_reads_the_dirty_set_once(monkeypatch):
    fs = make_lfs(total_bytes=64 * MIB)
    fs.write_file("/small", b"s" * 3000)
    fs.write_file("/indirect", b"i" * (40 * 4 * KIB))  # data + a leaf
    with fs.create("/double") as handle:  # data + a leaf + the root
        handle.pwrite((12 + 512 + 3) * 4 * KIB, b"d" * 100)
    reads, built = [], []
    dirty_blocks = BlockCache.dirty_blocks
    init = PlannedBlock.__init__

    def counting_read(self):
        reads.append(1)
        return dirty_blocks(self)

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BlockCache, "dirty_blocks", counting_read)
    monkeypatch.setattr(PlannedBlock, "__init__", counting_init)
    plan = fs._build_plan(checkpoint=True)
    assert len(reads) == 1  # it used to be two, each a sort by stamp
    kinds = [planned.entry.kind.name for planned in plan]
    assert len(built) == len(plan)  # one object per summary entry
    # Log order: each layer's addresses feed the next layer's contents.
    assert [kind for kind, _run in groupby(kinds)] == [
        "DATA", "INDIRECT", "DINDIRECT", "INODE", "IMAP", "SEGUSAGE",
    ]
    assert kinds.count("INDIRECT") == 2 and kinds.count("DINDIRECT") == 1
