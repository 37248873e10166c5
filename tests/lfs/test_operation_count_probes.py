"""Operation counts of a cleaning pass over a fragmented log.

The amortized-O(1) claims of the clean-segment heap and of the device's
durability tracking, asserted on a whole file system rather than on the
structures alone (``test_segment_usage_indexes.py`` fuzzes those) — and,
below, the inode map's (work in proportion to the entries touched) and
the segment plan's (one pass over the dirty set) and the data path's
and the cleaner's (one pointer-tree walk per run)."""

from itertools import groupby

import pytest

from repro.cache.block_cache import BlockCache
from repro.common.inode import N_DIRECT, BlockKey, BlockKind
from repro.lfs.config import LfsConfig
from repro.lfs.filesystem import LogStructuredFS, make_lfs
from repro.lfs.inode_map import ImapEntry
from repro.lfs.segments import PlannedRun
from repro.lfs.summary import SegmentSummary, SummaryEntry
from repro.lfs.verify import verify_lfs
from repro.units import KIB, MIB
from repro.workloads.cleaning import run_cleaning_rate_test

BS = 4 * KIB
PPB = BS // 8


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
# The plan is built in one pass: one dirty-set read, one object per run
# ----------------------------------------------------------------------


def test_build_plan_reads_the_dirty_set_once(monkeypatch):
    fs = make_lfs(total_bytes=64 * MIB)
    fs.write_file("/small", b"s" * 3000)
    fs.write_file("/indirect", b"i" * (40 * 4 * KIB))  # data + a leaf
    with fs.create("/double") as handle:  # data + a leaf + the root
        handle.pwrite((12 + 512 + 3) * 4 * KIB, b"d" * 100)
    reads, built = [], []
    dirty_blocks = BlockCache.dirty_blocks
    init = PlannedRun.__init__

    def counting_read(self):
        reads.append(1)
        return dirty_blocks(self)

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BlockCache, "dirty_blocks", counting_read)
    monkeypatch.setattr(PlannedRun, "__init__", counting_init)
    plan = fs._build_plan(checkpoint=True)
    assert len(reads) == 1  # it used to be two, each a sort by stamp
    kinds = [run.entries[0].kind.name for run in plan]
    assert len(built) == len(plan)  # one object per run
    # Data: one run per file and pointer container (the root directory,
    # /small, /indirect's direct blocks and its first leaf, /double's
    # block); every other block is a run of one.
    assert [len(run.entries) for run in plan] == [1, 1, 12, 28, 1] + [1] * (
        len(plan) - 5
    )
    # Log order: each layer's addresses feed the next layer's contents.
    assert [kind for kind, _run in groupby(kinds)] == [
        "DATA", "INDIRECT", "DINDIRECT", "INODE", "IMAP", "SEGUSAGE",
    ]
    assert kinds.count("INDIRECT") == 2 and kinds.count("DINDIRECT") == 1


# ----------------------------------------------------------------------
# A run walks the pointer tree once per container, and still pays for
# every lookup the per-block walks would have made
# ----------------------------------------------------------------------


def _count_walk_loads(fs):
    """Pointer-block loads made by the block map: a walk makes one per
    level it descends (leaf, or root then leaf)."""
    loads = []
    load = fs.block_map._load

    def counting(key, addr):
        loads.append(key)
        return load(key, addr)

    fs.block_map._load = counting
    return loads


@pytest.mark.parametrize(
    "first, levels", [(N_DIRECT + 40, 1), (N_DIRECT + PPB + 40, 2)]
)
def test_flush_of_a_run_walks_once(first, levels):
    fs = make_lfs(total_bytes=64 * MIB)
    blocks = 48
    with fs.create("/run") as handle:
        handle.pwrite(first * BS, b"r" * (blocks * BS))
    loads = _count_walk_loads(fs)
    lookups = fs.cache.stats.lookups
    fs.sync()
    assert len(loads) == levels  # the first block's walk
    # One lookup per level per block, as block by block; a leaf under the
    # root also costs the root lookup that stores the leaf's address.
    assert fs.cache.stats.lookups - lookups == levels * blocks + (levels - 1)


def test_pread_of_uncached_blocks_walks_once():
    fs = make_lfs(total_bytes=64 * MIB)
    with fs.create("/run") as handle:
        handle.pwrite(N_DIRECT * BS, b"p" * (40 * BS))
    with fs.create("/deep") as handle:
        handle.pwrite((N_DIRECT + PPB) * BS, b"d" * (40 * BS))
    fs.flush_caches()
    fs.stat("/run")  # directory and inode back in memory
    loads = _count_walk_loads(fs)
    lookups = fs.cache.stats.lookups
    with fs.open("/run") as handle:
        assert handle.pread((N_DIRECT + 8) * BS, 16 * BS) == b"p" * (16 * BS)
    leaf = BlockKey(fs.stat("/run").inum, BlockKind.INDIRECT, 0)
    assert loads == [leaf]
    # Per block: the leaf lookup its own walk would have made (the first
    # a miss that reads the leaf), and the lookup that assembles it.
    assert fs.cache.stats.lookups - lookups == 16 + 16

    # The next demand continues the stream, so it is read ahead, and the
    # window is sized from the container that demand's walk reached.
    inum = fs.stat("/deep").inum
    deep = [
        BlockKey(inum, BlockKind.DINDIRECT, 0),
        BlockKey(inum, BlockKind.INDIRECT, 1),
    ]
    for path, first, fill, walk in (
        ("/run", N_DIRECT + 8, b"p", [leaf]),
        ("/deep", N_DIRECT + PPB, b"d", deep),
    ):
        with fs.open(path) as handle:
            handle.pread(first * BS, 16 * BS)  # the pointer blocks cached
            del loads[:]
            lookups = fs.cache.stats.lookups
            prefetched = fs.readahead.stats.blocks_prefetched
            assert handle.pread((first + 16) * BS, 16 * BS) == fill * (16 * BS)
        assert fs.readahead.stats.blocks_prefetched > prefetched
        assert loads == walk  # each level loaded once
        # Per block a lookup per level and one to assemble it; sizing the
        # window looks each level up once more.
        assert fs.cache.stats.lookups - lookups == len(walk) * (16 + 1) + 16


# ----------------------------------------------------------------------
# The cleaner relocates by run: one walk of a leaf for all its blocks
# ----------------------------------------------------------------------


def test_relocating_a_run_under_a_leaf_walks_it_once():
    fs = make_lfs(total_bytes=64 * MIB)
    blocks = 40
    with fs.create("/run") as handle:
        handle.pwrite((N_DIRECT + 5) * BS, b"c" * (blocks * BS))
    fs.sync()
    inum = fs.stat("/run").inum
    seg = fs.layout.segment_of_block(
        fs.block_map.get(fs._get_inode(inum), N_DIRECT + 5)
    )
    fs.write_file("/filler", b"f" * fs.config.segment_size)  # seg fills up
    fs.flush_caches()
    fs._get_inode(inum)  # back in memory, so only the leaf is walked
    loads = _count_walk_loads(fs)
    lookups = fs.cache.stats.lookups
    fs.cleaner._relocate_live_blocks(seg)
    assert [key for key in loads if key.inum == inum] == [
        BlockKey(inum, BlockKind.INDIRECT, 0)
    ]
    assert fs.cleaner.stats.live_blocks_copied >= blocks
    # A leaf lookup per block, as block by block.
    assert fs.cache.stats.lookups - lookups >= blocks


def test_decoding_a_summary_builds_no_block_kind(monkeypatch):
    entries = [
        SummaryEntry(kind, 7, index, 2, (7, 8) if kind is BlockKind.INODE else ())
        for index in range(20)
        for kind in BlockKind
    ]
    packed = SegmentSummary(seq=3, timestamp=1.5, entries=entries).pack(BS)
    calls = []
    meta = type(BlockKind)
    original = meta.__call__

    def counting(cls, *args, **kwargs):
        if cls is BlockKind:
            calls.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(meta, "__call__", counting)
    assert SegmentSummary.unpack(packed, BS).entries == entries
    assert calls == []  # it used to be one per entry
