"""Property tests: every on-disk codec must roundtrip losslessly."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.directory import DirectoryBlock, entry_size
from repro.common.inode import FileType, Inode, N_DIRECT
from repro.lfs.checkpoint import CheckpointData
from repro.lfs.inode_map import ImapEntry
from repro.lfs.segments import LogPosition
from repro.lfs.segment_usage import SegmentInfo, SegmentState
from repro.lfs.summary import SegmentSummary, SummaryEntry
from repro.common.inode import BlockKind

BS = 4096

addr = st.integers(min_value=0, max_value=2**48)
inum = st.integers(min_value=1, max_value=2**31)
small_float = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)


@st.composite
def inodes(draw):
    return Inode(
        inum=draw(inum),
        ftype=draw(st.sampled_from(list(FileType))),
        nlink=draw(st.integers(0, 65535)),
        size=draw(st.integers(0, 2**50)),
        mtime=draw(small_float),
        ctime=draw(small_float),
        atime=draw(small_float),
        direct=draw(
            st.lists(addr, min_size=N_DIRECT, max_size=N_DIRECT)
        ),
        indirect=draw(addr),
        dindirect=draw(addr),
    )


class TestInodeCodec:
    @given(inodes())
    def test_roundtrip(self, inode):
        assert Inode.unpack(inode.pack()) == inode


class TestImapEntryCodec:
    @given(
        addr,
        st.integers(0, 255),
        st.integers(0, 2**32 - 1),
        small_float,
        st.booleans(),
    )
    def test_roundtrip(self, a, slot, version, atime, allocated):
        entry = ImapEntry(
            inode_addr=a,
            slot=slot,
            version=version,
            atime=atime,
            allocated=allocated,
        )
        assert ImapEntry.unpack(entry.pack()) == entry


class TestSegmentInfoCodec:
    @given(
        st.integers(0, 2**40),
        small_float,
        st.sampled_from(list(SegmentState)),
    )
    def test_roundtrip(self, live, when, state):
        info = SegmentInfo(live_bytes=live, last_write=when, state=state)
        assert SegmentInfo.unpack(info.pack()) == info


@st.composite
def summary_entries(draw):
    kind = draw(st.sampled_from(list(BlockKind)))
    inums = ()
    if kind is BlockKind.INODE:
        inums = tuple(
            draw(st.lists(inum, min_size=1, max_size=25))
        )
    return SummaryEntry(
        kind=kind,
        inum=draw(inum),
        index=draw(st.integers(0, 2**40)),
        version=draw(st.integers(0, 2**32 - 1)),
        inums=inums,
    )


class TestSummaryCodec:
    @settings(max_examples=50)
    @given(
        st.integers(1, 2**48),
        small_float,
        addr,
        st.lists(summary_entries(), max_size=60),
    )
    def test_roundtrip(self, seq, timestamp, next_seg, entries):
        summary = SegmentSummary(
            seq=seq,
            timestamp=timestamp,
            next_segment_block=next_seg,
            entries=entries,
        )
        packed = summary.pack(BS)
        assert len(packed) % BS == 0
        assert SegmentSummary.unpack(packed, BS) == summary


class TestCheckpointCodec:
    @settings(max_examples=50)
    @given(
        small_float,
        st.integers(0, 1000),
        st.integers(0, 255),
        st.integers(0, 1000),
        st.integers(1, 2**48),
        st.lists(addr, max_size=200),
        st.lists(addr, max_size=20),
    )
    def test_roundtrip(
        self, timestamp, active, offset, nxt, seq, imap_addrs, usage_addrs
    ):
        data = CheckpointData(
            timestamp=timestamp,
            position=LogPosition(
                active_segment=active,
                active_offset=offset,
                next_segment=nxt,
                sequence=seq,
            ),
            imap_addrs=imap_addrs,
            usage_addrs=usage_addrs,
        )
        packed = data.pack(32 * 1024)
        assert CheckpointData.unpack(packed) == data


_names = st.text(
    alphabet=st.characters(
        whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x2FF
    ),
    min_size=1,
    max_size=40,
)


class TestDirectoryCodec:
    @settings(max_examples=80)
    @given(st.dictionaries(_names, inum, max_size=30))
    def test_roundtrip(self, entries):
        block = DirectoryBlock(BS, [])
        added = {}
        for name, child in entries.items():
            if block.has_room_for(name):
                block.add(name, child)
                added[name] = child
        decoded = DirectoryBlock.decode(block.encode(), BS)
        assert decoded.as_dict() == added

    @given(st.dictionaries(_names, inum, min_size=1, max_size=20))
    def test_used_bytes_matches_entry_sizes(self, entries):
        block = DirectoryBlock(BS, [])
        for name, child in entries.items():
            if block.has_room_for(name):
                block.add(name, child)
        assert block.used == sum(
            entry_size(name) for name, _ in block.entries
        )
